#ifndef SQLCLASS_COMMON_ENV_H_
#define SQLCLASS_COMMON_ENV_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace sqlclass {

// Parsers for set, non-empty SQLCLASS_* environment values. nullopt means
// the value does not parse and the caller keeps its configured value.

/// "0", "false" and "off" read as false; any other value as true.
inline bool ParseEnvFlag(const char* value) {
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "false") != 0 &&
         std::strcmp(value, "off") != 0;
}

/// The whole value as a decimal integer.
inline std::optional<long long> ParseEnvInt(const char* value) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) return std::nullopt;
  return n;
}

/// The whole value as a finite double.
inline std::optional<double> ParseEnvDouble(const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace sqlclass

#endif  // SQLCLASS_COMMON_ENV_H_
