#include "middleware/config.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <variant>

#include "common/env.h"

namespace sqlclass {

namespace {

/// How an override reads its variable. A value that does not parse, or is
/// out of the kind's domain, keeps the configured field; a kFill* override
/// also keeps a field that is already set (non-zero, non-empty).
enum class Parse {
  kFlag,          // "0"/"false"/"off" = off, any other value = on
  kNonNegative,   // integer >= 0
  kPositive,      // integer > 0
  kFillPositive,  // integer > 0, filling a 0
  kOpenUnit,      // double in (0, 1)
  kClosedUnit,    // double in [0, 1]
  kTransport,     // "inproc"/"0" or "subprocess"/"oop"/"1"
  kFillPath,      // any value, filling an empty path
};

/// One override: the variable, the field it sets as README.md's knob table
/// names it (tools/lint_env_docs.py checks the two agree), and the field.
struct Row {
  const char* name;
  const char* field;
  Parse parse;
  std::variant<bool*, int*, uint64_t*, double*, ShardTransportKind*,
               std::string*>
      target;
};

void Set(Parse, const char* value, bool* field) {
  *field = ParseEnvFlag(value);
}

template <typename Int>
void Set(Parse parse, const char* value, Int* field) {
  if (parse == Parse::kFillPositive && *field != 0) return;
  const std::optional<long long> n = ParseEnvInt(value);
  if (n && *n >= (parse == Parse::kNonNegative ? 0 : 1) &&
      static_cast<unsigned long long>(*n) <= std::numeric_limits<Int>::max()) {
    *field = static_cast<Int>(*n);
  }
}

void Set(Parse parse, const char* value, double* field) {
  const std::optional<double> v = ParseEnvDouble(value);
  if (v && (parse == Parse::kClosedUnit ? *v >= 0 && *v <= 1
                                        : *v > 0 && *v < 1)) {
    *field = *v;
  }
}

void Set(Parse, const char* value, ShardTransportKind* field) {
  auto is = [value](const char* s) { return std::strcmp(value, s) == 0; };
  if (is("inproc") || is("0")) *field = ShardTransportKind::kInProcess;
  if (is("subprocess") || is("oop") || is("1")) {
    *field = ShardTransportKind::kSubprocess;
  }
}

void Set(Parse, const char* value, std::string* field) {
  if (field->empty()) *field = value;
}

void ApplyRows(CountingConfig* c, ApproxConfig* a) {
  ShardingConfig* s = &c->sharding;
  const Row rows[] = {
      {"SQLCLASS_BITMAP_INDEX", "use_bitmap_index", Parse::kFlag,
       &c->use_bitmap_index},
      {"SQLCLASS_PARALLEL_SCAN_THREADS", "parallel_scan_threads",
       Parse::kFillPositive, &c->parallel_scan_threads},
      {"SQLCLASS_APPROX", "approx.enable", Parse::kFlag, &a->enable},
      {"SQLCLASS_APPROX_CONFIDENCE", "approx.confidence", Parse::kOpenUnit,
       &a->confidence},
      {"SQLCLASS_APPROX_EXACTNESS", "approx.exactness", Parse::kClosedUnit,
       &a->exactness},
      {"SQLCLASS_SHARDS", "sharding.enable", Parse::kFlag, &s->enable},
      {"SQLCLASS_SHARDS_MIN_ROWS", "sharding.min_node_rows",
       Parse::kNonNegative, &s->min_node_rows},
      {"SQLCLASS_SHARDS_TRANSPORT", "sharding.transport", Parse::kTransport,
       &s->transport},
      {"SQLCLASS_SHARDS_RPC_DEADLINE_MS", "sharding.rpc_deadline_ms",
       Parse::kPositive, &s->rpc_deadline_ms},
      {"SQLCLASS_SHARD_WORKER_BIN", "sharding.worker_binary",
       Parse::kFillPath, &s->worker_binary},
  };
  for (const Row& row : rows) {
    const char* value = std::getenv(row.name);
    if (value == nullptr || value[0] == '\0') continue;
    std::visit([&](auto* field) { Set(row.parse, value, field); },
               row.target);
  }
}

}  // namespace

void ApplyEnvOverrides(CountingConfig* config) {
  ApproxConfig no_approx;  // a counting config without the sample path
  ApplyRows(config, &no_approx);
}

void ApplyEnvOverrides(MiddlewareConfig* config) {
  ApplyRows(config, &config->approx);
}

}  // namespace sqlclass
