#ifndef SQLCLASS_TESTS_TEST_ENV_H_
#define SQLCLASS_TESTS_TEST_ENV_H_

#include <cstdlib>
#include <string>

namespace sqlclass {
namespace testing_util {

/// Sets (or, for a null `value`, unsets) one environment variable for the
/// scope's lifetime and restores the previous state on destruction — also
/// when an assertion ends the test early.
class EnvVarScope {
 public:
  EnvVarScope(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    Set(value);
  }
  ~EnvVarScope() { Set(had_prev_ ? prev_.c_str() : nullptr); }

  EnvVarScope(const EnvVarScope&) = delete;
  EnvVarScope& operator=(const EnvVarScope&) = delete;

  /// Changes the variable again inside the scope.
  void Set(const char* value) {
    if (value != nullptr) {
      setenv(name_.c_str(), value, 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string prev_;
  bool had_prev_ = false;
};

}  // namespace testing_util
}  // namespace sqlclass

#endif  // SQLCLASS_TESTS_TEST_ENV_H_
