// Test helper: sets an environment variable for one scope, restoring the
// old value (or its absence) when the scope ends.
#ifndef CLEAR_TESTS_SCOPED_ENV_H
#define CLEAR_TESTS_SCOPED_ENV_H

#include <cstdlib>
#include <string>

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

#endif  // CLEAR_TESTS_SCOPED_ENV_H
