// RAII environment-variable override for tests (and bench_memory_pool's
// fuzz axis) that drive the MGGCN_* knobs — schedule fuzzing, hazard
// checking, registry defaults — through the environment; the previous
// value, or its absence, is restored on exit.
#pragma once

#include <cstdlib>
#include <string>

namespace mggcn {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) saved_ = old;
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

}  // namespace mggcn
