#include "common/env.hpp"

#include <cstdlib>

namespace vmstorm::common {

const char* env_or(const char* name, const char* fallback) noexcept {
  // The sanctioned raw read: env-read-discipline exempts exactly this TU
  // (taint.toml [env] shim_files). Everything else goes through env_or().
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

}  // namespace vmstorm::common
