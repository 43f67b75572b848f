#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <cstring>

namespace chambolle::telemetry {

namespace detail {

std::atomic<int> g_enabled{-1};

int init_from_env() {
  const char* env = std::getenv("CHAMBOLLE_TELEMETRY");
  int v = 0;
  if (env != nullptr) {
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "true") == 0 || std::strcmp(env, "yes") == 0)
      v = 1;
  }
  // First writer wins; a concurrent set_enabled() may already have stored.
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace chambolle::telemetry
