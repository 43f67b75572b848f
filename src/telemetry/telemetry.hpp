// telemetry.hpp — the runtime on/off switch of the observability layer.
//
// Everything under src/telemetry/ is gated by one process-wide flag:
//
//   * the environment variable CHAMBOLLE_TELEMETRY ("1"/"on"/"true" enables,
//     "0"/"off"/"false"/unset disables) read lazily on first query;
//   * the programmatic override set_enabled(), which wins over the env var.
//
// The disabled fast path is a single relaxed atomic load and branch, so
// instrumented hot loops cost (almost) nothing when observability is off.
#pragma once

#include <atomic>

namespace chambolle::telemetry {

namespace detail {
extern std::atomic<int> g_enabled;  ///< -1 = uninitialized, 0 = off, 1 = on
/// Resolves the initial state from CHAMBOLLE_TELEMETRY; returns the state.
int init_from_env();
}  // namespace detail

/// True when telemetry collection is on.  O(1), safe from any thread.
inline bool enabled() {
  const int v = detail::g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) [[likely]]
    return v == 1;
  return detail::init_from_env() == 1;
}

/// Programmatic override of the env-var default.
void set_enabled(bool on);

}  // namespace chambolle::telemetry
