// flight_recorder.hpp — the crash flight recorder.
//
// A bounded, lock-free ring of recent events per thread, cheap enough to
// leave on in production runs, dumped to a postmortem JSON either on demand
// or by a signal handler when the process crashes (SIGSEGV / SIGABRT /
// SIGFPE / SIGBUS) — so an oracle or fuzzer crash comes with a timeline of
// what every thread was doing in its last moments, not just a stack.
//
// Event sources:
//   * flight_mark(name, value) — explicit breadcrumbs at key points (solve
//     entries, pass publishes, oracle case seeds, fuzz input ids);
//   * every finished TraceSpan is mirrored in (trace.cpp), so when telemetry
//     tracing is also on the flight ring carries the span timeline for free.
//
// Unlike the rest of the telemetry layer the recorder is ON by default
// (that is its point: the crash you did not plan for); disable with
// CHAMBOLLE_FLIGHT=0 or set_flight_recorder_enabled(false).  The disabled
// path is one relaxed atomic load and a branch.  Rings hold the last
// kFlightRingCapacity events per thread; older events are overwritten.
//
// The crash handler only uses async-signal-safe primitives: rings register
// into a fixed lock-free table (no mutex to deadlock on), the dump is
// formatted with local integer formatting into a stack buffer and written
// with write(2).  It is best-effort by nature — a crash can corrupt
// anything — but the rings are plain memory owned by healthy threads, so in
// practice the timeline survives.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/telemetry.hpp"

namespace chambolle::telemetry {

inline constexpr std::size_t kFlightRingCapacity = 256;  // events per thread
inline constexpr int kFlightMaxThreads = 256;

namespace detail {
extern std::atomic<int> g_flight_enabled;  ///< -1 uninit, 0 off, 1 on
int flight_init_from_env();
}  // namespace detail

/// True when the recorder is collecting.  Defaults to ON; CHAMBOLLE_FLIGHT=0
/// (or "off"/"false") disables, set_flight_recorder_enabled() overrides.
inline bool flight_recorder_enabled() {
  const int v = detail::g_flight_enabled.load(std::memory_order_relaxed);
  if (v >= 0) [[likely]]
    return v == 1;
  return detail::flight_init_from_env() == 1;
}

void set_flight_recorder_enabled(bool on);

/// Records one breadcrumb on the calling thread's ring: `name` (truncated to
/// the fixed event width) and a free-form numeric value.  Lock-free; no-op
/// while disabled.
void flight_mark(const char* name, double value = 0.0);

/// Same, with an explicit duration — the TraceSpan mirror path.
void flight_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

// QUIESCENT-READER CONTRACT — flight_event_count / clear_flight_record /
// flight_record_json / write_flight_record.  The rings are single-writer
// lock-free for the benefit of the CRASH path, whose best-effort dump
// tolerates a torn in-flight slot.  The ordinary readers below do NOT: they
// walk slots without per-event validation, and a recording thread can lap a
// full ring (overwrite the oldest slot) while a reader is mid-walk, which
// would be a data race.  Call them only when no thread is concurrently
// recording — between solves / after the pool quiesces, the same contract
// as the profiler's report accessors — never from inside a running region.
// Every in-repo call site (tests, flow_cli after the solve) satisfies this.

/// Events currently held across all rings (capped per thread).  Quiescent
/// readers only — see the contract above.
[[nodiscard]] std::size_t flight_event_count();

/// Discards all recorded events (ring registrations survive).  Quiescent
/// readers only — see the contract above.
void clear_flight_record();

/// Serializes every ring, oldest first per thread, as a JSON object:
/// {"flight_recorder": {"events": [{"t_us":…, "tid":…, "name":…,
/// "value":…, "dur_us":…}, …]}}.  Normal (non-signal) code path; quiescent
/// readers only — see the contract above.
[[nodiscard]] std::string flight_record_json();

/// Writes flight_record_json() to `path`; false on I/O failure.  Quiescent
/// readers only — see the contract above.
bool write_flight_record(const std::string& path);

/// Installs the crash handler for SIGSEGV, SIGABRT, SIGFPE and SIGBUS.  On
/// delivery it dumps the rings to `path` (async-signal-safe writer), then
/// restores the default disposition and re-raises so the exit status and
/// core dump are unchanged.  `path` is copied at install time; nullptr uses
/// $CHAMBOLLE_FLIGHT_DUMP, falling back to "flight_record.json" in the
/// working directory.  Idempotent; later calls replace the path.
void install_crash_handler(const char* path = nullptr);

/// The async-signal-safe dump the handler runs, callable directly (tests,
/// "dump now" tooling): formats with no allocation and writes with write(2).
/// Returns false if the file could not be opened.
bool flight_crash_dump(const char* path);

}  // namespace chambolle::telemetry
