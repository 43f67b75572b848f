// profiler.hpp — the per-lane execution profiler.
//
// The parallel engines report WHAT they did (tiles.passes, pool.tasks) and
// one aggregate stall number (tiles.stall_micros), but tuning the resident
// engine — and building the multi-stream service on top of it — needs
// per-lane attribution of WHERE each lane's wall time went.  A profiling
// session classifies every lane's time into four causes:
//
//   kernel   — inside the fused iteration kernel (useful work)
//   epoch    — waiting for a neighbor tile's epoch in the EpochGraph
//   mailbox  — gathering/scattering halo strips through tile mailboxes
//   idle     — the residual: lane existed but ran none of the above
//              (pool idle between regions, setup, write-back)
//
// so the four buckets partition each lane's session wall time exactly; the
// report derives busy fraction, an imbalance ratio, a per-cause stall
// breakdown, and per-tile pass timings, exported as JSON and as a
// human-readable text table (docs/observability.md documents the schema).
//
// Usage (quiescent begin/end — bracket a solve, not a running region):
//
//   telemetry::Profiler::instance().begin(lanes);
//   ... solve ...
//   const telemetry::UtilizationReport r = telemetry::Profiler::instance().end();
//   write_text_file("profile.json", r.to_json());
//
// Cost model: with no active session every instrumentation point is one
// relaxed atomic load and a predicted branch — ProfScope reads no clock and
// touches no memory.  During a session, recording is one steady-clock pair
// plus one relaxed fetch_add per scope; there are no locks anywhere on the
// record path.  Lane identity comes from a thread_local set by the
// ThreadPool when a region body enters a lane (threads outside any region
// record nothing).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace chambolle::telemetry {

/// Where a lane's time went.  kIdle is never recorded directly — it is the
/// per-lane residual (wall minus attributed) computed by end().
enum class LaneCause : int {
  kKernel = 0,
  kEpochWait = 1,
  kMailbox = 2,
  kIdle = 3,
};
inline constexpr int kLaneCauseCount = 4;

/// Stable lower_snake name ("kernel", "epoch_wait", "mailbox", "idle") —
/// the JSON/table field names.
[[nodiscard]] const char* lane_cause_name(LaneCause c);

namespace detail {
extern std::atomic<int> g_profiler_active;  ///< 1 while a session runs
}  // namespace detail

/// True while a profiling session is active.  The one-load fast path every
/// instrumentation point checks first.
inline bool profiler_active() {
#ifdef CHAMBOLLE_TELEMETRY_DISABLED
  return false;
#else
  return detail::g_profiler_active.load(std::memory_order_acquire) != 0;
#endif
}

/// Thread -> lane mapping.  The ThreadPool sets the calling thread's lane id
/// on region entry and restores the previous value on exit; -1 (the default)
/// means "not in a region" and drops any recording.  Returns the previous
/// value so callers can nest.
int profiler_set_lane(int lane);
[[nodiscard]] int profiler_lane();

/// Adds `seconds` of `cause` to the calling thread's lane (no-op when no
/// session is active, the lane is unmapped, or the lane is outside the
/// session's lane range).  For call sites that already hold a measured
/// duration (the EpochGraph's stall clock); scoped sites use ProfScope.
void profiler_add(LaneCause cause, double seconds);

/// Adds one pass of `seconds` kernel time to tile `node`'s per-tile timing
/// (in addition to profiler_add(kKernel, ...), which the caller does
/// separately).  Out-of-range tiles are dropped.
void profiler_add_tile(int tile, double seconds);

/// Scoped attribution: measures its lifetime and adds it to the calling
/// lane's `cause` bucket.  Fully inert (no clock read) without a session.
class ProfScope {
 public:
  explicit ProfScope(LaneCause cause);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint64_t start_ns_ = 0;
  std::int32_t cause_ = -1;  // -1 = inert
};

/// One lane's accounting: seconds and event counts per cause.  kIdle's
/// seconds are the residual; its event count is always 0.
struct LaneUsage {
  double seconds[kLaneCauseCount] = {};
  std::uint64_t events[kLaneCauseCount] = {};

  /// Attributed (non-idle) seconds.
  [[nodiscard]] double attributed() const {
    double s = 0;
    for (int c = 0; c < kLaneCauseCount; ++c)
      if (c != static_cast<int>(LaneCause::kIdle)) s += seconds[c];
    return s;
  }
  /// Sum over ALL causes including idle — equals the session wall time by
  /// construction (the acceptance invariant tests assert).
  [[nodiscard]] double total() const {
    double s = 0;
    for (int c = 0; c < kLaneCauseCount; ++c) s += seconds[c];
    return s;
  }
};

/// Per-tile kernel-time accounting (resident engine only; empty otherwise).
struct TileTiming {
  std::uint64_t passes = 0;
  double seconds = 0.0;
};

/// The per-solve utilization report Profiler::end() aggregates.
struct UtilizationReport {
  double wall_seconds = 0.0;
  std::vector<LaneUsage> lanes;
  std::vector<TileTiming> tiles;  ///< indexed by tile/node id

  /// Mean over lanes of kernel_seconds / wall — the fraction of the
  /// machine's lane-seconds spent doing useful work.
  [[nodiscard]] double busy_fraction() const;
  /// max over lanes of kernel seconds / mean over lanes — 1.0 is perfectly
  /// balanced; 2.0 means the busiest lane did twice the mean.
  [[nodiscard]] double imbalance_ratio() const;
  /// Seconds of `cause` summed over lanes.
  [[nodiscard]] double total_seconds(LaneCause cause) const;

  /// JSON object (schema in docs/observability.md).
  [[nodiscard]] std::string to_json() const;
  /// Human-readable fixed-width table, one row per lane plus a summary.
  [[nodiscard]] std::string to_table() const;
};

/// The process-wide profiler.  One session at a time; begin()/end() must be
/// called at quiescent points (no region running), which every call site in
/// this repo does — the record path is lock-free precisely because session
/// boundaries are externally synchronized.
class Profiler {
 public:
  static Profiler& instance();

  /// Starts a session for lanes [0, lanes).  Per-tile timings are kept for
  /// tiles [0, max_tiles); recordings outside either range are dropped.
  /// Throws std::logic_error if a session is already active.
  void begin(int lanes, int max_tiles = kDefaultMaxTiles);

  /// Ends the session and aggregates the report.  Throws std::logic_error
  /// if no session is active.
  UtilizationReport end();

  /// Abandons an active session without building a report (test cleanup).
  void cancel();

  static constexpr int kDefaultMaxTiles = 4096;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
  friend void profiler_add(LaneCause, double);
  friend void profiler_add_tile(int, double);

  struct alignas(64) LaneSlot {
    std::atomic<std::uint64_t> ns[kLaneCauseCount - 1];  // no slot for kIdle
    std::atomic<std::uint64_t> events[kLaneCauseCount - 1];
  };
  struct alignas(64) TileSlot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> passes{0};
  };

  std::vector<LaneSlot> lane_slots_;
  std::vector<TileSlot> tile_slots_;
  std::uint64_t session_start_ns_ = 0;
};

}  // namespace chambolle::telemetry
