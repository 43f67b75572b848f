// harness.hpp — shared plumbing of the repository benchmark: run options,
// the result record printed as the final JSON line, sample statistics,
// out-of-band books, the counting allocator and trace/counter readers.
//
// The end-to-end numbers of every workload are measured with telemetry off.
// A traced run (--trace 1) switches the library's own telemetry on for
// alternating blocks of work and reads spans, counters and the lane
// profiler that already exist under src/; the benchmark adds none.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/image.hpp"
#include "tvl1/tvl1.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  A non-empty `check_failures` makes the
/// run incorrect: the benchmark then prints no numbers and exits non-zero.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  ///< printed before the result line
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------------------
// Sample statistics

/// Linear-interpolated q-quantile (the numpy default); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double sum(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// End-to-end timing

/// One operation of the timed run that returned a result.
struct Timing {
  double frame_ms = 0.0;    ///< the system's compute time for it
  double latency_ms = 0.0;  ///< send -> result in the client's hands
};

/// Adds frames_per_s, frame_ms_p50 and latency_ms_p50, and notes the mean
/// rate and the tails (which vary too much across runs on a shared host to
/// carry a bound).  A closed loop's throughput is taken at its median
/// latency, 1000 / latency_ms_p50, for the same reason; an open loop passes
/// its schedule-bound rate as `open_loop_rate`.
void add_timing_metrics(Outcome& out, const std::vector<Timing>& ops,
                        double open_loop_rate = 0.0);

// ---------------------------------------------------------------------------
// Books kept from outside the system under test: every operation sent ends
// in exactly one bucket, whatever the system's own counters say.

struct Books {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t primed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< the future carried an exception
  std::uint64_t closed = 0;

  [[nodiscard]] bool balanced() const {
    return sent == ok + primed + shed + failed + closed;
  }
  /// Operations sent that returned no result.
  [[nodiscard]] std::uint64_t lost() const { return shed + failed + closed; }
  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Memory

/// Counting global operator new (all threads); off until switched on.
void set_alloc_counting(bool on);
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCount alloc_count();

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Traced-run readers (telemetry must be on while the work runs)

/// Total duration (ms) per span name of every span recorded since the last
/// call; clears the trace buffers.  Adds the overwritten-span count since
/// the last call to `*overwritten`.
struct SpanTotals {
  std::map<std::string, double> by_name;
  [[nodiscard]] double ms(const std::string& name) const;
  void merge(const SpanTotals& o);
};
[[nodiscard]] SpanTotals drain_spans(std::uint64_t* overwritten);

/// Per-lane profiler totals accumulated over several profiler sessions.
struct LaneTotals {
  double wall_seconds = 0.0;
  std::vector<std::vector<double>> lane_seconds;  ///< [lane][cause]
  void begin(int lanes);
  void end();
  /// Share of lane-seconds spent in cause c (telemetry::LaneCause order).
  [[nodiscard]] double frac(int cause) const;
  /// Busiest lane's kernel seconds over the mean lane's.
  [[nodiscard]] double imbalance() const;
};

/// Closed-loop traced-run bookkeeping: the work alternates untraced and
/// traced blocks; a traced block switches on telemetry, allocation counting
/// and the lane profiler, and drains its spans when it ends.
struct TracedBlocks {
  explicit TracedBlocks(int profiler_lanes) : lanes_n(profiler_lanes) {}
  void begin();
  void end();
  /// Mean traced over mean untraced operation time, minus 1.
  [[nodiscard]] double overhead() const;

  int lanes_n;
  LaneTotals lanes;
  SpanTotals spans;
  std::uint64_t overwritten = 0;
  std::vector<double> traced_ms, untraced_ms;
};

/// Registry counters of the engine and pool layers.  They move only while
/// telemetry is on, so deltas over a run count its traced work.
struct EngineCounters {
  double passes = 0, halo_bytes = 0, stall_us = 0, cells = 0, threads_created = 0;
  [[nodiscard]] static EngineCounters now();
  [[nodiscard]] EngineCounters since(const EngineCounters& start) const;
};

/// engine.* and pool.* metrics of `ops` traced operations whose useful
/// element-iterations (pixels x iterations, no halo) total `useful_cells`.
/// The lane fractions need the profiler (`lanes`, null when it did not run).
void add_engine_metrics(Outcome& out, const EngineCounters& delta, double ops,
                        double useful_cells, const LaneTotals* lanes);

/// tvl1.* stage times per flow from the pipeline's spans, and the share of
/// the flow's time in the inner Chambolle solves.
void add_tvl1_stage_metrics(Outcome& out, const SpanTotals& spans, double flows);

/// Adds the traced-run metrics of layers a workload does not exercise, as
/// zeros, so every traced run prints the same metric set.
void add_missing_layer_metrics(Outcome& out);

/// serving.{queue,solve}_ms_{p50,p99}.<mode> of one request population.
void add_serving_quantiles(Outcome& out, const std::string& mode,
                           const std::vector<double>& queue_ms,
                           const std::vector<double>& solve_ms);

/// The kernel layer measured directly (single thread): fused-kernel
/// Mcells/s on an 88x92 window and a 1024x768 frame, computed bytes per
/// cell, and the streaming probe both are compared against.
void add_kernel_layer(Outcome& out, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Quality

/// 20 log10(peak / rms(a - b)) over the pixels at least `margin` away from
/// the border.
[[nodiscard]] double psnr_db(const chambolle::Matrix<float>& a,
                             const chambolle::Matrix<float>& b, double peak,
                             int margin = 0);
/// Useful element-iterations of one flow: every pyramid level's pixels, for
/// both components, every warp and inner iteration.
[[nodiscard]] double flow_cells(const chambolle::Image& frame,
                                const chambolle::tvl1::Tvl1Params& params);

/// Frame index of the k-th frame of a stream that walks back and forth over
/// an n-frame sequence, so it reverses direction instead of jumping.
[[nodiscard]] int pingpong(int k, int n);

/// Mean endpoint error of a flow between neighbouring frames of a pan that
/// moves (rate_x, rate_y) per frame, walked forward or back.
[[nodiscard]] double pan_aee(const chambolle::FlowField& flow, float rate_x,
                             float rate_y, bool forward);

/// Byte-wise equality of two matrices (shape and payload).
[[nodiscard]] bool same_bits(const chambolle::Matrix<float>& a,
                             const chambolle::Matrix<float>& b);

// ---------------------------------------------------------------------------
// Workloads

Outcome run_tvl1(const Options& o);
Outcome run_rof(const Options& o);
Outcome run_serve_mixed(const Options& o);

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 9;

}  // namespace perfbench
