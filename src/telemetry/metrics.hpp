// metrics.hpp — the process-wide metric registry.
//
// Named counters, gauges, and fixed-bucket histograms with O(1) lock-free
// hot-path updates (one relaxed atomic RMW plus the telemetry::enabled()
// branch).  Registration (name lookup) takes a mutex and should be hoisted
// out of hot loops: call registry().counter("x") once, keep the reference.
//
// Naming convention (docs/observability.md): dot-separated lowercase paths,
// subsystem first — "chambolle.solver.iterations", "hw.bram.reads",
// "tvl1.warps".  snapshot_json() serializes every registered metric, so one
// dump compares software and simulated-hardware runs side by side.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace chambolle::telemetry {

/// Monotonic counter.  add() is a no-op while telemetry is disabled.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins gauge.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// overflow bucket counts the rest.  Bounds are set at registration and
/// immutable afterwards, so observe() is bounds.size() compares plus one
/// relaxed increment — no locks.  A histogram the MetricRegistry hands out
/// records only while telemetry is enabled, like every registry metric; one
/// its owner constructs records always (the serving latency quantiles).
class Histogram {
 public:
  /// Bounds must be finite and strictly increasing (NaN/inf bounds would
  /// silently break bucketing and quantile lerp; rejected with
  /// std::invalid_argument).
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one observation.  Non-finite values are DROPPED (not counted):
  /// a NaN would otherwise land in the lowest bucket (every comparison is
  /// false) and poison sum() forever, and an inf would make sum() useless
  /// while reporting as the last finite bound anyway.
  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t total_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Estimates the q-quantile (q in [0, 1]) from the bucket counts by linear
  /// interpolation inside the bucket that holds the target rank.  The
  /// overflow bucket has no upper edge, so anything landing there reports the
  /// last finite bound — an underestimate by construction, same convention as
  /// Prometheus histogram_quantile.  Returns 0 for an empty histogram;
  /// out-of-range and NaN q clamp to the nearest valid quantile (NaN -> 0).
  [[nodiscard]] double quantile(double q) const;

  void reset();

 private:
  friend class MetricRegistry;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  bool gated_ = false;  ///< set by MetricRegistry: observe() needs enabled()
};

/// Default histogram bounds for millisecond-scale durations.
[[nodiscard]] std::vector<double> default_ms_bounds();

class MetricRegistry {
 public:
  /// The process-wide registry used by all instrumentation in this repo.
  static MetricRegistry& instance();

  /// Finds or creates the metric.  References stay valid for the registry's
  /// lifetime.  A name registered as one kind cannot be re-registered as
  /// another (throws std::logic_error).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = default_ms_bounds());

  /// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Histograms serialize bounds, per-bucket counts, total count, sum, and
  /// derived p50/p95/p99 quantile estimates.
  [[nodiscard]] std::string snapshot_json() const;

  /// Point-in-time copies for exporters that need to enumerate the registry
  /// (the Prometheus renderer).  Name-sorted, values read relaxed.
  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters_snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges_snapshot()
      const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms_snapshot() const;

  /// Writes snapshot_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Zeroes every metric's value; registrations (and references) survive.
  void reset();

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricRegistry::instance().
[[nodiscard]] inline MetricRegistry& registry() {
  return MetricRegistry::instance();
}

}  // namespace chambolle::telemetry
