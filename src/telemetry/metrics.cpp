#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/json_util.hpp"

namespace chambolle::telemetry {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    // Non-finite bounds would pass a pure <=-previous check (every NaN
    // comparison is false) and then corrupt bucketing and the quantile lerp.
    if (!std::isfinite(bounds_[i]))
      throw std::invalid_argument("Histogram: bounds must be finite");
    if (i > 0 && bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument("Histogram: bounds must increase strictly");
  }
}

void Histogram::observe(double v) {
  if (gated_ && !enabled()) return;
  if (!std::isfinite(v)) return;  // see header: non-finite is dropped
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  return buckets_.at(i).load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = total_count();
  if (total == 0) return 0.0;
  // !(q >= 0) also catches NaN, which `q < 0` would pass through and turn
  // the rank (and every comparison below) into garbage.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == bounds_.size())  // overflow bucket: no upper edge to lerp to
        return bounds_.empty() ? 0.0 : bounds_.back();
      const double hi = bounds_[i];
      // Lower edge: previous bound, or (for the first bucket) 0 unless the
      // bound itself is negative.
      const double lo = i > 0 ? bounds_[i - 1] : std::min(0.0, hi);
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative += in_bucket;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> default_ms_bounds() {
  return {0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0};
}

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry* reg = new MetricRegistry();  // leaked: outlives exit
  return *reg;
}

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0)
    throw std::logic_error("MetricRegistry: '" + name +
                           "' already registered as another kind");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0)
    throw std::logic_error("MetricRegistry: '" + name +
                           "' already registered as another kind");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0)
    throw std::logic_error("MetricRegistry: '" + name +
                           "' already registered as another kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // Construct before inserting: the Histogram ctor validates the bounds
    // and may throw, which must not leave a null entry behind.
    auto h = std::make_unique<Histogram>(std::move(upper_bounds));
    h->gated_ = true;
    it = histograms_.emplace(name, std::move(h)).first;
  }
  return *it->second;
}

std::string MetricRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_escaped(out, name);
    out += ": " + json_number(c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_escaped(out, name);
    out += ": " + json_number(g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_escaped(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      if (i != 0) out += ", ";
      out += json_number(h->bounds()[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i != 0) out += ", ";
      out += json_number(h->bucket_count(i));
    }
    out += "], \"count\": " + json_number(h->total_count());
    out += ", \"sum\": " + json_number(h->sum());
    out += ", \"p50\": " + json_number(h->quantile(0.50));
    out += ", \"p95\": " + json_number(h->quantile(0.95));
    out += ", \"p99\": " + json_number(h->quantile(0.99)) + "}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::counters_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricRegistry::gauges_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<MetricRegistry::HistogramSnapshot>
MetricRegistry::histograms_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot s;
    s.name = name;
    s.bounds = h->bounds();
    s.buckets.resize(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i)
      s.buckets[i] = h->bucket_count(i);
    s.count = h->total_count();
    s.sum = h->sum();
    s.p50 = h->quantile(0.50);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    out.push_back(std::move(s));
  }
  return out;
}

bool MetricRegistry::write_json(const std::string& path) const {
  return write_text_file(path, snapshot_json());
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace chambolle::telemetry
