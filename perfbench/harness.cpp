#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "kernels/kernel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/pyramid.hpp"
#include "workloads/metrics.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: replaces the global operator new/delete of the
// benchmark binary.  Counting is a flag test when off, so the untraced run
// pays one relaxed load per allocation.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void note_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  note_alloc(n);
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace chambolle;

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// End-to-end timing

void add_timing_metrics(Outcome& out, const std::vector<Timing>& ops,
                        double open_loop_rate) {
  std::vector<double> frame, latency;
  for (const Timing& op : ops) {
    frame.push_back(op.frame_ms);
    latency.push_back(op.latency_ms);
  }
  const double latency_p50 = median(latency);
  out.add("frames_per_s", open_loop_rate > 0.0 ? open_loop_rate : 1e3 / latency_p50, "1/s");
  out.add("frame_ms_p50", median(frame), "ms");
  out.add("latency_ms_p50", latency_p50, "ms");
  std::ostringstream note;
  note << "whole run (" << ops.size() << " results):";
  if (open_loop_rate <= 0.0)
    note << " mean rate " << static_cast<double>(ops.size()) / (sum(latency) / 1e3) << "/s;";
  note << " frame ms p90 " << quantile(frame, 0.9) << "; latency ms p90 "
       << quantile(latency, 0.9) << " p99 " << quantile(latency, 0.99);
  out.notes.push_back(note.str());
}

// ---------------------------------------------------------------------------
// Books

std::string Books::to_string() const {
  std::ostringstream s;
  s << "sent=" << sent << " ok=" << ok << " primed=" << primed
    << " shed=" << shed << " failed=" << failed << " closed=" << closed;
  return s.str();
}

// ---------------------------------------------------------------------------
// Memory

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCount alloc_count() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Spans, counters, lanes

double SpanTotals::ms(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

void SpanTotals::merge(const SpanTotals& o) {
  for (const auto& [name, ms] : o.by_name) by_name[name] += ms;
}

SpanTotals drain_spans(std::uint64_t* overwritten) {
  // One "X" event per line of the Chrome trace export:
  // {"name":"tvl1.warp","cat":"chambolle","ph":"X","ts":..,"dur":<us>,...}
  const std::string json = telemetry::chrome_trace_json();
  if (overwritten != nullptr) *overwritten += telemetry::trace_events_overwritten();
  telemetry::clear_trace();
  SpanTotals out;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::size_t n0 = line.find("{\"name\":\"");
    const std::size_t d0 = line.find("\"dur\":");
    if (n0 == std::string::npos || d0 == std::string::npos) continue;
    const std::size_t name_begin = n0 + 9;
    const std::size_t name_end = line.find('"', name_begin);
    const double dur_us = std::strtod(line.c_str() + d0 + 6, nullptr);
    out.by_name[line.substr(name_begin, name_end - name_begin)] += dur_us / 1e3;
  }
  return out;
}

void LaneTotals::begin(int lanes) {
  if (lane_seconds.empty())
    lane_seconds.assign(static_cast<std::size_t>(lanes),
                        std::vector<double>(telemetry::kLaneCauseCount, 0.0));
  telemetry::Profiler::instance().begin(lanes);
}

void LaneTotals::end() {
  const telemetry::UtilizationReport r = telemetry::Profiler::instance().end();
  wall_seconds += r.wall_seconds;
  for (std::size_t l = 0; l < r.lanes.size() && l < lane_seconds.size(); ++l)
    for (int c = 0; c < telemetry::kLaneCauseCount; ++c)
      lane_seconds[l][static_cast<std::size_t>(c)] += r.lanes[l].seconds[c];
}

double LaneTotals::frac(int cause) const {
  if (lane_seconds.empty() || wall_seconds <= 0.0) return 0.0;
  double s = 0.0;
  for (const auto& lane : lane_seconds) s += lane[static_cast<std::size_t>(cause)];
  return s / (wall_seconds * static_cast<double>(lane_seconds.size()));
}

double LaneTotals::imbalance() const {
  const auto k = static_cast<std::size_t>(telemetry::LaneCause::kKernel);
  double mx = 0.0, total = 0.0;
  for (const auto& lane : lane_seconds) {
    mx = std::max(mx, lane[k]);
    total += lane[k];
  }
  if (total <= 0.0) return 0.0;
  return mx / (total / static_cast<double>(lane_seconds.size()));
}

void TracedBlocks::begin() {
  telemetry::set_enabled(true);
  set_alloc_counting(true);
  lanes.begin(lanes_n);
}

void TracedBlocks::end() {
  lanes.end();
  set_alloc_counting(false);
  telemetry::set_enabled(false);
  spans.merge(drain_spans(&overwritten));
}

double TracedBlocks::overhead() const {
  if (traced_ms.empty() || untraced_ms.empty()) return 0.0;
  return (sum(traced_ms) / static_cast<double>(traced_ms.size())) /
             (sum(untraced_ms) / static_cast<double>(untraced_ms.size())) -
         1.0;
}

EngineCounters EngineCounters::now() {
  const auto value = [](const char* name) {
    return static_cast<double>(telemetry::registry().counter(name).value());
  };
  return {value("tiles.passes"), value("tiles.halo_bytes"), value("tiles.stall_micros"),
          value("kernel.cells"), value("pool.threads_created")};
}

EngineCounters EngineCounters::since(const EngineCounters& s) const {
  return {passes - s.passes, halo_bytes - s.halo_bytes, stall_us - s.stall_us,
          cells - s.cells, threads_created - s.threads_created};
}

void add_engine_metrics(Outcome& out, const EngineCounters& d, double ops,
                        double useful_cells, const LaneTotals* lanes) {
  using telemetry::LaneCause;
  if (lanes != nullptr) {
    out.add("engine.kernel_frac", lanes->frac(static_cast<int>(LaneCause::kKernel)), "ratio");
    out.add("engine.epoch_wait_frac",
            lanes->frac(static_cast<int>(LaneCause::kEpochWait)), "ratio");
    out.add("engine.mailbox_frac", lanes->frac(static_cast<int>(LaneCause::kMailbox)),
            "ratio");
    out.add("engine.idle_frac", lanes->frac(static_cast<int>(LaneCause::kIdle)), "ratio");
    out.add("engine.imbalance_ratio", lanes->imbalance(), "ratio");
  }
  out.add("engine.halo_bytes_per_pass", d.passes > 0 ? d.halo_bytes / d.passes : 0.0, "B");
  out.add("engine.stall_ms_per_frame", d.stall_us / 1e3 / ops, "ms");
  out.add("engine.passes_per_frame", d.passes / ops, "count");
  out.add("engine.redundant_work_frac", d.cells > 0 ? 1.0 - useful_cells / d.cells : 0.0,
          "ratio");
  out.add("pool.threads_created_steady", d.threads_created, "count");
}

void add_tvl1_stage_metrics(Outcome& out, const SpanTotals& spans, double flows) {
  const double pyramid = spans.ms("tvl1.pyramid");
  const double flow = spans.ms("tvl1.compute_flow");
  const double warp = spans.ms("tvl1.warp_gradients");
  const double threshold = spans.ms("tvl1.threshold");
  const double inner = spans.ms("tvl1.chambolle_inner");
  out.add("tvl1.pyramid_ms", pyramid / flows, "ms");
  out.add("tvl1.warp_ms", warp / flows, "ms");
  out.add("tvl1.threshold_ms", threshold / flows, "ms");
  out.add("tvl1.inner_ms", inner / flows, "ms");
  // The rest of compute_flow: upsampling, copies, engine builds.
  out.add("tvl1.other_ms",
          (flow - warp - threshold - inner - spans.ms("tvl1.median_filter")) / flows, "ms");
  out.add("tvl1.chambolle_frac", flow > 0 ? inner / (pyramid + flow) : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// The per-layer metric set: every traced run prints exactly these.

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kPerLayer[] = {
    {"kernels.mcells_s.tile", "Mcells/s"},
    {"kernels.mcells_s.frame", "Mcells/s"},
    {"kernels.bytes_per_cell.computed", "B/cell"},
    {"kernels.gbs.tile", "GB/s"},
    {"kernels.gbs.frame", "GB/s"},
    {"kernels.roofline_frac.tile", "ratio"},
    {"kernels.roofline_frac.frame", "ratio"},
    {"probe.gbs.tile", "GB/s"},
    {"probe.gbs.frame", "GB/s"},
    {"engine.kernel_frac", "ratio"},
    {"engine.epoch_wait_frac", "ratio"},
    {"engine.mailbox_frac", "ratio"},
    {"engine.idle_frac", "ratio"},
    {"engine.imbalance_ratio", "ratio"},
    {"engine.halo_bytes_per_pass", "B"},
    {"engine.stall_ms_per_frame", "ms"},
    {"engine.passes_per_frame", "count"},
    {"engine.redundant_work_frac", "ratio"},
    {"pool.threads_created_steady", "count"},
    {"tvl1.pyramid_ms", "ms"},
    {"tvl1.warp_ms", "ms"},
    {"tvl1.threshold_ms", "ms"},
    {"tvl1.inner_ms", "ms"},
    {"tvl1.other_ms", "ms"},
    {"tvl1.chambolle_frac", "ratio"},
    {"tvl1.allocs_per_frame", "count"},
    {"tvl1.alloc_bytes_per_frame", "B"},
    {"tvl1.aee_px", "px"},
    {"serving.queue_ms_p50.chambolle", "ms"},
    {"serving.queue_ms_p99.chambolle", "ms"},
    {"serving.queue_ms_p50.flow", "ms"},
    {"serving.queue_ms_p99.flow", "ms"},
    {"serving.solve_ms_p50.chambolle", "ms"},
    {"serving.solve_ms_p99.chambolle", "ms"},
    {"serving.solve_ms_p50.flow", "ms"},
    {"serving.solve_ms_p99.flow", "ms"},
    {"serving.latency_ms_p99.chambolle", "ms"},
    {"serving.latency_ms_p90.flow", "ms"},
    {"serving.batch_size_mean", "count"},
    {"serving.engine_builds", "count"},
    {"serving.queue_depth_max", "count"},
    {"serving.shed", "count"},
    {"serving.failed", "count"},
    {"serving.allocs_per_request", "count"},
    {"gen.lag_ms_p99", "ms"},
    {"quality.psnr_db", "dB"},
    {"trace_overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
    {"trace.events_overwritten", "count"},
};

}  // namespace

void add_missing_layer_metrics(Outcome& out) {
  std::set<std::string> have;
  for (const Metric& m : out.metrics) have.insert(m.name);
  for (const MetricSpec& s : kPerLayer)
    if (have.count(s.name) == 0) out.add(s.name, 0.0, s.unit);
}

void add_serving_quantiles(Outcome& out, const std::string& mode,
                           const std::vector<double>& queue_ms,
                           const std::vector<double>& solve_ms) {
  out.add("serving.queue_ms_p50." + mode, quantile(queue_ms, 0.5), "ms");
  out.add("serving.queue_ms_p99." + mode, quantile(queue_ms, 0.99), "ms");
  out.add("serving.solve_ms_p50." + mode, quantile(solve_ms, 0.5), "ms");
  out.add("serving.solve_ms_p99." + mode, quantile(solve_ms, 0.99), "ms");
}

// ---------------------------------------------------------------------------
// Kernel layer and the streaming probe

namespace {

// The fused kernel streams v (read), px and py (read + write) per cell and
// iteration; its Term rows stay in a two-row window.  Computed from the
// array accesses, not measured (same model as bench/kernel_roofline).
constexpr double kFusedBytesPerCell = 20.0;
// Triad a = b + s * c: two reads and one write per element, write-allocate
// traffic not counted.
constexpr double kTriadBytesPerElement = 12.0;
constexpr int kWindows = 5;
constexpr double kWindowSeconds = 0.15;

template <typename Step>
double median_rate(Step step, double units_per_step) {
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w) {
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    long reps = 0;
    do {
      step();
      ++reps;
      elapsed = ms_between(t0, Clock::now()) / 1e3;
    } while (elapsed < kWindowSeconds);
    rates.push_back(units_per_step * static_cast<double>(reps) / elapsed);
  }
  return median(rates);
}

// Mcells/s of iterate_region_fused on a rows x cols window placed inside a
// 1024x768 frame (a tile window when smaller), 4 iterations per call as the
// resident engine's merge depth issues them.
double kernel_mcells(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> px = random_image(rng, rows, cols, -0.7f, 0.7f);
  Matrix<float> py = random_image(rng, rows, cols, -0.7f, 0.7f);
  const Matrix<float> v = random_image(rng, rows, cols, -2.f, 2.f);
  Matrix<float> term;
  const bool tile = rows < 768;
  const RegionGeometry geom{tile ? 200 : 0, tile ? 300 : 0, 768, 1024};
  constexpr int kIters = 4;
  return median_rate(
             [&] {
               kernels::iterate_region_fused(px, py, v, geom, 4.f, 0.25f,
                                             kIters, term);
             },
             static_cast<double>(rows) * cols * kIters) /
         1e6;
}

// GB/s of a single-thread triad over three arrays of n floats.
double triad_gbs(std::size_t n) {
  std::vector<float> a(n, 0.f), b(n, 1.f), c(n, 2.f);
  float s = 0.5f;
  const double gbs =
      median_rate(
          [&] {
            for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
            s = a[n / 2] * 1e-9f + 0.5f;  // keep the sweep observable
          },
          static_cast<double>(n) * kTriadBytesPerElement) /
      1e9;
  return gbs;
}

}  // namespace

void add_kernel_layer(Outcome& out, std::uint64_t seed) {
  // Tile: the paper's 88x92 window; v, px, py take 97 KB (L2-resident).
  // Frame: 1024x768; v, px, py take 9.4 MB, above the L2 of one core and
  // inside the last-level cache of the host this benchmark was tuned on.
  const double tile = kernel_mcells(88, 92, seed);
  const double frame = kernel_mcells(768, 1024, seed);
  const double probe_tile = triad_gbs(88 * 92);
  const double probe_frame = triad_gbs(768 * 1024);
  const double gbs_tile = tile * kFusedBytesPerCell / 1e3;
  const double gbs_frame = frame * kFusedBytesPerCell / 1e3;
  out.add("kernels.mcells_s.tile", tile, "Mcells/s");
  out.add("kernels.mcells_s.frame", frame, "Mcells/s");
  out.add("kernels.bytes_per_cell.computed", kFusedBytesPerCell, "B/cell");
  out.add("kernels.gbs.tile", gbs_tile, "GB/s");
  out.add("kernels.gbs.frame", gbs_frame, "GB/s");
  out.add("kernels.roofline_frac.tile", gbs_tile / probe_tile, "ratio");
  out.add("kernels.roofline_frac.frame", gbs_frame / probe_frame, "ratio");
  out.add("probe.gbs.tile", probe_tile, "GB/s");
  out.add("probe.gbs.frame", probe_frame, "GB/s");
  out.notes.push_back(std::string("kernel backend: ") +
                      kernels::backend_name(kernels::active_backend()));
}

// ---------------------------------------------------------------------------
// Quality

double psnr_db(const Matrix<float>& a, const Matrix<float>& b, double peak,
               int margin) {
  double sq = 0.0;
  std::size_t n = 0;
  for (int r = margin; r < a.rows() - margin; ++r)
    for (int c = margin; c < a.cols() - margin; ++c) {
      const double d = static_cast<double>(a(r, c)) - b(r, c);
      sq += d * d;
      ++n;
    }
  const double rms = n > 0 ? std::sqrt(sq / static_cast<double>(n)) : 0.0;
  return rms > 0.0 ? 20.0 * std::log10(peak / rms) : 200.0;
}

double flow_cells(const Image& frame, const tvl1::Tvl1Params& params) {
  const tvl1::Pyramid pyr(frame, params.pyramid_levels);
  double pixels = 0.0;
  for (int l = 0; l < pyr.levels(); ++l) pixels += static_cast<double>(pyr.level(l).size());
  return pixels * 2.0 * params.warps * params.chambolle.iterations;
}

int pingpong(int k, int n) {
  const int period = 2 * (n - 1);
  const int m = k % period;
  return m < n ? m : period - m;
}

double pan_aee(const FlowField& flow, float rate_x, float rate_y, bool forward) {
  FlowField truth(flow.rows(), flow.cols());
  const float sign = forward ? 1.f : -1.f;
  truth.fill(sign * rate_x, sign * rate_y);
  return workloads::average_endpoint_error(flow, truth);
}

bool same_bits(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
