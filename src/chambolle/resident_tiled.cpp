#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "chambolle/multilevel.hpp"
#include "common/stopwatch.hpp"
#include "kernels/kernel.hpp"
#include "kernels/strips.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {

/// The resident working set of one tile: the (px, py) dual window and the
/// fixed input window, allocated once and owned by one lane for the whole
/// solve.  ~tile_rows * tile_cols * 12 B — sized to stay cache-resident
/// (the paper's 88 x 92 window is ~97 KiB), the CPU analogue of a BRAM bank.
struct ResidentTiledEngine::TileBuffers {
  Matrix<float> px, py, v;
};

/// One directed halo-exchange edge, with the frame rectangle pre-resolved
/// into source- and destination-local coordinates and a parity-double-
/// buffered payload: slot[n & 1] carries the pass-n strip (px rows first,
/// then py rows).  Publication/consumption is ordered by the EpochGraph's
/// release/acquire epoch protocol; the skew bound (neighbors never more
/// than one pass apart) keeps the two slots from colliding.  A tile retired
/// by run_adaptive() stops publishing: gathers are redirected to its final
/// strips by the frozen_pass_ marker (see gather_halos / mark_frozen).
struct ResidentTiledEngine::Mailbox {
  HaloEdge edge;
  int src_r0 = 0, src_c0 = 0;  // edge rect in src-buffer coordinates
  int dst_r0 = 0, dst_c0 = 0;  // edge rect in dst-buffer coordinates
  std::vector<float> slot[2];
};

ResidentTiledEngine::ResidentTiledEngine(const Matrix<float>& v,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         const DualField* initial)
    : params_(params), options_(options), frame_v_(v) {
  params_.validate();
  options_.validate();
  if (initial != nullptr &&
      (!initial->px.same_shape(v) || !initial->py.same_shape(v)))
    throw std::invalid_argument(
        "ResidentTiledEngine: initial dual shape mismatch");
  plan_ = make_tiling(v.rows(), v.cols(), options_.tile_rows,
                      options_.tile_cols, options_.merge_iterations);

  const int n = static_cast<int>(plan_.tiles.size());
  tiles_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TileSpec& t = plan_.tiles[i];
    TileBuffers& b = tiles_[static_cast<std::size_t>(i)];
    b.v.resize(t.buf_rows, t.buf_cols);
    kernels::copy_rect(v, t.buf_row0, t.buf_col0, b.v, 0, 0, t.buf_rows,
                       t.buf_cols);
  }
  load_duals(initial);

  const std::vector<HaloEdge> edges = make_halo_edges(plan_);
  mail_.reserve(edges.size());
  in_edges_.assign(static_cast<std::size_t>(n), {});
  out_edges_.assign(static_cast<std::size_t>(n), {});
  std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n));
  for (const HaloEdge& e : edges) {
    Mailbox m;
    m.edge = e;
    const TileSpec& s = plan_.tiles[static_cast<std::size_t>(e.src)];
    const TileSpec& d = plan_.tiles[static_cast<std::size_t>(e.dst)];
    m.src_r0 = e.row0 - s.buf_row0;
    m.src_c0 = e.col0 - s.buf_col0;
    m.dst_r0 = e.row0 - d.buf_row0;
    m.dst_c0 = e.col0 - d.buf_col0;
    m.slot[0].resize(2 * e.elements());
    m.slot[1].resize(2 * e.elements());
    const int idx = static_cast<int>(mail_.size());
    mail_.push_back(std::move(m));
    out_edges_[static_cast<std::size_t>(e.src)].push_back(idx);
    in_edges_[static_cast<std::size_t>(e.dst)].push_back(idx);
    adjacency[static_cast<std::size_t>(e.src)].push_back(e.dst);
  }
  // The halo-edge relation is symmetric (tile_test asserts it), so the
  // published adjacency doubles as the wait set: a tile waits exactly on
  // the tiles it exchanges strips with.
  graph_ = std::make_unique<parallel::EpochGraph>(std::move(adjacency));

  frozen_pass_ = std::vector<std::atomic<int>>(static_cast<std::size_t>(n));
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  stats_.tiles = plan_.tiles.size();
  stats_.halo_elements_per_pass = halo_exchange_elements(edges);
}

ResidentTiledEngine::~ResidentTiledEngine() = default;

void ResidentAdaptiveOptions::validate() const {
  if (!(tolerance > 0.f) || !std::isfinite(tolerance))
    throw std::invalid_argument(
        "ResidentAdaptiveOptions: tolerance must be finite and > 0");
  if (patience < 1)
    throw std::invalid_argument("ResidentAdaptiveOptions: patience < 1");
  if (max_passes < 1)
    throw std::invalid_argument("ResidentAdaptiveOptions: max_passes < 1");
  if (final_pass_iterations < 0)
    throw std::invalid_argument(
        "ResidentAdaptiveOptions: final_pass_iterations < 0");
}

ResidentAdaptiveOptions ResidentAdaptiveOptions::resolved(
    int iterations, int merge_iterations) const {
  ResidentAdaptiveOptions out = *this;
  if (out.max_passes > 0) return out;
  const int merge = std::max(1, merge_iterations);
  out.max_passes = std::max(1, (iterations + merge - 1) / merge);
  const int tail = iterations - (out.max_passes - 1) * merge;
  if (tail > 0 && tail < merge) out.final_pass_iterations = tail;
  return out;
}

void ResidentTiledEngine::gather_halos(std::size_t ti, int g) {
  // The incoming rectangles partition the halo exactly, so after this loop
  // the whole buffer holds the neighbors' post-pass-(g-1) state.
  TileBuffers& b = tiles_[ti];
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : in_edges_[ti]) {
    const Mailbox& m = mail_[static_cast<std::size_t>(mi)];
    // A live neighbor's post-pass-(g-1) strips sit at parity (g-1).  A
    // neighbor retired at pass f stopped publishing: its final strips sit at
    // parity f, so read that slot once f < g-1.  Visibility: the marker is
    // stored before the terminal epoch's release store, and acquiring that
    // epoch in the scheduler's ready check is the only way this tile can
    // reach pass g > f + 1, so whenever the frozen slot is the one that
    // matters the load below is guaranteed to observe f.  While f >= g-1
    // (the neighbor's retirement pass may still be racing this gather)
    // min() keeps the normal parity, whose strips the neighbor published
    // before our pass became ready — so the slot actually read, and hence
    // the numeric result, is schedule-independent.
    int src_pass = g - 1;
    const int f = frozen_pass_[static_cast<std::size_t>(m.edge.src)].load(
        std::memory_order_acquire);
    if (f >= 0) src_pass = std::min(src_pass, f);
    const float* strip = m.slot[src_pass & 1].data();
    kernels::scatter_rect(strip, b.px, m.dst_r0, m.dst_c0, m.edge.rows,
                          m.edge.cols);
    kernels::scatter_rect(strip + m.edge.elements(), b.py, m.dst_r0, m.dst_c0,
                          m.edge.rows, m.edge.cols);
  }
}

void ResidentTiledEngine::publish_strips(std::size_t ti, int g) {
  // Profitable cells only, hence exact.  Publishing on the final pass too
  // keeps the mailboxes coherent for a later run() on the resident state.
  TileBuffers& b = tiles_[ti];
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : out_edges_[ti]) {
    Mailbox& m = mail_[static_cast<std::size_t>(mi)];
    float* strip = m.slot[g & 1].data();
    kernels::gather_rect(b.px, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip);
    kernels::gather_rect(b.py, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip + m.edge.elements());
  }
}

void ResidentTiledEngine::mark_frozen(std::size_t ti, int g) {
  // A retired tile never publishes again; the marker redirects every later
  // gather to the parity-g slot holding its final strips (see gather_halos).
  // Writing the OTHER parity slot here instead would be a data race: a
  // neighbor concurrently executing the same pass g reads
  // slot[(g - 1) & 1] == slot[(g + 1) & 1], and the epoch protocol only
  // guarantees that reader our epoch >= g — which already holds while we
  // run pass g, so no release/acquire pair orders such a copy against its
  // gather.  The cross-parity mirror is deferred to run_adaptive()'s
  // epilogue, when every lane has joined and no reader can exist.
  frozen_pass_[ti].store(g, std::memory_order_release);
}

parallel::ThreadPool& ResidentTiledEngine::pool() const {
  return options_.pool != nullptr ? *options_.pool : parallel::default_pool();
}

void ResidentTiledEngine::load_duals(const DualField* initial) {
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const TileSpec& t = plan_.tiles[i];
    TileBuffers& b = tiles_[i];
    if (initial != nullptr) {
      b.px.resize(t.buf_rows, t.buf_cols);
      b.py.resize(t.buf_rows, t.buf_cols);
      kernels::copy_rect(initial->px, t.buf_row0, t.buf_col0, b.px, 0, 0,
                         t.buf_rows, t.buf_cols);
      kernels::copy_rect(initial->py, t.buf_row0, t.buf_col0, b.py, 0, 0,
                         t.buf_rows, t.buf_cols);
    } else {
      // resize() value-initializes: the zero dual start of Algorithm 1.
      b.px.resize(t.buf_rows, t.buf_cols);
      b.py.resize(t.buf_rows, t.buf_cols);
    }
  }
  // A full buffer load (halo included) makes the mailboxes irrelevant until
  // the next publish; restart the pass/parity clock.  Frozen-pass markers
  // must go with it: a completed adaptive run clears them in its epilogue,
  // but a run aborted by a body exception leaves them set, and a marker
  // surviving into the next solve would redirect gathers to a stale frozen
  // strip of the PREVIOUS stream — the engine-reuse leak a pooled fleet
  // engine must never serve session B from session A's retirement state.
  // (Empty during construction, where load_duals runs before the marker
  // vector exists.)
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);
  pass_count_ = 0;
}

void ResidentTiledEngine::run(int iterations) {
  if (iterations < 0)
    throw std::invalid_argument("ResidentTiledEngine::run: iterations < 0");
  if (iterations == 0) return;
  const telemetry::TraceSpan span("chambolle.resident.run");
  telemetry::flight_mark("resident.run", static_cast<double>(iterations));

  // A completed adaptive run mirrors frozen strips into both parities and
  // clears the markers in its epilogue, but an exception-aborted one leaves
  // them set — and a stale marker would redirect this run's gathers to a
  // long-dead frozen slot.  The fixed-budget schedule never freezes, so the
  // markers must be clear here; reset defensively (same as run_adaptive).
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  // Pass schedule: merge_iterations per pass, remainder last.  Every k is
  // <= plan_.halo, which is what keeps profitable cells' dependency cones
  // inside the buffer.
  std::vector<int> pass_iters;
  for (int remaining = iterations; remaining > 0;) {
    const int k = std::min(remaining, options_.merge_iterations);
    pass_iters.push_back(k);
    remaining -= k;
  }
  const int passes = static_cast<int>(pass_iters.size());
  const int base = pass_count_;

  const float inv_theta = 1.f / params_.theta;
  const float step = params_.step();
  const int lanes = pool().lanes_for(options_.num_threads);
  parallel::PerLane<Matrix<float>> scratch(lanes);

  const auto body = [&](int node, int epoch, int lane) {
    const std::size_t ti = static_cast<std::size_t>(node);
    const TileSpec& t = plan_.tiles[ti];
    TileBuffers& b = tiles_[ti];
    const int g = base + epoch;  // global pass index since the last reload
    if (g > 0) gather_halos(ti, g);
    const RegionGeometry geom{t.buf_row0, t.buf_col0, plan_.frame_rows,
                              plan_.frame_cols};
    {
      // Timed by hand (not ProfScope) because the per-tile attribution needs
      // the same measurement twice; no clock is read without a session.
      const bool prof = telemetry::profiler_active();
      const std::uint64_t k0 = prof ? telemetry::detail::trace_now_ns() : 0;
      kernels::iterate_region_fused(b.px, b.py, b.v, geom, inv_theta, step,
                                    pass_iters[static_cast<std::size_t>(epoch)],
                                    scratch[lane]);
      if (prof) {
        const double kernel_seconds =
            static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
        telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
        telemetry::profiler_add_tile(node, kernel_seconds);
      }
    }
    publish_strips(ti, g);
  };

  const parallel::EpochGraph::RunStats rs =
      graph_->run(passes, lanes, pool(), body);
  pass_count_ += passes;

  stats_.passes += passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
  stats_.halo_bytes_exchanged +=
      static_cast<std::uint64_t>(stats_.halo_elements_per_pass) *
      sizeof(float) * static_cast<std::uint64_t>(passes);
  for (const int k : pass_iters)
    stats_.element_iterations +=
        plan_.total_buffer_elements() * static_cast<std::size_t>(k);

  static telemetry::Counter& c_passes =
      telemetry::registry().counter("tiles.passes");
  static telemetry::Counter& c_halo =
      telemetry::registry().counter("tiles.halo_bytes");
  static telemetry::Counter& c_stall =
      telemetry::registry().counter("tiles.stall_micros");
  static telemetry::Counter& c_spins =
      telemetry::registry().counter("tiles.stall_spins");
  c_passes.add(static_cast<std::uint64_t>(passes));
  c_halo.add(static_cast<std::uint64_t>(stats_.halo_elements_per_pass) *
             sizeof(float) * static_cast<std::uint64_t>(passes));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  // Per-pass traffic of this engine vs. the reload engine's two full frames
  // in and out (4 floats/cell): the acceptance-criterion ratio.
  const double frame_reload_bytes =
      4.0 * sizeof(float) * static_cast<double>(plan_.frame_rows) *
      static_cast<double>(plan_.frame_cols);
  telemetry::registry()
      .gauge("tiles.halo_traffic_fraction")
      .set(frame_reload_bytes > 0.0
               ? static_cast<double>(stats_.halo_elements_per_pass) *
                     sizeof(float) / frame_reload_bytes
               : 0.0);
}

ResidentAdaptiveReport ResidentTiledEngine::run_adaptive(
    const ResidentAdaptiveOptions& options) {
  options.validate();
  const telemetry::TraceSpan span("chambolle.resident.run_adaptive");
  telemetry::flight_mark("resident.run_adaptive",
                         static_cast<double>(options.max_passes));

  if (options.final_pass_iterations > options_.merge_iterations)
    throw std::invalid_argument(
        "run_adaptive: final_pass_iterations exceeds the merge depth");

  const std::size_t n = tiles_.size();
  ResidentAdaptiveReport report;
  report.pass_cap = options.max_passes;
  report.tiles = n;
  report.tile_passes.assign(n, 0);
  report.tile_residuals.assign(n, 0.f);
  if (n == 0) return report;

  // Consecutive under-tolerance passes per tile.  Only the claiming lane for
  // a (tile, pass) touches a tile's entry, and claims of successive passes
  // are ordered by the epoch release/acquire chain, so plain ints are safe
  // even under work stealing.
  std::vector<int> streak(n, 0);

  // Markers are cleared by the previous adaptive run's epilogue; reset
  // defensively in case that run aborted via a body exception mid-flight.
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  const int base = pass_count_;
  const float inv_theta = 1.f / params_.theta;
  const float step = params_.step();
  const int lanes = pool().lanes_for(options_.num_threads);
  parallel::PerLane<Matrix<float>> scratch(lanes);

  const auto body = [&](int node, int epoch, int lane) -> bool {
    const std::size_t ti = static_cast<std::size_t>(node);
    const TileSpec& t = plan_.tiles[ti];
    TileBuffers& b = tiles_[ti];
    const int g = base + epoch;  // global pass index since the last reload
    if (g > 0) gather_halos(ti, g);
    const RegionGeometry geom{t.buf_row0, t.buf_col0, plan_.frame_rows,
                              plan_.frame_cols};
    // run()'s remainder schedule: the last pass of the cap may be a
    // truncated burst so the cap lands on an exact iteration budget.
    const int burst = (epoch == options.max_passes - 1 &&
                       options.final_pass_iterations > 0)
                          ? options.final_pass_iterations
                          : options_.merge_iterations;
    float residual = 0.f;
    {
      // Timed by hand (not ProfScope) because the per-tile attribution needs
      // the same measurement twice; no clock is read without a session.
      const bool prof = telemetry::profiler_active();
      const std::uint64_t k0 = prof ? telemetry::detail::trace_now_ns() : 0;
      kernels::iterate_region_fused(b.px, b.py, b.v, geom, inv_theta, step,
                                    burst, scratch[lane], &residual);
      if (prof) {
        const double kernel_seconds =
            static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
        telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
        telemetry::profiler_add_tile(node, kernel_seconds);
      }
    }
    publish_strips(ti, g);
    report.tile_passes[ti] = epoch + 1;
    report.tile_residuals[ti] = residual;
    // The residual is the buffer-wide max |dp| of the pass's LAST iteration:
    // the same single-iteration semantics as solve_adaptive, so the same
    // tolerance means the same thing regardless of merge depth.  Halo cells
    // are included — conservative: a tile only retires once its neighborhood
    // influence has also stilled.
    if (residual < options.tolerance) {
      if (++streak[ti] >= options.patience) {
        mark_frozen(ti, g);
        return true;  // retire: EpochGraph publishes the terminal epoch
      }
    } else {
      streak[ti] = 0;
    }
    return false;
  };

  const parallel::EpochGraph::RunStats rs =
      graph_->run_adaptive(options.max_passes, lanes, pool(), body);
  // Quiescent epilogue (every lane has joined): mirror each retired tile's
  // final strips into the other parity slot and clear its marker, so later
  // run()/run_adaptive() calls — whose gathers assume the live parity —
  // read the frozen state no matter how many passes each tile actually
  // executed.  This copy is exactly the write that would race a concurrent
  // gather during the run (see mark_frozen); here no reader exists.
  for (std::size_t i = 0; i < n; ++i) {
    const int f = frozen_pass_[i].load(std::memory_order_relaxed);
    if (f < 0) continue;
    for (const int mi : out_edges_[i]) {
      Mailbox& m = mail_[static_cast<std::size_t>(mi)];
      m.slot[(f + 1) & 1] = m.slot[f & 1];
    }
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  // The parity clock advances by the full cap.
  pass_count_ += options.max_passes;

  report.tiles_converged = rs.retired_nodes;
  report.total_tile_passes = rs.executed_passes;
  report.stolen_passes = rs.stolen_passes;

  stats_.passes += options.max_passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
  std::uint64_t halo_floats = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[i])
      out_elems += 2 * mail_[static_cast<std::size_t>(mi)].edge.elements();
    halo_floats += static_cast<std::uint64_t>(out_elems) *
                   static_cast<std::uint64_t>(report.tile_passes[i]);
    std::size_t iters = static_cast<std::size_t>(report.tile_passes[i]) *
                        static_cast<std::size_t>(options_.merge_iterations);
    // A tile that reached the cap's final pass ran the truncated burst there.
    if (options.final_pass_iterations > 0 &&
        report.tile_passes[i] == options.max_passes)
      iters -= static_cast<std::size_t>(options_.merge_iterations -
                                        options.final_pass_iterations);
    report.total_iterations += iters;
    stats_.element_iterations += plan_.tiles[i].buffer_elements() * iters;
  }
  stats_.halo_bytes_exchanged += halo_floats * sizeof(float);

  static telemetry::Counter& c_passes =
      telemetry::registry().counter("tiles.passes");
  static telemetry::Counter& c_halo =
      telemetry::registry().counter("tiles.halo_bytes");
  static telemetry::Counter& c_stall =
      telemetry::registry().counter("tiles.stall_micros");
  static telemetry::Counter& c_spins =
      telemetry::registry().counter("tiles.stall_spins");
  static telemetry::Counter& c_converged =
      telemetry::registry().counter("tiles.converged");
  static telemetry::Counter& c_stolen =
      telemetry::registry().counter("tiles.stolen_passes");
  static telemetry::Histogram& h_passes = telemetry::registry().histogram(
      "tiles.passes_used", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  c_passes.add(rs.executed_passes);
  c_halo.add(halo_floats * sizeof(float));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  c_converged.add(rs.retired_nodes);
  c_stolen.add(rs.stolen_passes);
  for (const int p : report.tile_passes) h_passes.observe(p);
  telemetry::registry()
      .gauge("tiles.adaptive_pass_savings")
      .set(report.pass_savings());
  return report;
}

namespace {

/// max |m| over the frame rectangle [r0, r0+rows) x [c0, c0+cols).
float max_abs_rect(const Matrix<float>& m, int r0, int c0, int rows,
                   int cols) {
  float best = 0.f;
  for (int r = 0; r < rows; ++r) {
    const float* p = &m(r0 + r, c0);
    for (int c = 0; c < cols; ++c) best = std::max(best, std::fabs(p[c]));
  }
  return best;
}

}  // namespace

ResidentMultilevelReport ResidentTiledEngine::run_multilevel(
    const ResidentMultilevelOptions& options) {
  options.validate();
  ResidentMultilevelReport report;

  // Disabled / degenerate configurations delegate verbatim — the bit-exact
  // contract of the fixed-budget path rests on this being the SAME code.
  const int levels = CoarseCorrector::resolve_levels(
      plan_.frame_rows, plan_.frame_cols, options.multilevel);
  const int period = options.multilevel.period;
  const int num_firings =
      period > 0 ? (options.adaptive.max_passes - 1) / period : 0;
  if (levels == 0 || num_firings == 0 || tiles_.empty()) {
    report.adaptive = run_adaptive(options.adaptive);
    return report;
  }

  const telemetry::TraceSpan span("chambolle.resident.run_multilevel");
  telemetry::flight_mark("resident.run_multilevel",
                         static_cast<double>(options.adaptive.max_passes));
  if (options.adaptive.final_pass_iterations > options_.merge_iterations)
    throw std::invalid_argument(
        "run_multilevel: final_pass_iterations exceeds the merge depth");

  const std::size_t n = tiles_.size();
  report.adaptive.pass_cap = options.adaptive.max_passes;
  report.adaptive.tiles = n;
  report.adaptive.tile_passes.assign(n, 0);
  report.adaptive.tile_residuals.assign(n, 0.f);
  report.coarse_levels = levels;

  std::vector<int> streak(n, 0);
  // Whether the tile executed the cap's final (possibly truncated) pass —
  // needed for exact iteration accounting, since a resurrected tile's pass
  // history is not contiguous.
  std::vector<char> ran_final(n, 0);
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  CoarseCorrector corrector;
  corrector.setup(frame_v_, params_, options.multilevel);
  DualField snap;
  const float unretire_tol =
      options.multilevel.unretire_factor * options.adaptive.tolerance;
  // The boundary whose rendezvous actually applied a correction (-1 = none):
  // written inside the exclusive window before the scheduler's releasing
  // rv_epoch store, read by boundary-pass bodies after its acquire — so a
  // plain int is race-free.  Bodies at a boundary whose firing was declined
  // by the progress gate must NOT fold in the (stale) delta buffers.
  int applied_boundary = -1;

  const int base = pass_count_;
  const float inv_theta = 1.f / params_.theta;
  const float step = params_.step();
  const int lanes = pool().lanes_for(options_.num_threads);
  parallel::PerLane<Matrix<float>> scratch(lanes);

  // Folds the last computed correction into one tile's WHOLE buffer
  // (profitable + halo): the delta is globally consistent, so overlapping
  // buffer cells of different tiles receive identical values.  No
  // projection here — the corrector's delta is corrected-feasible minus
  // snapshot, so a plain add lands on the projected state.
  const auto apply_delta = [&](std::size_t ti) {
    const TileSpec& t = plan_.tiles[ti];
    TileBuffers& b = tiles_[ti];
    const Matrix<float>& dx = corrector.delta_px();
    const Matrix<float>& dy = corrector.delta_py();
    for (int r = 0; r < t.buf_rows; ++r) {
      const float* sx = &dx(t.buf_row0 + r, t.buf_col0);
      const float* sy = &dy(t.buf_row0 + r, t.buf_col0);
      float* px = &b.px(r, 0);
      float* py = &b.py(r, 0);
      for (int c = 0; c < t.buf_cols; ++c) {
        px[c] += sx[c];
        py[c] += sy[c];
      }
    }
  };

  const auto body = [&](int node, int epoch, int lane) -> bool {
    const std::size_t ti = static_cast<std::size_t>(node);
    const TileSpec& t = plan_.tiles[ti];
    TileBuffers& b = tiles_[ti];
    const int g = base + epoch;
    if (g > 0) gather_halos(ti, g);
    // At a correction boundary, fold the rendezvous delta in AFTER the
    // gather: the gathered strips are pre-correction (live neighbors are
    // parked at the same boundary; a frozen neighbor's strips were re-
    // published from its pre-correction buffer by the rendezvous), so
    // adding the delta over the whole buffer lands every cell — profitable
    // and halo alike — on the corrected state exactly once.
    if (epoch > 0 && epoch == applied_boundary) apply_delta(ti);
    const RegionGeometry geom{t.buf_row0, t.buf_col0, plan_.frame_rows,
                              plan_.frame_cols};
    const int burst = (epoch == options.adaptive.max_passes - 1 &&
                       options.adaptive.final_pass_iterations > 0)
                          ? options.adaptive.final_pass_iterations
                          : options_.merge_iterations;
    float residual = 0.f;
    {
      const bool prof = telemetry::profiler_active();
      const std::uint64_t k0 = prof ? telemetry::detail::trace_now_ns() : 0;
      kernels::iterate_region_fused(b.px, b.py, b.v, geom, inv_theta, step,
                                    burst, scratch[lane], &residual);
      if (prof) {
        const double kernel_seconds =
            static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
        telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
        telemetry::profiler_add_tile(node, kernel_seconds);
      }
    }
    publish_strips(ti, g);
    ++report.adaptive.tile_passes[ti];
    report.adaptive.tile_residuals[ti] = residual;
    if (epoch == options.adaptive.max_passes - 1) ran_final[ti] = 1;
    if (residual < options.adaptive.tolerance) {
      if (++streak[ti] >= options.adaptive.patience) {
        mark_frozen(ti, g);
        return true;
      }
    } else {
      streak[ti] = 0;
    }
    return false;
  };

  // The rendezvous body: runs in the scheduler's exclusive window (every
  // live tile parked exactly at the boundary, every other tile retired), so
  // it may touch any tile buffer and any mailbox slot without racing a
  // reader — see EpochGraph::run_rendezvous.
  const auto rendezvous = [&](int /*firing*/,
                              parallel::EpochGraph::RendezvousControl& ctl) {
    const Stopwatch clock;
    const int boundary = ctl.boundary();  // epoch of the next fine pass
    const int gb = base + boundary;       // its global pass index (parity)
    // Step 0: re-sync each still-frozen tile's published strips from its
    // buffer (parity = its frozen pass, where its readers look).  Earlier
    // corrections were absorbed into the buffer but could not be published
    // mid-run; this bounds a frozen tile's publish drift to at most ONE
    // correction, never an accumulation.
    for (std::size_t i = 0; i < n; ++i) {
      const int f = frozen_pass_[i].load(std::memory_order_relaxed);
      if (f >= 0) publish_strips(i, f);
    }
    // Step 1+2: assemble the fine dual state and run the gated V-cycle.
    // The gate's residual is the max over tiles of the last pass's
    // buffer-wide |dp| — every live tile is parked at the boundary, so each
    // entry is that tile's pass (boundary - 1) value; frozen tiles
    // contribute their (sub-tolerance) retirement-time residual.
    float churn = 0.f;
    for (std::size_t i = 0; i < n; ++i)
      churn = std::max(churn, report.adaptive.tile_residuals[i]);
    snapshot(snap);
    const CoarseCorrector::Result res =
        corrector.compute(snap.px, snap.py, churn);
    if (!res.applied) {
      // Baseline call, gate declined, or the energy safeguard vetoed the
      // cycle's output: no delta exists, so boundary-pass bodies must not
      // apply one and frozen tiles stay untouched.
      applied_boundary = -1;
      ++report.coarse_gated;
      report.rendezvous_seconds += clock.seconds();
      return;
    }
    applied_boundary = boundary;
    ++report.coarse_solves;
    report.last_correction_max = res.max_delta;
    // Step 3: retired tiles don't run a boundary pass, so they take the
    // correction here — in place if it is below the un-retirement bar,
    // by resurrection otherwise.
    for (std::size_t i = 0; i < n; ++i) {
      const int f = frozen_pass_[i].load(std::memory_order_relaxed);
      if (f < 0) continue;
      const TileSpec& t = plan_.tiles[i];
      const float local = std::max(
          max_abs_rect(corrector.delta_px(), t.prof_row0, t.prof_col0,
                       t.prof_rows, t.prof_cols),
          max_abs_rect(corrector.delta_py(), t.prof_row0, t.prof_col0,
                       t.prof_rows, t.prof_cols));
      if (local > unretire_tol) {
        // Resurrect: publish the PRE-correction strips at the live parity
        // the boundary-pass gathers read, clear the frozen marker, and
        // rewind the node.  The tile's own boundary pass then applies the
        // delta exactly like every live tile — no special casing, no
        // double application.
        publish_strips(i, gb - 1);
        frozen_pass_[i].store(-1, std::memory_order_relaxed);
        streak[i] = 0;
        ctl.resurrect(static_cast<int>(i));
        ++report.tiles_unretired;
      } else {
        // Stay frozen: fold the correction into the frozen buffer.  Its
        // published strips intentionally stay pre-correction until the next
        // step-0 re-sync (or the epilogue): readers between boundaries see
        // a drift of at most this one delta, itself bounded by
        // unretire_tol — the same deviation class the adaptive tolerance
        // mode already admits.
        apply_delta(i);
      }
    }
    report.rendezvous_seconds += clock.seconds();
  };

  const parallel::EpochGraph::RunStats rs = graph_->run_rendezvous(
      options.adaptive.max_passes, period, lanes, pool(), body, rendezvous);

  // Quiescent epilogue: frozen buffers may hold corrections absorbed after
  // their last publish, so republish from the buffer into BOTH parity slots
  // (later run()/run_adaptive() gathers assume the live parity) and clear
  // the markers.
  std::size_t converged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int f = frozen_pass_[i].load(std::memory_order_relaxed);
    if (f < 0) continue;
    ++converged;
    publish_strips(i, 0);
    publish_strips(i, 1);
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  pass_count_ += options.adaptive.max_passes;

  report.adaptive.tiles_converged = converged;
  report.adaptive.total_tile_passes = rs.executed_passes;
  report.adaptive.stolen_passes = rs.stolen_passes;

  stats_.passes += options.adaptive.max_passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
  std::uint64_t halo_floats = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[i])
      out_elems += 2 * mail_[static_cast<std::size_t>(mi)].edge.elements();
    halo_floats +=
        static_cast<std::uint64_t>(out_elems) *
        static_cast<std::uint64_t>(report.adaptive.tile_passes[i]);
    std::size_t iters =
        static_cast<std::size_t>(report.adaptive.tile_passes[i]) *
        static_cast<std::size_t>(options_.merge_iterations);
    if (options.adaptive.final_pass_iterations > 0 && ran_final[i])
      iters -= static_cast<std::size_t>(options_.merge_iterations -
                                        options.adaptive.final_pass_iterations);
    report.adaptive.total_iterations += iters;
    stats_.element_iterations += plan_.tiles[i].buffer_elements() * iters;
  }
  stats_.halo_bytes_exchanged += halo_floats * sizeof(float);

  static telemetry::Counter& c_passes =
      telemetry::registry().counter("tiles.passes");
  static telemetry::Counter& c_halo =
      telemetry::registry().counter("tiles.halo_bytes");
  static telemetry::Counter& c_stall =
      telemetry::registry().counter("tiles.stall_micros");
  static telemetry::Counter& c_spins =
      telemetry::registry().counter("tiles.stall_spins");
  static telemetry::Counter& c_converged =
      telemetry::registry().counter("tiles.converged");
  static telemetry::Counter& c_stolen =
      telemetry::registry().counter("tiles.stolen_passes");
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.coarse_solves");
  static telemetry::Counter& c_gated =
      telemetry::registry().counter("tiles.coarse_gated");
  static telemetry::Counter& c_unretired =
      telemetry::registry().counter("tiles.coarse_unretired");
  static telemetry::Counter& c_rv_micros =
      telemetry::registry().counter("tiles.coarse_rendezvous_micros");
  static telemetry::Histogram& h_passes = telemetry::registry().histogram(
      "tiles.passes_used", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  c_passes.add(rs.executed_passes);
  c_halo.add(halo_floats * sizeof(float));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  c_converged.add(converged);
  c_stolen.add(rs.stolen_passes);
  c_solves.add(report.coarse_solves);
  c_gated.add(report.coarse_gated);
  c_unretired.add(report.tiles_unretired);
  c_rv_micros.add(static_cast<std::uint64_t>(report.rendezvous_seconds * 1e6));
  for (const int p : report.adaptive.tile_passes) h_passes.observe(p);
  telemetry::registry()
      .gauge("tiles.coarse_correction_norm")
      .set(static_cast<double>(report.last_correction_max));
  telemetry::registry()
      .gauge("tiles.adaptive_pass_savings")
      .set(report.adaptive.pass_savings());
  return report;
}

void ResidentTiledEngine::snapshot(DualField& out) const {
  // Every cell is some tile's profitable cell, so the copies overwrite the
  // whole frame: reshape without clearing when the shape already fits.
  if (out.px.rows() != plan_.frame_rows || out.px.cols() != plan_.frame_cols)
    out.px.resize(plan_.frame_rows, plan_.frame_cols);
  if (out.py.rows() != plan_.frame_rows || out.py.cols() != plan_.frame_cols)
    out.py.resize(plan_.frame_rows, plan_.frame_cols);
  // Profitable rectangles partition the frame: each row chunk writes back
  // the part of every tile that falls in its rows.
  parallel::parallel_rows(
      pool(), plan_.frame_rows, plan_.frame_cols,
      pool().lanes_for(options_.num_threads), parallel::kStreamChunkCells,
      [&](int begin, int end) {
        for (std::size_t i = 0; i < tiles_.size(); ++i) {
          const TileSpec& t = plan_.tiles[i];
          const int r0 = std::max(begin, t.prof_row0);
          const int r1 = std::min(end, t.prof_row0 + t.prof_rows);
          if (r0 >= r1) continue;
          const TileBuffers& b = tiles_[i];
          kernels::copy_rect(b.px, r0 - t.buf_row0, t.prof_col0 - t.buf_col0,
                             out.px, r0, t.prof_col0, r1 - r0, t.prof_cols);
          kernels::copy_rect(b.py, r0 - t.buf_row0, t.prof_col0 - t.buf_col0,
                             out.py, r0, t.prof_col0, r1 - r0, t.prof_cols);
        }
      });
}

void ResidentTiledEngine::reset_v(const Matrix<float>& v,
                                  const DualField* initial) {
  if (!v.same_shape(frame_v_))
    throw std::invalid_argument("ResidentTiledEngine::reset_v: shape mismatch");
  frame_v_ = v;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const TileSpec& t = plan_.tiles[i];
    kernels::copy_rect(v, t.buf_row0, t.buf_col0, tiles_[i].v, 0, 0,
                       t.buf_rows, t.buf_cols);
  }
  if (initial != nullptr) {
    if (!initial->px.same_shape(v) || !initial->py.same_shape(v))
      throw std::invalid_argument(
          "ResidentTiledEngine::reset_v: initial dual shape mismatch");
    load_duals(initial);
  }
  // initial == nullptr: duals stay resident (warm start); the mailbox
  // parity clock keeps running so the next run() gathers valid halos.
}

void ResidentTiledEngine::recover_into(const DualField& p,
                                       Matrix<float>& u) const {
  const RegionGeometry geom =
      RegionGeometry::full_frame(plan_.frame_rows, plan_.frame_cols);
  parallel::parallel_rows(
      pool(), plan_.frame_rows, plan_.frame_cols,
      pool().lanes_for(options_.num_threads), parallel::kStreamChunkCells,
      [&](int begin, int end) {
        kernels::recover_u_rows(frame_v_, p.px, p.py, geom, params_.theta, u,
                                begin, end);
      });
}

ChambolleResult ResidentTiledEngine::result() const {
  ChambolleResult out;
  snapshot(out.p);
  out.u.resize(plan_.frame_rows, plan_.frame_cols);
  recover_into(out.p, out.u);
  return out;
}

void ResidentTiledEngine::result_into(Matrix<float>& u,
                                      DualField& duals) const {
  snapshot(duals);
  if (!u.same_shape(frame_v_)) u.resize(plan_.frame_rows, plan_.frame_cols);
  recover_into(duals, u);
}

ChambolleResult solve_resident(const Matrix<float>& v,
                               const ChambolleParams& params,
                               const TiledSolverOptions& options,
                               ResidentTiledStats* stats,
                               const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident");
  ResidentTiledEngine engine(v, params, options, initial);
  engine.run(params.iterations);
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.resident_solves");
  c_solves.add(1);
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

ChambolleResult solve_resident_adaptive(const Matrix<float>& v,
                                        const ChambolleParams& params,
                                        const TiledSolverOptions& options,
                                        const ResidentAdaptiveOptions& adaptive,
                                        ResidentAdaptiveReport* report,
                                        ResidentTiledStats* stats,
                                        const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident_adaptive");
  // Default the cap to the fixed budget: the adaptive solve never does more
  // work than solve_resident() with the same params.
  const ResidentAdaptiveOptions opts =
      adaptive.resolved(params.iterations, options.merge_iterations);
  ResidentTiledEngine engine(v, params, options, initial);
  const ResidentAdaptiveReport rep = engine.run_adaptive(opts);
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.adaptive_solves");
  c_solves.add(1);
  if (report != nullptr) *report = rep;
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

ChambolleResult solve_resident_multilevel(
    const Matrix<float>& v, const ChambolleParams& params,
    const TiledSolverOptions& options,
    const ResidentMultilevelOptions& multilevel,
    ResidentMultilevelReport* report, ResidentTiledStats* stats,
    const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident_multilevel");
  ResidentMultilevelOptions opts = multilevel;
  opts.adaptive =
      multilevel.adaptive.resolved(params.iterations, options.merge_iterations);
  ResidentTiledEngine engine(v, params, options, initial);
  const ResidentMultilevelReport rep = engine.run_multilevel(opts);
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.multilevel_solves");
  c_solves.add(1);
  if (report != nullptr) *report = rep;
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

}  // namespace chambolle
