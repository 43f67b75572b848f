#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
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

/// One node's record over an adaptive or multilevel run.  Only the lane that
/// claimed the node's current pass touches it, and claims of successive
/// passes are ordered by the epoch release/acquire chain, so plain fields
/// are safe even under work stealing; the rendezvous reads them in its
/// exclusive window.
struct ResidentTiledEngine::NodeRun {
  int passes = 0;           ///< passes executed
  int streak = 0;           ///< consecutive under-tolerance passes
  int stolen = 0;           ///< passes run off the preferred lane
  float residual = 0.f;     ///< the last pass's residual
  bool ran_final = false;   ///< executed the cap's final (truncated) pass
};

namespace {

// Every cell is some tile's profitable cell, so the write-back and the
// recovery overwrite their whole output: reshape without clearing when the
// shape already fits.
void shape(Matrix<float>& m, int rows, int cols) {
  if (m.rows() != rows || m.cols() != cols) m.resize(rows, cols);
}

/// Copies tile `s`'s profitable window of its buffer `buf` into the frame.
void copy_profitable(const Matrix<float>& buf, const TileSpec& s,
                     Matrix<float>& frame) {
  kernels::copy_rect(buf, s.prof_row0 - s.buf_row0, s.prof_col0 - s.buf_col0,
                     frame, s.prof_row0, s.prof_col0, s.prof_rows, s.prof_cols);
}

/// The one-element spans of the single-field overloads.
ResidentTiledEngine::DualFields one_or_none(const DualField* const& initial) {
  return initial != nullptr ? ResidentTiledEngine::DualFields(&initial, 1)
                            : ResidentTiledEngine::DualFields();
}

}  // namespace

ResidentTiledEngine::ResidentTiledEngine(Fields inputs,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         DualFields initial)
    : params_(params), options_(options) {
  params_.validate();
  options_.validate();
  if (inputs.empty() || inputs[0] == nullptr)
    throw std::invalid_argument("ResidentTiledEngine: no input field");
  plan_ = make_tiling(inputs[0]->rows(), inputs[0]->cols(),
                      options_.tile_rows, options_.tile_cols,
                      options_.merge_iterations);
  fields_ = static_cast<int>(inputs.size());
  check_inputs(inputs, initial, "ResidentTiledEngine");

  const int k = fields_;
  const int n = tiles_per_field();
  // resize() value-initializes: the zero dual start of Algorithm 1, unless
  // load_inputs() copies `initial` over it.
  tiles_.resize(static_cast<std::size_t>(n * k));
  for (int f = 0; f < k; ++f) {
    for (int t = 0; t < n; ++t) {
      const TileSpec& s = plan_.tiles[t];
      TileBuffers& b = tiles_[node_of(f, t)];
      b.v.resize(s.buf_rows, s.buf_cols);
      b.px.resize(s.buf_rows, s.buf_cols);
      b.py.resize(s.buf_rows, s.buf_cols);
    }
  }
  load_inputs(inputs, initial);

  const std::vector<HaloEdge> edges = make_halo_edges(plan_);
  edges_per_field_ = edges.size();
  in_edges_.assign(plan_.tiles.size(), {});
  out_edges_.assign(plan_.tiles.size(), {});
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out_edges_[edges[i].src].push_back(static_cast<int>(i));
    in_edges_[edges[i].dst].push_back(static_cast<int>(i));
  }
  mail_.reserve(edges.size() * static_cast<std::size_t>(k));
  for (int f = 0; f < k; ++f) {
    for (const HaloEdge& e : edges) {
      Mailbox m;
      m.edge = e;
      const TileSpec& s = plan_.tiles[e.src];
      const TileSpec& d = plan_.tiles[e.dst];
      m.src_r0 = e.row0 - s.buf_row0;
      m.src_c0 = e.col0 - s.buf_col0;
      m.dst_r0 = e.row0 - d.buf_row0;
      m.dst_c0 = e.col0 - d.buf_col0;
      m.slot[0].resize(2 * e.elements());
      m.slot[1].resize(2 * e.elements());
      mail_.push_back(std::move(m));
    }
  }
  // The halo-edge relation is symmetric (tile_test asserts it), so the
  // published adjacency doubles as the wait set: a tile waits exactly on
  // the tiles it exchanges strips with.  Fields exchange nothing, so the
  // graph is K disjoint copies of the tile graph.
  std::vector<std::vector<int>> adjacency(tiles_.size());
  for (int f = 0; f < k; ++f)
    for (const HaloEdge& e : edges)
      adjacency[node_of(f, e.src)].push_back(node_of(f, e.dst));
  graph_ = std::make_unique<parallel::EpochGraph>(std::move(adjacency));

  frozen_pass_ = std::vector<std::atomic<int>>(tiles_.size());
  clear_frozen();

  stats_.tiles = tiles_.size();
  stats_.halo_elements_per_pass =
      halo_exchange_elements(edges) * static_cast<std::size_t>(k);
  static telemetry::Counter& c_builds =
      telemetry::registry().counter("tiles.engine_builds");
  c_builds.add(1);
}

ResidentTiledEngine::ResidentTiledEngine(const Matrix<float>& v,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         const DualField* initial)
    : ResidentTiledEngine(Fields(std::array<const Matrix<float>*, 1>{&v}),
                          params, options, one_or_none(initial)) {}

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

void ResidentTiledEngine::gather_halos(int node, int g) {
  // The incoming rectangles partition the halo exactly, so after this loop
  // the whole buffer holds the neighbors' post-pass-(g-1) state.
  TileBuffers& b = tiles_[node];
  const int f = field_of(node);
  const Mailbox* mail = mailboxes(f);
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : in_edges_[tile_of(node)]) {
    const Mailbox& m = mail[mi];
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
    const int frozen =
        frozen_pass_[node_of(f, m.edge.src)].load(std::memory_order_acquire);
    if (frozen >= 0) src_pass = std::min(src_pass, frozen);
    const float* strip = m.slot[src_pass & 1].data();
    kernels::scatter_rect(strip, b.px, m.dst_r0, m.dst_c0, m.edge.rows,
                          m.edge.cols);
    kernels::scatter_rect(strip + m.edge.elements(), b.py, m.dst_r0, m.dst_c0,
                          m.edge.rows, m.edge.cols);
  }
}

void ResidentTiledEngine::publish_strips(int node, int g) {
  // Profitable cells only, hence exact.  Publishing on the final pass too
  // keeps the mailboxes coherent for a later run() on the resident state.
  const TileBuffers& b = tiles_[node];
  Mailbox* mail = mailboxes(field_of(node));
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : out_edges_[tile_of(node)]) {
    Mailbox& m = mail[mi];
    float* strip = m.slot[g & 1].data();
    kernels::gather_rect(b.px, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip);
    kernels::gather_rect(b.py, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip + m.edge.elements());
  }
}

void ResidentTiledEngine::kernel_pass(int node, int iterations,
                                      Matrix<float>& scratch, float* residual) {
  const int t = tile_of(node);
  if (fault_hook_) fault_hook_(field_of(node), t);
  const TileSpec& s = plan_.tiles[t];
  TileBuffers& b = tiles_[node];
  const RegionGeometry geom{s.buf_row0, s.buf_col0, plan_.frame_rows,
                            plan_.frame_cols};
  // Timed by hand (not ProfScope) because the per-tile attribution needs
  // the same measurement twice; no clock is read without a session.  Tiles
  // of every field share their tile's slot.
  const bool prof = telemetry::profiler_active();
  const std::uint64_t k0 = prof ? telemetry::detail::trace_now_ns() : 0;
  kernels::iterate_region_fused(b.px, b.py, b.v, geom, 1.f / params_.theta,
                                params_.step(), iterations, scratch, residual);
  if (prof) {
    const double kernel_seconds =
        static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
    telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
    telemetry::profiler_add_tile(t, kernel_seconds);
  }
}

void ResidentTiledEngine::mark_frozen(int node, int g) {
  // A retired tile never publishes again; the marker redirects every later
  // gather to the parity-g slot holding its final strips (see gather_halos).
  // Writing the OTHER parity slot here instead would be a data race: a
  // neighbor concurrently executing the same pass g reads
  // slot[(g - 1) & 1] == slot[(g + 1) & 1], and the epoch protocol only
  // guarantees that reader our epoch >= g — which already holds while we
  // run pass g, so no release/acquire pair orders such a copy against its
  // gather.  The cross-parity mirror is deferred to run_adaptive()'s
  // epilogue, when every lane has joined and no reader can exist.
  frozen_pass_[node].store(g, std::memory_order_release);
}

ResidentTiledEngine::Mailbox* ResidentTiledEngine::mailboxes(int field) {
  // data() + offset, not &mail_[...]: a one-tile plan has no mailboxes.
  return mail_.data() + field * edges_per_field_;
}

parallel::ThreadPool& ResidentTiledEngine::pool() const {
  return options_.pool != nullptr ? *options_.pool : parallel::default_pool();
}

int ResidentTiledEngine::lanes() const {
  return pool().lanes_for(options_.num_threads);
}

void ResidentTiledEngine::check_inputs(Fields inputs, DualFields initial,
                                       const char* who) const {
  const auto shape_error = [who](const char* what) {
    return std::invalid_argument(std::string(who) + ": " + what);
  };
  if (inputs.size() != static_cast<std::size_t>(fields_))
    throw shape_error("field count mismatch");
  for (const Matrix<float>* v : inputs)
    if (v == nullptr || v->rows() != plan_.frame_rows ||
        v->cols() != plan_.frame_cols)
      throw shape_error("shape mismatch");
  if (initial.empty()) return;
  if (initial.size() != static_cast<std::size_t>(fields_))
    throw shape_error("initial dual count mismatch");
  for (const DualField* d : initial)
    if (d == nullptr || !d->px.same_shape(*inputs[0]) ||
        !d->py.same_shape(*inputs[0]))
      throw shape_error("initial dual shape mismatch");
}

template <typename Fn>
void ResidentTiledEngine::for_each_node(int count, Fn&& fn) const {
  // parallel_rows with one "row" per node, costed at a tile's share of the
  // frame: the streaming chunk floor then keeps every level below ~256 x 256
  // inline, as for the row-chunked passes of the outer loop.
  const int cells =
      std::max(1, plan_.frame_rows * plan_.frame_cols / tiles_per_field());
  parallel::parallel_rows(pool(), count, cells, lanes(),
                          parallel::kStreamChunkCells,
                          [&fn](int begin, int end) {
                            for (int i = begin; i < end; ++i) fn(i);
                          });
}

void ResidentTiledEngine::load_inputs(Fields inputs, DualFields initial) {
  for_each_node(nodes(), [&](int node) {
    const TileSpec& s = plan_.tiles[tile_of(node)];
    TileBuffers& b = tiles_[node];
    const int f = field_of(node);
    kernels::copy_rect(*inputs[f], s.buf_row0, s.buf_col0, b.v, 0, 0,
                       s.buf_rows, s.buf_cols);
    if (initial.empty()) return;
    kernels::copy_rect(initial[f]->px, s.buf_row0, s.buf_col0, b.px, 0, 0,
                       s.buf_rows, s.buf_cols);
    kernels::copy_rect(initial[f]->py, s.buf_row0, s.buf_col0, b.py, 0, 0,
                       s.buf_rows, s.buf_cols);
  });
}

void ResidentTiledEngine::clear_frozen() {
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);
}

void ResidentTiledEngine::restart_clock() {
  // A full buffer load (halo included) makes the mailboxes irrelevant until
  // the next publish; restart the pass/parity clock.  Frozen-pass markers
  // must go with it: a completed adaptive run clears them in its epilogue,
  // but a run aborted by a body exception leaves them set, and a marker
  // surviving into the next solve would redirect gathers to a stale frozen
  // strip of the PREVIOUS stream — the engine-reuse leak a pooled fleet
  // engine must never serve session B from session A's retirement state.
  clear_frozen();
  pass_count_ = 0;
}

void ResidentTiledEngine::reset_duals() {
  for_each_node(nodes(), [&](int node) {
    TileBuffers& b = tiles_[node];
    b.px.fill(0.f);
    b.py.fill(0.f);
  });
  restart_clock();
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
  clear_frozen();

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
  const int lane_count = lanes();
  parallel::PerLane<Matrix<float>> scratch(lane_count);

  const auto body = [&](int node, int epoch, int lane) {
    const int g = base + epoch;  // global pass index since the last reload
    if (g > 0) gather_halos(node, g);
    kernel_pass(node, pass_iters[epoch], scratch[lane], nullptr);
    publish_strips(node, g);
  };

  const parallel::EpochGraph::RunStats rs =
      graph_->run(passes, lane_count, pool(), body);
  pass_count_ += passes;

  const std::uint64_t halo_bytes =
      static_cast<std::uint64_t>(stats_.halo_elements_per_pass) *
      sizeof(float) * static_cast<std::uint64_t>(passes);
  stats_.passes += passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
  stats_.halo_bytes_exchanged += halo_bytes;
  for (const int k : pass_iters)
    stats_.element_iterations += plan_.total_buffer_elements() *
                                 static_cast<std::size_t>(fields()) *
                                 static_cast<std::size_t>(k);

  static telemetry::Counter& c_passes =
      telemetry::registry().counter("tiles.passes");
  static telemetry::Counter& c_halo =
      telemetry::registry().counter("tiles.halo_bytes");
  static telemetry::Counter& c_stall =
      telemetry::registry().counter("tiles.stall_micros");
  static telemetry::Counter& c_spins =
      telemetry::registry().counter("tiles.stall_spins");
  // Passes count per field: one pass of a K-field engine is K field passes.
  c_passes.add(static_cast<std::uint64_t>(passes) *
               static_cast<std::uint64_t>(fields()));
  c_halo.add(halo_bytes);
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  // Per-pass traffic of this engine vs. the reload engine's two full frames
  // in and out (4 floats/cell) per field: the acceptance-criterion ratio.
  const double frame_reload_bytes =
      4.0 * sizeof(float) * static_cast<double>(plan_.frame_rows) *
      static_cast<double>(plan_.frame_cols) * static_cast<double>(fields());
  telemetry::registry()
      .gauge("tiles.halo_traffic_fraction")
      .set(frame_reload_bytes > 0.0
               ? static_cast<double>(stats_.halo_elements_per_pass) *
                     sizeof(float) / frame_reload_bytes
               : 0.0);
}

bool ResidentTiledEngine::adaptive_pass(int node, int epoch, int g, int lane,
                                        const ResidentAdaptiveOptions& options,
                                        Matrix<float>& scratch, NodeRun& run) {
  // run()'s remainder schedule: the last pass of the cap may be a truncated
  // burst so the cap lands on an exact iteration budget.
  const bool final_pass = epoch == options.max_passes - 1;
  const int burst = final_pass && options.final_pass_iterations > 0
                        ? options.final_pass_iterations
                        : options_.merge_iterations;
  float residual = 0.f;
  kernel_pass(node, burst, scratch, &residual);
  publish_strips(node, g);
  ++run.passes;
  run.residual = residual;
  if (final_pass) run.ran_final = true;
  if (graph_->owner(node, lanes()) != lane) ++run.stolen;
  // The residual is the buffer-wide max |dp| of the pass's LAST iteration:
  // the same single-iteration semantics as solve_adaptive, so the same
  // tolerance means the same thing regardless of merge depth.  Halo cells
  // are included — conservative: a tile only retires once its neighborhood
  // influence has also stilled.
  if (residual < options.tolerance) {
    if (++run.streak >= options.patience) {
      mark_frozen(node, g);
      return true;  // retire: EpochGraph publishes the terminal epoch
    }
  } else {
    run.streak = 0;
  }
  return false;
}

std::vector<ResidentAdaptiveReport> ResidentTiledEngine::account_adaptive(
    const std::vector<NodeRun>& runs, const ResidentAdaptiveOptions& options,
    const parallel::EpochGraph::RunStats& rs) {
  const int n = tiles_per_field();
  std::vector<ResidentAdaptiveReport> reports(fields_);
  for (ResidentAdaptiveReport& r : reports) {
    r.pass_cap = options.max_passes;
    r.tiles = n;
    r.tile_passes.assign(n, 0);
    r.tile_residuals.assign(n, 0.f);
  }
  std::uint64_t halo_floats = 0, converged = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const int node = static_cast<int>(i);
    const NodeRun& run = runs[i];
    const int t = tile_of(node);
    ResidentAdaptiveReport& r = reports[field_of(node)];
    r.tile_passes[t] = run.passes;
    r.tile_residuals[t] = run.residual;
    r.total_tile_passes += static_cast<std::size_t>(run.passes);
    r.stolen_passes += static_cast<std::uint64_t>(run.stolen);
    // Retired tiles still carry their marker: the epilogues clear them after
    // this accounting.
    if (frozen_pass_[i].load(std::memory_order_relaxed) >= 0) {
      ++r.tiles_converged;
      ++converged;
    }
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[t])
      out_elems += 2 * mail_[mi].edge.elements();
    halo_floats += static_cast<std::uint64_t>(out_elems) *
                   static_cast<std::uint64_t>(run.passes);
    std::size_t iters = static_cast<std::size_t>(run.passes) *
                        static_cast<std::size_t>(options_.merge_iterations);
    // A tile that executed the cap's final pass ran the truncated burst
    // there (a resurrected tile's pass history is not contiguous, so this
    // is tracked, not inferred from the pass count).
    if (options.final_pass_iterations > 0 && run.ran_final)
      iters -= static_cast<std::size_t>(options_.merge_iterations -
                                        options.final_pass_iterations);
    r.total_iterations += iters;
    stats_.element_iterations += plan_.tiles[t].buffer_elements() * iters;
  }
  stats_.passes += options.max_passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
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
  c_converged.add(converged);
  c_stolen.add(rs.stolen_passes);
  for (const NodeRun& run : runs) h_passes.observe(run.passes);
  const double fixed = static_cast<double>(runs.size()) *
                       static_cast<double>(options.max_passes);
  telemetry::registry()
      .gauge("tiles.adaptive_pass_savings")
      .set(fixed > 0.0
               ? 1.0 - static_cast<double>(rs.executed_passes) / fixed
               : 0.0);
  return reports;
}

std::vector<ResidentAdaptiveReport> ResidentTiledEngine::run_adaptive(
    const ResidentAdaptiveOptions& options) {
  options.validate();
  const telemetry::TraceSpan span("chambolle.resident.run_adaptive");
  telemetry::flight_mark("resident.run_adaptive",
                         static_cast<double>(options.max_passes));

  if (options.final_pass_iterations > options_.merge_iterations)
    throw std::invalid_argument(
        "run_adaptive: final_pass_iterations exceeds the merge depth");

  std::vector<NodeRun> runs(tiles_.size());

  // Markers are cleared by the previous adaptive run's epilogue; reset
  // defensively in case that run aborted via a body exception mid-flight.
  clear_frozen();

  const int base = pass_count_;
  const int lane_count = lanes();
  parallel::PerLane<Matrix<float>> scratch(lane_count);

  const auto body = [&](int node, int epoch, int lane) -> bool {
    const int g = base + epoch;  // global pass index since the last reload
    if (g > 0) gather_halos(node, g);
    return adaptive_pass(node, epoch, g, lane, options, scratch[lane],
                         runs[node]);
  };

  const parallel::EpochGraph::RunStats rs =
      graph_->run_adaptive(options.max_passes, lane_count, pool(), body);
  std::vector<ResidentAdaptiveReport> reports =
      account_adaptive(runs, options, rs);
  // Quiescent epilogue (every lane has joined): mirror each retired tile's
  // final strips into the other parity slot and clear its marker, so later
  // run()/run_adaptive() calls — whose gathers assume the live parity —
  // read the frozen state no matter how many passes each tile actually
  // executed.  This copy is exactly the write that would race a concurrent
  // gather during the run (see mark_frozen); here no reader exists.
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const int f = frozen_pass_[i].load(std::memory_order_relaxed);
    if (f < 0) continue;
    const int node = static_cast<int>(i);
    Mailbox* mail = mailboxes(field_of(node));
    for (const int mi : out_edges_[tile_of(node)])
      mail[mi].slot[(f + 1) & 1] = mail[mi].slot[f & 1];
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  // The parity clock advances by the full cap.
  pass_count_ += options.max_passes;
  return reports;
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

std::vector<ResidentMultilevelReport> ResidentTiledEngine::run_multilevel(
    const ResidentMultilevelOptions& options) {
  options.validate();
  const int k = fields();
  std::vector<ResidentMultilevelReport> reports(fields_);

  // Disabled / degenerate configurations delegate verbatim — the bit-exact
  // contract of the fixed-budget path rests on this being the SAME code.
  const int levels = CoarseCorrector::resolve_levels(
      plan_.frame_rows, plan_.frame_cols, options.multilevel);
  const int period = options.multilevel.period;
  const int num_firings =
      period > 0 ? (options.adaptive.max_passes - 1) / period : 0;
  if (levels == 0 || num_firings == 0 || tiles_.empty()) {
    std::vector<ResidentAdaptiveReport> adaptive =
        run_adaptive(options.adaptive);
    for (int f = 0; f < k; ++f) reports[f].adaptive = std::move(adaptive[f]);
    return reports;
  }

  const telemetry::TraceSpan span("chambolle.resident.run_multilevel");
  telemetry::flight_mark("resident.run_multilevel",
                         static_cast<double>(options.adaptive.max_passes));
  if (options.adaptive.final_pass_iterations > options_.merge_iterations)
    throw std::invalid_argument(
        "run_multilevel: final_pass_iterations exceeds the merge depth");

  const int n = tiles_per_field();
  std::vector<NodeRun> runs(tiles_.size());
  clear_frozen();

  // Every field is corrected on its own: its own corrector, progress gate
  // and end rule, so its bits equal a single-field engine's.
  struct FieldCorrection {
    CoarseCorrector corrector;
    // The boundary whose rendezvous actually applied a correction (-1 =
    // none): written inside the exclusive window before the scheduler's
    // releasing rv_epoch store, read by boundary-pass bodies after its
    // acquire — so a plain int is race-free.  Bodies at a boundary whose
    // firing was declined by the progress gate must NOT fold in the (stale)
    // delta buffers.
    int applied_boundary = -1;
    // The field's end rule fired: every tile finished and its last firing
    // revived none, which is where a single-field run stops firing.
    bool done = false;
  };
  std::vector<FieldCorrection> fc(fields_);
  DualField snap;
  {
    // The correctors keep their own copy of v; assemble each field's from
    // the tiles' profitable windows.
    Matrix<float> v(plan_.frame_rows, plan_.frame_cols);
    for (int f = 0; f < k; ++f) {
      for (int t = 0; t < n; ++t)
        copy_profitable(tiles_[node_of(f, t)].v, plan_.tiles[t], v);
      reports[f].coarse_levels = levels;
      fc[f].corrector.setup(v, params_, options.multilevel);
    }
  }
  const float unretire_tol =
      options.multilevel.unretire_factor * options.adaptive.tolerance;

  const int base = pass_count_;
  const int lane_count = lanes();
  parallel::PerLane<Matrix<float>> scratch(lane_count);

  // Folds the field's last computed correction into one tile's WHOLE buffer
  // (profitable + halo): the delta is globally consistent, so overlapping
  // buffer cells of different tiles receive identical values.  No
  // projection here — the corrector's delta is corrected-feasible minus
  // snapshot, so a plain add lands on the projected state.
  const auto apply_delta = [&](int node) {
    const TileSpec& t = plan_.tiles[tile_of(node)];
    TileBuffers& b = tiles_[node];
    const CoarseCorrector& c = fc[field_of(node)].corrector;
    const Matrix<float>& dx = c.delta_px();
    const Matrix<float>& dy = c.delta_py();
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
    const int g = base + epoch;
    if (g > 0) gather_halos(node, g);
    // At a correction boundary, fold the rendezvous delta in AFTER the
    // gather: the gathered strips are pre-correction (live neighbors are
    // parked at the same boundary; a frozen neighbor's strips were re-
    // published from its pre-correction buffer by the rendezvous), so
    // adding the delta over the whole buffer lands every cell — profitable
    // and halo alike — on the corrected state exactly once.
    if (epoch > 0 &&
        epoch == fc[field_of(node)].applied_boundary)
      apply_delta(node);
    return adaptive_pass(node, epoch, g, lane, options.adaptive, scratch[lane],
                         runs[node]);
  };

  // The rendezvous body: runs in the scheduler's exclusive window (every
  // live tile parked exactly at the boundary, every other tile retired), so
  // it may touch any tile buffer and any mailbox slot without racing a
  // reader — see EpochGraph::run_rendezvous.  It corrects each field that
  // has not reached its end rule, one after the other.
  const auto rendezvous = [&](int /*firing*/,
                              parallel::EpochGraph::RendezvousControl& ctl) {
    const int boundary = ctl.boundary();  // epoch of the next fine pass
    const int gb = base + boundary;       // its global pass index (parity)
    for (int f = 0; f < k; ++f) {
      FieldCorrection& field = fc[f];
      if (field.done) continue;
      ResidentMultilevelReport& report = reports[f];
      const Stopwatch clock;
      // Step 0: re-sync each still-frozen tile's published strips from its
      // buffer (parity = its frozen pass, where its readers look).  Earlier
      // corrections were absorbed into the buffer but could not be published
      // mid-run; this bounds a frozen tile's publish drift to at most ONE
      // correction, never an accumulation.
      for (int t = 0; t < n; ++t) {
        const int node = node_of(f, t);
        const int fz = frozen_pass_[node].load(std::memory_order_relaxed);
        if (fz >= 0) publish_strips(node, fz);
      }
      // Step 1+2: assemble the field's fine dual state and run the gated
      // V-cycle.  The gate's residual is the max over the field's tiles of
      // the last pass's buffer-wide |dp| — every live tile is parked at the
      // boundary, so each entry is that tile's pass (boundary - 1) value;
      // frozen tiles contribute their (sub-tolerance) retirement-time
      // residual.
      float churn = 0.f;
      for (int t = 0; t < n; ++t)
        churn = std::max(churn, runs[node_of(f, t)].residual);
      snapshot(snap, f);
      const CoarseCorrector::Result res =
          field.corrector.compute(snap.px, snap.py, churn);
      bool revived = false, all_frozen = true;
      if (!res.applied) {
        // Baseline call, gate declined, or the energy safeguard vetoed the
        // cycle's output: no delta exists, so boundary-pass bodies must not
        // apply one and frozen tiles stay untouched.
        field.applied_boundary = -1;
        ++report.coarse_gated;
      } else {
        field.applied_boundary = boundary;
        ++report.coarse_solves;
        report.last_correction_max = res.max_delta;
      }
      // Step 3: retired tiles don't run a boundary pass, so they take the
      // correction here — in place if it is below the un-retirement bar,
      // by resurrection otherwise.
      for (int t = 0; t < n; ++t) {
        const int node = node_of(f, t);
        std::atomic<int>& frozen = frozen_pass_[node];
        if (frozen.load(std::memory_order_relaxed) < 0) {
          all_frozen = false;
          continue;
        }
        if (!res.applied) continue;
        const TileSpec& s = plan_.tiles[t];
        const float local = std::max(
            max_abs_rect(field.corrector.delta_px(), s.prof_row0, s.prof_col0,
                         s.prof_rows, s.prof_cols),
            max_abs_rect(field.corrector.delta_py(), s.prof_row0, s.prof_col0,
                         s.prof_rows, s.prof_cols));
        if (local > unretire_tol) {
          // Resurrect: publish the PRE-correction strips at the live parity
          // the boundary-pass gathers read, clear the frozen marker, and
          // rewind the node.  The tile's own boundary pass then applies the
          // delta exactly like every live tile — no special casing, no
          // double application.
          publish_strips(node, gb - 1);
          frozen.store(-1, std::memory_order_relaxed);
          runs[node].streak = 0;
          ctl.resurrect(node);
          ++report.tiles_unretired;
          revived = true;
          all_frozen = false;
        } else {
          // Stay frozen: fold the correction into the frozen buffer.  Its
          // published strips intentionally stay pre-correction until the next
          // step-0 re-sync (or the epilogue): readers between boundaries see
          // a drift of at most this one delta, itself bounded by
          // unretire_tol — the same deviation class the adaptive tolerance
          // mode already admits.
          apply_delta(node);
        }
      }
      // The field's end rule, the scheduler's own rule applied per field:
      // with every tile finished (during a firing no tile is at the cap
      // without having retired) and none revived, a single-field run would
      // fire no more — so this field takes no later firing either, however
      // long the other fields keep the rendezvous going.
      if (all_frozen && !revived) field.done = true;
      report.rendezvous_seconds += clock.seconds();
    }
  };

  const parallel::EpochGraph::RunStats rs = graph_->run_rendezvous(
      options.adaptive.max_passes, period, lane_count, pool(), body,
      rendezvous);

  std::vector<ResidentAdaptiveReport> adaptive =
      account_adaptive(runs, options.adaptive, rs);
  for (int f = 0; f < k; ++f) reports[f].adaptive = std::move(adaptive[f]);
  // Quiescent epilogue: frozen buffers may hold corrections absorbed after
  // their last publish, so republish from the buffer into BOTH parity slots
  // (later run()/run_adaptive() gathers assume the live parity) and clear
  // the markers.
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (frozen_pass_[i].load(std::memory_order_relaxed) < 0) continue;
    publish_strips(static_cast<int>(i), 0);
    publish_strips(static_cast<int>(i), 1);
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  pass_count_ += options.adaptive.max_passes;

  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.coarse_solves");
  static telemetry::Counter& c_gated =
      telemetry::registry().counter("tiles.coarse_gated");
  static telemetry::Counter& c_unretired =
      telemetry::registry().counter("tiles.coarse_unretired");
  static telemetry::Counter& c_rv_micros =
      telemetry::registry().counter("tiles.coarse_rendezvous_micros");
  float correction_max = 0.f;
  for (const ResidentMultilevelReport& r : reports) {
    c_solves.add(r.coarse_solves);
    c_gated.add(r.coarse_gated);
    c_unretired.add(r.tiles_unretired);
    c_rv_micros.add(static_cast<std::uint64_t>(r.rendezvous_seconds * 1e6));
    correction_max = std::max(correction_max, r.last_correction_max);
  }
  telemetry::registry()
      .gauge("tiles.coarse_correction_norm")
      .set(static_cast<double>(correction_max));
  return reports;
}

void ResidentTiledEngine::snapshot(DualField& out, int field) const {
  if (field < 0 || field >= fields_)
    throw std::invalid_argument("ResidentTiledEngine::snapshot: bad field");
  shape(out.px, plan_.frame_rows, plan_.frame_cols);
  shape(out.py, plan_.frame_rows, plan_.frame_cols);
  for_each_node(tiles_per_field(), [&](int t) {
    const TileBuffers& b = tiles_[node_of(field, t)];
    const TileSpec& s = plan_.tiles[t];
    copy_profitable(b.px, s, out.px);
    copy_profitable(b.py, s, out.py);
  });
}

void ResidentTiledEngine::reset_v(Fields inputs, DualFields initial) {
  check_inputs(inputs, initial, "ResidentTiledEngine::reset_v");
  load_inputs(inputs, initial);
  // Empty `initial`: duals stay resident (warm start); the mailbox parity
  // clock keeps running so the next run() gathers valid halos.
  if (!initial.empty()) restart_clock();
}

void ResidentTiledEngine::reset_v(const Matrix<float>& v,
                                  const DualField* initial) {
  const Matrix<float>* const field = &v;
  reset_v(Fields(&field, 1), one_or_none(initial));
}

void ResidentTiledEngine::result_node(int node, DualField* p,
                                      Matrix<float>& u) {
  // The primal of a profitable cell reads its west and north neighbors,
  // which sit in the halo ring — exact only right after a gather.  Refresh
  // it from the neighbors' last published strips: exactly what the next
  // pass's gather writes, so the resident state is unchanged.  With the
  // clock at 0 the whole buffer was just loaded from a frame and is exact.
  if (pass_count_ > 0) gather_halos(node, pass_count_);
  const TileSpec& s = plan_.tiles[tile_of(node)];
  const TileBuffers& b = tiles_[node];
  if (p != nullptr) {
    copy_profitable(b.px, s, p->px);
    copy_profitable(b.py, s, p->py);
  }
  kernels::recover_u_rect(
      b.v, b.px, b.py,
      RegionGeometry{s.buf_row0, s.buf_col0, plan_.frame_rows,
                     plan_.frame_cols},
      params_.theta, s.prof_row0 - s.buf_row0, s.prof_col0 - s.buf_col0,
      s.prof_rows, s.prof_cols, u, s.prof_row0, s.prof_col0);
}

ChambolleResult ResidentTiledEngine::result(int field) {
  if (field < 0 || field >= fields_)
    throw std::invalid_argument("ResidentTiledEngine::result: bad field");
  ChambolleResult out;
  out.p = DualField(plan_.frame_rows, plan_.frame_cols);
  out.u.resize(plan_.frame_rows, plan_.frame_cols);
  for_each_node(tiles_per_field(), [&](int t) {
    result_node(node_of(field, t), &out.p, out.u);
  });
  return out;
}

void ResidentTiledEngine::result_into(std::span<Matrix<float>* const> u,
                                      std::span<DualField* const> duals) {
  const auto k = static_cast<std::size_t>(fields_);
  if (u.size() != k || (!duals.empty() && duals.size() != k))
    throw std::invalid_argument(
        "ResidentTiledEngine::result_into: field count mismatch");
  const int rows = plan_.frame_rows, cols = plan_.frame_cols;
  for (std::size_t f = 0; f < k; ++f) {
    // Distinct outputs: the fields are written concurrently.
    for (std::size_t g = 0; g < f; ++g)
      if (u[f] == u[g] || (!duals.empty() && duals[f] == duals[g]))
        throw std::invalid_argument(
            "ResidentTiledEngine::result_into: fields share an output");
    shape(*u[f], rows, cols);
    if (duals.empty()) continue;
    shape(duals[f]->px, rows, cols);
    shape(duals[f]->py, rows, cols);
  }
  for_each_node(nodes(), [&](int node) {
    const int f = field_of(node);
    result_node(node, duals.empty() ? nullptr : duals[f], *u[f]);
  });
}

void ResidentTiledEngine::result_into(Matrix<float>& u, DualField& duals) {
  Matrix<float>* const us[] = {&u};
  DualField* const ds[] = {&duals};
  result_into(us, ds);
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
  const ResidentAdaptiveReport rep = engine.run_adaptive(opts).front();
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
  const ResidentMultilevelReport rep = engine.run_multilevel(opts).front();
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.multilevel_solves");
  c_solves.add(1);
  if (report != nullptr) *report = rep;
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

}  // namespace chambolle
