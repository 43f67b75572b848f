#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
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
/// solve, 12 B per buffer cell — the CPU analogue of a BRAM bank.
struct ResidentTiledEngine::TileBuffers {
  Matrix<float> px, py, v;
};

/// One directed halo-exchange edge, with the frame rectangle pre-resolved
/// into source- and destination-local coordinates and a parity-double-
/// buffered payload: slot[n & 1] carries the pass-n strip (px rows first,
/// then py rows).  Publication/consumption is ordered by the EpochGraph's
/// release/acquire epoch protocol; the skew bound (neighbors never more
/// than one pass apart) keeps the two slots from colliding.  A tile retired
/// early stops publishing: gathers are redirected to its final
/// strips by the frozen_pass_ marker (see gather_halos / mark_frozen).
struct ResidentTiledEngine::Mailbox {
  HaloEdge edge;
  int src_r0 = 0, src_c0 = 0;  // edge rect in src-buffer coordinates
  int dst_r0 = 0, dst_c0 = 0;  // edge rect in dst-buffer coordinates
  std::vector<float> slot[2];
};

/// One node's record over a run.  Only the lane that claimed the node's
/// current pass touches it, and claims of successive passes are ordered by
/// the epoch release/acquire chain, so plain fields are safe even under work
/// stealing; the rendezvous reads them in its exclusive window.
struct ResidentTiledEngine::NodeRun {
  int passes = 0;           ///< passes executed
  int iterations = 0;       ///< Chambolle iterations executed
  int streak = 0;           ///< consecutive under-tolerance passes
  int stolen = 0;           ///< passes run off the preferred lane
  float residual = 0.f;     ///< the last pass's residual (retiring runs)
};

/// The coarse-grid correction of one run (policy.multilevel.period > 0).
/// Every field is corrected on its own — its own corrector, progress gate
/// and end rule — so its bits equal a single-field engine's.
struct ResidentTiledEngine::Correction {
  struct Field {
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

  Correction(ResidentTiledEngine& engine, const ResidentRunPolicy& policy,
             int levels, int base);
  /// Folds node's field's last correction into the node's buffer when
  /// `epoch` is the boundary that correction was computed for.
  void at_pass(int node, int epoch);
  /// The rendezvous body.
  void fire(parallel::EpochGraph::RendezvousControl& ctl);
  /// Folds the field's last computed correction into one tile's WHOLE
  /// buffer (profitable + halo): the delta is globally consistent, so
  /// overlapping buffer cells of different tiles receive identical values.
  /// No projection here — the corrector's delta is corrected-feasible minus
  /// snapshot, so a plain add lands on the projected state.
  void apply_delta(int node);

  ResidentTiledEngine& engine;
  float unretire_tol;
  int base;  ///< the engine's pass clock at the start of the run
  std::vector<Field> fields;
  DualField snap;
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

parallel::ThreadPool& pool_of(const TiledSolverOptions& options) {
  return options.pool != nullptr ? *options.pool : parallel::default_pool();
}

const Matrix<float>& first_field(ResidentTiledEngine::Fields inputs) {
  if (inputs.empty() || inputs[0] == nullptr)
    throw std::invalid_argument("ResidentTiledEngine: no input field");
  return *inputs[0];
}

/// The planner's tiling for `inputs` on the lanes `options` resolves to.
TilingPlan plan_for(ResidentTiledEngine::Fields inputs,
                    const TiledSolverOptions& options) {
  options.validate_schedule();
  const Matrix<float>& v = first_field(inputs);
  return plan_tiling(v.rows(), v.cols(), static_cast<int>(inputs.size()),
                     pool_of(options).lanes_for(options.num_threads),
                     options.merge_iterations);
}

}  // namespace

ResidentTiledEngine::ResidentTiledEngine(Fields inputs,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         DualFields initial)
    : ResidentTiledEngine(inputs, params, options, plan_for(inputs, options),
                          initial) {}

ResidentTiledEngine::ResidentTiledEngine(Fields inputs,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         TilingPlan plan, DualFields initial)
    : params_(params), options_(options), plan_(std::move(plan)) {
  params_.validate();
  options_.validate_schedule();  // the plan replaces the tile window
  const Matrix<float>& v = first_field(inputs);
  if (plan_.frame_rows != v.rows() || plan_.frame_cols != v.cols() ||
      plan_.halo != options_.merge_iterations)
    throw std::invalid_argument(
        "ResidentTiledEngine: plan does not fit the frame and merge depth");
  fields_ = static_cast<int>(inputs.size());
  check_inputs(inputs, initial, "ResidentTiledEngine");

  const int k = fields_;
  const int n = tiles_per_field();
  // resize() value-initializes: the zero dual start of Algorithm 1, unless
  // load_inputs() copies `initial` over it.  Sized in a node region, so the
  // first touch of large strip buffers (page faults, zeroing) runs on every
  // lane rather than the constructing thread.
  tiles_.resize(static_cast<std::size_t>(n * k));
  for_each_node(nodes(), [&](int node) {
    const TileSpec& s = plan_.tiles[tile_of(node)];
    TileBuffers& b = tiles_[node];
    b.v.resize(s.buf_rows, s.buf_cols);
    b.px.resize(s.buf_rows, s.buf_cols);
    b.py.resize(s.buf_rows, s.buf_cols);
  });
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
  runs_.resize(tiles_.size());
  reports_.resize(static_cast<std::size_t>(k));
  for (ResidentRunReport& r : reports_) {
    r.tiles = static_cast<std::size_t>(n);
    r.tile_passes.resize(static_cast<std::size_t>(n));
    r.tile_residuals.resize(static_cast<std::size_t>(n));
  }

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

void ResidentRunPolicy::validate() const {
  if (!(tolerance >= 0.f) || !std::isfinite(tolerance))
    throw std::invalid_argument(
        "ResidentRunPolicy: tolerance must be finite and >= 0");
  if (patience < 1)
    throw std::invalid_argument("ResidentRunPolicy: patience < 1");
  multilevel.validate();
  if (multilevel.enabled() && !retiring())
    throw std::invalid_argument(
        "ResidentRunPolicy: a correction period requires tolerance > 0");
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
  // gather.  The cross-parity mirror is deferred to run()'s epilogue, when
  // every lane has joined and no reader can exist.
  frozen_pass_[node].store(g, std::memory_order_release);
}

ResidentTiledEngine::Mailbox* ResidentTiledEngine::mailboxes(int field) {
  // data() + offset, not &mail_[...]: a one-tile plan has no mailboxes.
  return mail_.data() + field * edges_per_field_;
}

parallel::ThreadPool& ResidentTiledEngine::pool() const {
  return pool_of(options_);
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
  // must go with it: a completed run clears them in its epilogue,
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

std::span<const ResidentRunReport> ResidentTiledEngine::run(
    int iterations, const ResidentRunPolicy& policy) {
  if (iterations < 0)
    throw std::invalid_argument("ResidentTiledEngine::run: iterations < 0");
  policy.validate();
  // Pass schedule: merge_iterations per pass, remainder last.  Every burst
  // is <= plan_.halo, which is what keeps profitable cells' dependency
  // cones inside the buffer.
  const int merge = options_.merge_iterations;
  const int passes = (iterations + merge - 1) / merge;
  const int final_burst = iterations - (passes - 1) * merge;
  for (NodeRun& r : runs_) r = NodeRun{};
  for (ResidentRunReport& r : reports_) {
    r.pass_cap = passes;
    r.tiles_converged = r.total_tile_passes = r.total_iterations = 0;
    r.stolen_passes = r.coarse_solves = r.coarse_gated = r.tiles_unretired = 0;
    r.coarse_levels = 0;
    r.last_correction_max = 0.f;
    r.rendezvous_seconds = 0.0;
    std::fill(r.tile_passes.begin(), r.tile_passes.end(), 0);
    std::fill(r.tile_residuals.begin(), r.tile_residuals.end(), 0.f);
  }
  if (passes == 0) return reports_;
  const telemetry::TraceSpan span("chambolle.resident.run");
  telemetry::flight_mark("resident.run", static_cast<double>(iterations));

  // A completed run mirrors frozen strips into both parities and clears the
  // markers in its epilogue, but an exception-aborted one leaves them set —
  // and a stale marker would redirect this run's gathers to a long-dead
  // frozen slot.  Reset defensively.
  clear_frozen();

  const int base = pass_count_;
  const int levels = CoarseCorrector::resolve_levels(
      plan_.frame_rows, plan_.frame_cols, policy.multilevel);
  const int period = policy.multilevel.period;
  // Disabled / degenerate corrections run the plain schedule — the
  // bit-exact contract of the fixed budget rests on this being the SAME
  // code.
  std::optional<Correction> correction;
  if (levels > 0 && period > 0 && (passes - 1) / period > 0)
    correction.emplace(*this, policy, levels, base);

  const int lane_count = lanes();
  if (scratch_.lanes() < lane_count)
    scratch_ = parallel::PerLane<Matrix<float>>(lane_count);
  const auto pass = [&](int node, int epoch, int lane) -> bool {
    const int g = base + epoch;  // global pass index since the last reload
    if (g > 0) gather_halos(node, g);
    if (correction) correction->at_pass(node, epoch);
    return node_pass(node, g, lane, epoch == passes - 1 ? final_burst : merge,
                     policy, scratch_[lane], runs_[node]);
  };
  // One captured reference: std::function stores it inline, so a run
  // allocates nothing for its body.
  const parallel::EpochGraph::NodeFn body = [&pass](int node, int epoch,
                                                     int lane) {
    return pass(node, epoch, lane);
  };
  parallel::EpochGraph::RendezvousFn rendezvous;
  if (correction)
    rendezvous = [&](int, parallel::EpochGraph::RendezvousControl& ctl) {
      correction->fire(ctl);
    };

  const parallel::EpochGraph::RunStats rs =
      graph_->run(passes, lane_count, pool(), body, policy.retiring(), period,
                  rendezvous);
  account(passes, rs);
  if (correction) {
    static telemetry::Counter& c_solves =
        telemetry::registry().counter("tiles.coarse_solves");
    static telemetry::Counter& c_gated =
        telemetry::registry().counter("tiles.coarse_gated");
    static telemetry::Counter& c_unretired =
        telemetry::registry().counter("tiles.coarse_unretired");
    static telemetry::Counter& c_rv_micros =
        telemetry::registry().counter("tiles.coarse_rendezvous_micros");
    static telemetry::Gauge& g_correction =
        telemetry::registry().gauge("tiles.coarse_correction_norm");
    float correction_max = 0.f;
    for (const ResidentRunReport& r : reports_) {
      c_solves.add(r.coarse_solves);
      c_gated.add(r.coarse_gated);
      c_unretired.add(r.tiles_unretired);
      c_rv_micros.add(static_cast<std::uint64_t>(r.rendezvous_seconds * 1e6));
      correction_max = std::max(correction_max, r.last_correction_max);
    }
    g_correction.set(static_cast<double>(correction_max));
  }
  // Quiescent epilogue (every lane has joined): republish each retired
  // tile's final strips from its buffer into BOTH parity slots and clear
  // its marker, so later runs — whose gathers assume the live parity — read
  // the frozen state no matter how many passes each tile actually executed.
  // The buffer is what the tile last published, plus any correction it
  // absorbed in place since.  This write is exactly the one that would race
  // a concurrent gather during the run (see mark_frozen); here no reader
  // exists.
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (frozen_pass_[i].load(std::memory_order_relaxed) < 0) continue;
    publish_strips(static_cast<int>(i), 0);
    publish_strips(static_cast<int>(i), 1);
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  // The parity clock advances by the full cap.
  pass_count_ += passes;
  return reports_;
}

bool ResidentTiledEngine::node_pass(int node, int g, int lane, int burst,
                                    const ResidentRunPolicy& policy,
                                    Matrix<float>& scratch, NodeRun& run) {
  // The fixed budget never reads the residual, so its kernel skips the
  // reduction.
  const bool retiring = policy.retiring();
  float residual = 0.f;
  kernel_pass(node, burst, scratch, retiring ? &residual : nullptr);
  publish_strips(node, g);
  ++run.passes;
  run.iterations += burst;
  if (!retiring) return false;
  run.residual = residual;
  if (graph_->owner(node, lanes()) != lane) ++run.stolen;
  // The residual is the buffer-wide max |dp| of the pass's LAST iteration:
  // a single-iteration measure, so the same tolerance means the same thing
  // regardless of merge depth.  Halo cells are included — conservative: a
  // tile only retires once its neighborhood influence has also stilled.
  if (residual < policy.tolerance) {
    if (++run.streak >= policy.patience) {
      mark_frozen(node, g);
      return true;  // retire: EpochGraph publishes the terminal epoch
    }
  } else {
    run.streak = 0;
  }
  return false;
}

void ResidentTiledEngine::account(int passes,
                                  const parallel::EpochGraph::RunStats& rs) {
  std::uint64_t halo_floats = 0, converged = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const int node = static_cast<int>(i);
    const NodeRun& run = runs_[i];
    const int t = tile_of(node);
    ResidentRunReport& r = reports_[field_of(node)];
    r.tile_passes[t] = run.passes;
    r.tile_residuals[t] = run.residual;
    r.total_tile_passes += static_cast<std::size_t>(run.passes);
    r.total_iterations += static_cast<std::size_t>(run.iterations);
    r.stolen_passes += static_cast<std::uint64_t>(run.stolen);
    // Retired tiles still carry their marker: the epilogue clears them
    // after this accounting.
    if (frozen_pass_[i].load(std::memory_order_relaxed) >= 0) {
      ++r.tiles_converged;
      ++converged;
    }
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[t])
      out_elems += 2 * mail_[mi].edge.elements();
    halo_floats += static_cast<std::uint64_t>(out_elems) *
                   static_cast<std::uint64_t>(run.passes);
    stats_.element_iterations += plan_.tiles[t].buffer_elements() *
                                 static_cast<std::size_t>(run.iterations);
  }
  stats_.passes += passes;
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
  static telemetry::Gauge& g_savings =
      telemetry::registry().gauge("tiles.adaptive_pass_savings");
  static telemetry::Gauge& g_halo_fraction =
      telemetry::registry().gauge("tiles.halo_traffic_fraction");
  // Passes count per field: one pass of a K-field engine is K field passes,
  // however many of its tiles retired early (executed node passes are the
  // reports' total_tile_passes and the passes_used histogram).
  c_passes.add(static_cast<std::uint64_t>(passes) *
               static_cast<std::uint64_t>(fields()));
  c_halo.add(halo_floats * sizeof(float));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  c_converged.add(converged);
  c_stolen.add(rs.stolen_passes);
  for (const NodeRun& run : runs_) h_passes.observe(run.passes);
  const double fixed =
      static_cast<double>(runs_.size()) * static_cast<double>(passes);
  g_savings.set(fixed > 0.0
                    ? 1.0 - static_cast<double>(rs.executed_passes) / fixed
                    : 0.0);
  // Per-pass traffic of this engine vs. the reload engine's two full frames
  // in and out (4 floats/cell) per field: the acceptance-criterion ratio.
  const double frame_reload_bytes =
      4.0 * sizeof(float) * static_cast<double>(plan_.frame_rows) *
      static_cast<double>(plan_.frame_cols) * static_cast<double>(fields());
  g_halo_fraction.set(frame_reload_bytes > 0.0
                          ? static_cast<double>(stats_.halo_elements_per_pass) *
                                sizeof(float) / frame_reload_bytes
                          : 0.0);
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

ResidentTiledEngine::Correction::Correction(ResidentTiledEngine& engine,
                                            const ResidentRunPolicy& policy,
                                            int levels, int base)
    : engine(engine),
      unretire_tol(policy.multilevel.unretire_factor * policy.tolerance),
      base(base),
      fields(static_cast<std::size_t>(engine.fields_)) {
  // The correctors keep their own copy of v; assemble each field's from the
  // tiles' profitable windows.
  const TilingPlan& plan = engine.plan_;
  Matrix<float> v(plan.frame_rows, plan.frame_cols);
  for (int f = 0; f < engine.fields_; ++f) {
    for (int t = 0; t < engine.tiles_per_field(); ++t)
      copy_profitable(engine.tiles_[engine.node_of(f, t)].v, plan.tiles[t], v);
    engine.reports_[f].coarse_levels = levels;
    fields[f].corrector.setup(v, engine.params_, policy.multilevel);
  }
}

void ResidentTiledEngine::Correction::apply_delta(int node) {
  const TileSpec& t = engine.plan_.tiles[engine.tile_of(node)];
  TileBuffers& b = engine.tiles_[node];
  const CoarseCorrector& c = fields[engine.field_of(node)].corrector;
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
}

void ResidentTiledEngine::Correction::at_pass(int node, int epoch) {
  // At a correction boundary, fold the rendezvous delta in AFTER the
  // gather: the gathered strips are pre-correction (live neighbors are
  // parked at the same boundary; a frozen neighbor's strips were re-
  // published from its pre-correction buffer by the rendezvous), so adding
  // the delta over the whole buffer lands every cell — profitable and halo
  // alike — on the corrected state exactly once.
  if (epoch > 0 && epoch == fields[engine.field_of(node)].applied_boundary)
    apply_delta(node);
}

void ResidentTiledEngine::Correction::fire(
    parallel::EpochGraph::RendezvousControl& ctl) {
  // Runs in the scheduler's exclusive window (every live tile parked
  // exactly at the boundary, every other tile retired), so it may touch any
  // tile buffer and any mailbox slot without racing a reader — see
  // EpochGraph::run.  It corrects each field that has not reached its end
  // rule, one after the other.
  const int n = engine.tiles_per_field();
  const int boundary = ctl.boundary();  // epoch of the next fine pass
  const int gb = base + boundary;       // its global pass index (parity)
  for (int f = 0; f < engine.fields_; ++f) {
    Field& field = fields[f];
    if (field.done) continue;
    ResidentRunReport& report = engine.reports_[f];
    const Stopwatch clock;
    // Step 0: re-sync each still-frozen tile's published strips from its
    // buffer (parity = its frozen pass, where its readers look).  Earlier
    // corrections were absorbed into the buffer but could not be published
    // mid-run; this bounds a frozen tile's publish drift to at most ONE
    // correction, never an accumulation.
    for (int t = 0; t < n; ++t) {
      const int node = engine.node_of(f, t);
      const int fz = engine.frozen_pass_[node].load(std::memory_order_relaxed);
      if (fz >= 0) engine.publish_strips(node, fz);
    }
    // Step 1+2: assemble the field's fine dual state and run the gated
    // V-cycle.  The gate's residual is the max over the field's tiles of
    // the last pass's buffer-wide |dp| — every live tile is parked at the
    // boundary, so each entry is that tile's pass (boundary - 1) value;
    // frozen tiles contribute their (sub-tolerance) retirement-time
    // residual.
    float churn = 0.f;
    for (int t = 0; t < n; ++t)
      churn = std::max(churn, engine.runs_[engine.node_of(f, t)].residual);
    engine.snapshot(snap, f);
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
    // correction here — in place if it is below the un-retirement bar, by
    // resurrection otherwise.
    for (int t = 0; t < n; ++t) {
      const int node = engine.node_of(f, t);
      std::atomic<int>& frozen = engine.frozen_pass_[node];
      if (frozen.load(std::memory_order_relaxed) < 0) {
        all_frozen = false;
        continue;
      }
      if (!res.applied) continue;
      const TileSpec& s = engine.plan_.tiles[t];
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
        engine.publish_strips(node, gb - 1);
        frozen.store(-1, std::memory_order_relaxed);
        engine.runs_[node].streak = 0;
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
                               const ResidentRunPolicy& policy,
                               ResidentRunReport* report,
                               ResidentTiledStats* stats,
                               const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident");
  ResidentTiledEngine engine(v, params, options, initial);
  const ResidentRunReport& rep = engine.run(params.iterations, policy).front();
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.resident_solves");
  c_solves.add(1);
  if (report != nullptr) *report = rep;
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

}  // namespace chambolle
