#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

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
/// than one pass apart) keeps the two slots from colliding.
struct ResidentTiledEngine::Mailbox {
  HaloEdge edge;
  int src_r0 = 0, src_c0 = 0;  // edge rect in src-buffer coordinates
  int dst_r0 = 0, dst_c0 = 0;  // edge rect in dst-buffer coordinates
  std::vector<float> slot[2];
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

void ResidentTiledEngine::gather_halos(int node, int g) {
  // The incoming rectangles partition the halo exactly, so after this loop
  // the whole buffer holds the neighbors' post-pass-(g-1) state.
  TileBuffers& b = tiles_[node];
  const Mailbox* mail = mailboxes(field_of(node));
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : in_edges_[tile_of(node)]) {
    const Mailbox& m = mail[mi];
    // The neighbor's post-pass-(g-1) strips sit at parity (g-1).
    const float* strip = m.slot[(g - 1) & 1].data();
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

void ResidentTiledEngine::node_pass(int node, int g, int burst,
                                    Matrix<float>& scratch) {
  if (g > 0) gather_halos(node, g);
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
                                params_.step(), burst, scratch);
  if (prof) {
    const double kernel_seconds =
        static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
    telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
    telemetry::profiler_add_tile(t, kernel_seconds);
  }
  publish_strips(node, g);
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

void ResidentTiledEngine::restart_clock() {
  // A full buffer load (halo included) makes the mailboxes irrelevant until
  // the next publish; restart the pass/parity clock.
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
  // Pass schedule: merge_iterations per pass, remainder last.  Every burst
  // is <= plan_.halo, which is what keeps profitable cells' dependency
  // cones inside the buffer.
  const int merge = options_.merge_iterations;
  const int passes = (iterations + merge - 1) / merge;
  const int final_burst = iterations - (passes - 1) * merge;
  if (passes == 0) return;
  const telemetry::TraceSpan span("chambolle.resident.run");
  telemetry::flight_mark("resident.run", static_cast<double>(iterations));

  const int base = pass_count_;
  const int lane_count = lanes();
  if (scratch_.lanes() < lane_count)
    scratch_ = parallel::PerLane<Matrix<float>>(lane_count);
  const auto pass = [&](int node, int epoch, int lane) {
    // base + epoch: the global pass index since the last reload.
    node_pass(node, base + epoch, epoch == passes - 1 ? final_burst : merge,
              scratch_[lane]);
  };
  // One captured reference: std::function stores it inline, so a run
  // allocates nothing for its body.
  const parallel::EpochGraph::NodeFn body = [&pass](int node, int epoch,
                                                     int lane) {
    pass(node, epoch, lane);
  };
  const parallel::EpochGraph::RunStats rs =
      graph_->run(passes, lane_count, pool(), body);
  account(passes, iterations, rs);
  // The parity clock advances by the full schedule.
  pass_count_ += passes;
}

void ResidentTiledEngine::account(int passes, int iterations,
                                  const parallel::EpochGraph::RunStats& rs) {
  std::uint64_t halo_floats = 0;
  for (int node = 0; node < nodes(); ++node) {
    const int t = tile_of(node);
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[t])
      out_elems += 2 * mail_[mi].edge.elements();
    halo_floats += static_cast<std::uint64_t>(out_elems) *
                   static_cast<std::uint64_t>(passes);
    stats_.element_iterations += plan_.tiles[t].buffer_elements() *
                                 static_cast<std::size_t>(iterations);
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
  static telemetry::Gauge& g_halo_fraction =
      telemetry::registry().gauge("tiles.halo_traffic_fraction");
  // Passes count per field: one pass of a K-field engine is K field passes.
  c_passes.add(static_cast<std::uint64_t>(passes) *
               static_cast<std::uint64_t>(fields()));
  c_halo.add(halo_floats * sizeof(float));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
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

}  // namespace chambolle
