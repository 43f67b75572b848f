#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/kernel.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {

/// One outgoing halo payload of a strip, double-buffered by pass parity:
/// slot[n & 1] carries `halo` of its pass-n profitable rows, px rows first,
/// then py rows.  Publication/consumption is ordered by the EpochGraph's
/// release/acquire epoch protocol; the skew bound (neighbors never more
/// than one pass apart) keeps the two slots from colliding.
struct ResidentTiledEngine::Mailbox {
  std::vector<float> slot[2];
};

/// The resident working set of one strip: the (px, py) dual window and the
/// fixed input window, allocated once and owned by one lane for the whole
/// solve, 12 B per buffer cell — the CPU analogue of a BRAM bank — and its
/// payloads for the strip above (its first `halo` profitable rows) and the
/// strip below (its last), empty on a frame border.
struct ResidentTiledEngine::TileBuffers {
  Matrix<float> px, py, v;
  Mailbox first, last;
};

namespace {

// Every cell is some tile's profitable cell, so the write-back and the
// recovery overwrite their whole output: reshape without clearing when the
// shape already fits.
void shape(Matrix<float>& m, int rows, int cols) {
  if (m.rows() != rows || m.cols() != cols) m.resize(rows, cols);
}

/// Row r of a full-width matrix: whole rows are one contiguous range.
float* row(Matrix<float>& m, int r) {
  return m.data().data() + static_cast<std::size_t>(r) * m.cols();
}
const float* row(const Matrix<float>& m, int r) {
  return m.data().data() + static_cast<std::size_t>(r) * m.cols();
}

/// Copies `rows` rows of `src` from row `src_r0` into `dst` from row
/// `dst_r0`; both span the frame width.
void copy_rows(const Matrix<float>& src, int src_r0, Matrix<float>& dst,
               int dst_r0, int rows) {
  std::copy_n(row(src, src_r0), static_cast<std::size_t>(rows) * src.cols(),
              row(dst, dst_r0));
}

parallel::ThreadPool& pool_of(const TiledSolverOptions& options) {
  return options.pool != nullptr ? *options.pool : parallel::default_pool();
}

}  // namespace

ResidentTiledEngine::ResidentTiledEngine(int rows, int cols, int fields,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options)
    : ResidentTiledEngine(
          fields, params, options, [&] {
            options.validate_schedule();
            return plan_tiling(rows, cols, fields,
                               pool_of(options).lanes_for(options.num_threads),
                               options.merge_iterations);
          }()) {}

ResidentTiledEngine::ResidentTiledEngine(int fields,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         TilingPlan plan)
    : params_(params), options_(options), plan_(std::move(plan)),
      fields_(fields) {
  params_.validate();
  options_.validate_schedule();  // the plan replaces the tile window
  if (fields_ < 1)
    throw std::invalid_argument("ResidentTiledEngine: no input field");
  if (plan_.halo != options_.merge_iterations)
    throw std::invalid_argument(
        "ResidentTiledEngine: plan does not fit the merge depth");
  if (!is_strip_plan(plan_))
    throw std::invalid_argument(
        "ResidentTiledEngine: plan is not full-width strips of at least "
        "the merge depth");

  const int n = tiles_per_field();
  const std::size_t payload = 2 * halo_elements();  // px and py
  // Sized in a node region, so the first touch of large strip buffers
  // (page faults, zeroing) runs on every lane rather than the constructing
  // thread.  parallel_rows with one "row" per node, costed at a strip's
  // share of the frame: the streaming chunk floor keeps every frame below
  // ~256 x 256 inline.
  tiles_.resize(static_cast<std::size_t>(n * fields_));
  parallel::parallel_rows(
      pool(), nodes(),
      std::max(1, plan_.frame_rows * plan_.frame_cols / n), lanes(),
      parallel::kStreamChunkCells, [&](int begin, int end) {
        for (int node = begin; node < end; ++node) {
          const int t = tile_of(node);
          const TileSpec& s = plan_.tiles[t];
          TileBuffers& b = tiles_[node];
          b.v.resize(s.buf_rows, s.buf_cols);
          b.px.resize(s.buf_rows, s.buf_cols);
          b.py.resize(s.buf_rows, s.buf_cols);
          if (t > 0)
            for (std::vector<float>& slot : b.first.slot) slot.resize(payload);
          if (t + 1 < n)
            for (std::vector<float>& slot : b.last.slot) slot.resize(payload);
        }
      });

  // A strip trades halo rows with the strips directly above and below it,
  // so those two are its wait set.  Fields exchange nothing, so the graph
  // is K disjoint chains.
  std::vector<std::vector<int>> adjacency(tiles_.size());
  for (int node = 0; node < nodes(); ++node) {
    const int t = tile_of(node);
    if (t > 0) adjacency[node].push_back(node - 1);
    if (t + 1 < n) adjacency[node].push_back(node + 1);
  }
  graph_ = std::make_unique<parallel::EpochGraph>(std::move(adjacency));

  stats_.tiles = tiles_.size();
  // Each interior strip boundary carries one payload each way.
  stats_.halo_elements_per_pass = 2 * payload *
                                  static_cast<std::size_t>(n - 1) *
                                  static_cast<std::size_t>(fields_);
  static telemetry::Counter& c_builds =
      telemetry::registry().counter("tiles.engine_builds");
  c_builds.add(1);
}

ResidentTiledEngine::~ResidentTiledEngine() = default;

void ResidentTiledEngine::gather_halos(int node, int g) {
  // The top halo rows are the last profitable rows of the strip above, the
  // bottom ones the first profitable rows of the strip below, so these two
  // copies refresh the whole halo with the post-pass-(g-1) state, which
  // sits at parity (g-1).
  TileBuffers& b = tiles_[node];
  const int t = tile_of(node);
  const std::size_t n = halo_elements();
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  const auto unpack = [&](const Mailbox& m, int r0) {
    const float* in = m.slot[(g - 1) & 1].data();
    std::copy_n(in, n, row(b.px, r0));
    std::copy_n(in + n, n, row(b.py, r0));
  };
  if (t > 0) unpack(tiles_[node - 1].last, 0);
  if (t + 1 < tiles_per_field())
    unpack(tiles_[node + 1].first, b.px.rows() - plan_.halo);
}

void ResidentTiledEngine::publish_strips(int node, int g) {
  // Profitable rows only, hence exact.  The final pass publishes too: the
  // recovery epoch gathers its rows into the halo.
  TileBuffers& b = tiles_[node];
  const int t = tile_of(node);
  const TileSpec& s = plan_.tiles[t];
  const int top = s.prof_row0 - s.buf_row0;  // the first profitable row
  const std::size_t n = halo_elements();
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  const auto pack = [&](Mailbox& m, int r0) {
    float* out = m.slot[g & 1].data();
    std::copy_n(row(b.px, r0), n, out);
    std::copy_n(row(b.py, r0), n, out + n);
  };
  if (t > 0) pack(b.first, top);
  if (t + 1 < tiles_per_field()) pack(b.last, top + s.prof_rows - plan_.halo);
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

parallel::ThreadPool& ResidentTiledEngine::pool() const {
  return pool_of(options_);
}

int ResidentTiledEngine::lanes() const {
  return pool().lanes_for(options_.num_threads);
}

void ResidentTiledEngine::check_arguments(
    Fields v, DualFields initial, std::span<Matrix<float>* const> u,
    std::span<DualField* const> duals) const {
  const auto error = [](const char* what) {
    return std::invalid_argument(std::string("ResidentTiledEngine::solve: ") +
                                 what);
  };
  const auto k = static_cast<std::size_t>(fields_);
  if (v.size() != k || u.size() != k)
    throw error("field count mismatch");
  if (!initial.empty() && initial.size() != k)
    throw error("initial dual count mismatch");
  if (!duals.empty() && duals.size() != k)
    throw error("dual output count mismatch");
  const auto fits = [&](const Matrix<float>& m) {
    return m.rows() == plan_.frame_rows && m.cols() == plan_.frame_cols;
  };
  for (std::size_t f = 0; f < k; ++f) {
    if (v[f] == nullptr || !fits(*v[f])) throw error("shape mismatch");
    if (!initial.empty() && (initial[f] == nullptr || !fits(initial[f]->px) ||
                             !fits(initial[f]->py)))
      throw error("initial dual shape mismatch");
    if (u[f] == nullptr || (!duals.empty() && duals[f] == nullptr))
      throw error("null output");
    // Distinct outputs: the fields are written concurrently.
    for (std::size_t g = 0; g < f; ++g)
      if (u[f] == u[g] || (!duals.empty() && duals[f] == duals[g]))
        throw error("fields share an output");
  }
}

void ResidentTiledEngine::load_node(int node, const Matrix<float>& v,
                                    const DualField* initial) {
  const TileSpec& s = plan_.tiles[tile_of(node)];
  TileBuffers& b = tiles_[node];
  copy_rows(v, s.buf_row0, b.v, 0, s.buf_rows);
  if (initial == nullptr) {  // Algorithm 1's cold start
    b.px.fill(0.f);
    b.py.fill(0.f);
    return;
  }
  copy_rows(initial->px, s.buf_row0, b.px, 0, s.buf_rows);
  copy_rows(initial->py, s.buf_row0, b.py, 0, s.buf_rows);
}

void ResidentTiledEngine::recover_node(int node, int passes, DualField* p,
                                       Matrix<float>& u) {
  // The primal of a profitable cell reads its north neighbor, which sits
  // in the halo — exact only right after a gather.  Refresh it from the
  // neighbors' last published rows.  With no pass run, the whole buffer
  // was just loaded from a frame and is exact.
  if (passes > 0) gather_halos(node, passes);
  const TileSpec& s = plan_.tiles[tile_of(node)];
  const TileBuffers& b = tiles_[node];
  const int top = s.prof_row0 - s.buf_row0;
  if (p != nullptr) {
    copy_rows(b.px, top, p->px, s.prof_row0, s.prof_rows);
    copy_rows(b.py, top, p->py, s.prof_row0, s.prof_rows);
  }
  kernels::recover_u_rows(
      b.v, b.px, b.py,
      RegionGeometry{s.buf_row0, s.buf_col0, plan_.frame_rows,
                     plan_.frame_cols},
      params_.theta, top, s.prof_rows, u, s.prof_row0);
}

void ResidentTiledEngine::solve(Fields v, DualFields initial,
                                std::span<Matrix<float>* const> u,
                                std::span<DualField* const> duals) {
  check_arguments(v, initial, u, duals);
  // Pass schedule: merge_iterations per pass, remainder last.  Every burst
  // is <= plan_.halo, which is what keeps profitable cells' dependency
  // cones inside the buffer.  Epoch 0 also loads; the last epoch, a join,
  // only recovers.
  const int iterations = params_.iterations;
  const int merge = options_.merge_iterations;
  const int passes = (iterations + merge - 1) / merge;
  const int final_burst = iterations - (passes - 1) * merge;
  const int last = std::max(passes, 1);
  const telemetry::TraceSpan span("chambolle.resident.solve");
  telemetry::flight_mark("resident.solve", static_cast<double>(iterations));

  const int lane_count = lanes();
  if (scratch_.lanes() < lane_count)
    scratch_ = parallel::PerLane<Matrix<float>>(lane_count);
  const auto shape_outputs = [&] {
    const int rows = plan_.frame_rows, cols = plan_.frame_cols;
    for (int f = 0; f < fields_; ++f) {
      shape(*u[f], rows, cols);
      if (duals.empty()) continue;
      shape(duals[f]->px, rows, cols);
      shape(duals[f]->py, rows, cols);
    }
  };
  const auto step = [&](int node, int epoch, int lane) {
    const int f = field_of(node);
    if (epoch == 0)
      load_node(node, *v[f], initial.empty() ? nullptr : initial[f]);
    if (epoch < passes)
      node_pass(node, epoch, epoch == passes - 1 ? final_burst : merge,
                scratch_[lane]);
    // Node 0, on the calling thread (lane 0), shapes the outputs after its
    // last burst.  The join orders this before every node's recovery; a
    // solve that fails sooner leaves even a mis-shaped output untouched;
    // and large outputs are allocated after the engine's own first-solve
    // state (shaping them before the bursts raised a 1024 x 768 service's
    // peak RSS by a third, through allocator fragmentation).  Every input
    // fits the frame, so no output that aliases an input is resized.
    if (node == 0 && epoch == last - 1) shape_outputs();
    if (epoch == last)
      recover_node(node, passes, duals.empty() ? nullptr : duals[f], *u[f]);
  };
  // One captured reference: std::function stores it inline, so a solve
  // allocates nothing for its body.
  const parallel::EpochGraph::NodeFn body = [&step](int node, int epoch,
                                                     int lane) {
    step(node, epoch, lane);
  };
  const parallel::EpochGraph::RunStats rs =
      graph_->run(last + 1, lane_count, pool(), body);
  account(passes, iterations, rs);
}

void ResidentTiledEngine::solve(const Matrix<float>& v,
                                const DualField* initial, Matrix<float>& u,
                                DualField* duals) {
  const Matrix<float>* const vs[] = {&v};
  Matrix<float>* const us[] = {&u};
  solve(vs, initial != nullptr ? DualFields(&initial, 1) : DualFields(), us,
        duals != nullptr ? std::span<DualField* const>(&duals, 1)
                         : std::span<DualField* const>());
}

void ResidentTiledEngine::account(int passes, int iterations,
                                  const parallel::EpochGraph::RunStats& rs) {
  // Every pass publishes every payload once.
  const std::uint64_t halo_floats =
      static_cast<std::uint64_t>(stats_.halo_elements_per_pass) *
      static_cast<std::uint64_t>(passes);
  stats_.element_iterations += plan_.total_buffer_elements() *
                               static_cast<std::size_t>(fields_) *
                               static_cast<std::size_t>(iterations);
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

ChambolleResult solve_resident(const Matrix<float>& v,
                               const ChambolleParams& params,
                               const TiledSolverOptions& options,
                               ResidentTiledStats* stats,
                               const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident");
  ResidentTiledEngine engine(v.rows(), v.cols(), 1, params, options);
  ChambolleResult out;
  engine.solve(v, initial, out.u, &out.p);
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.resident_solves");
  c_solves.add(1);
  if (stats != nullptr) *stats = engine.stats();
  return out;
}

}  // namespace chambolle
