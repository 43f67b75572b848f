#include "chambolle/tiled_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chambolle/tile.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {
namespace {

// Processes one tile: copy buffer, iterate locally, write back profitable.
void process_tile(const TileSpec& t, const Matrix<float>& px,
                  const Matrix<float>& py, Matrix<float>& px_out,
                  Matrix<float>& py_out, const Matrix<float>& v,
                  const TilingPlan& plan, const ChambolleParams& params,
                  int iterations, Matrix<float>& scratch) {
  const telemetry::TraceSpan span("chambolle.tiled.tile");
  // The whole tile body (buffer copy + local sweeps + write-back) is kernel
  // work for this engine; halo copies are part of its compute overhead.
  const telemetry::ProfScope prof(telemetry::LaneCause::kKernel);
  Matrix<float> bpx = px.block(t.buf_row0, t.buf_col0, t.buf_rows, t.buf_cols);
  Matrix<float> bpy = py.block(t.buf_row0, t.buf_col0, t.buf_rows, t.buf_cols);
  const Matrix<float> bv =
      v.block(t.buf_row0, t.buf_col0, t.buf_rows, t.buf_cols);
  const RegionGeometry geom{t.buf_row0, t.buf_col0, plan.frame_rows,
                            plan.frame_cols};
  iterate_region(bpx, bpy, bv, geom, params, iterations, scratch);
  const int dr = t.prof_row0 - t.buf_row0;
  const int dc = t.prof_col0 - t.buf_col0;
  for (int r = 0; r < t.prof_rows; ++r)
    for (int c = 0; c < t.prof_cols; ++c) {
      px_out(t.prof_row0 + r, t.prof_col0 + c) = bpx(dr + r, dc + c);
      py_out(t.prof_row0 + r, t.prof_col0 + c) = bpy(dr + r, dc + c);
    }
}

}  // namespace

void TiledSolverOptions::validate_schedule() const {
  if (merge_iterations <= 0)
    throw std::invalid_argument("TiledSolverOptions: merge_iterations <= 0");
  if (num_threads < 0)
    throw std::invalid_argument("TiledSolverOptions: negative num_threads");
}

void TiledSolverOptions::validate() const {
  validate_schedule();
  if (tile_rows <= 2 * merge_iterations || tile_cols <= 2 * merge_iterations)
    throw std::invalid_argument(
        "TiledSolverOptions: tile must exceed twice the merge depth");
}

ChambolleResult solve_tiled(const Matrix<float>& v,
                            const ChambolleParams& params,
                            const TiledSolverOptions& options,
                            TiledSolverStats* stats) {
  params.validate();
  options.validate();
  const telemetry::TraceSpan span("chambolle.solve_tiled");
  const int rows = v.rows(), cols = v.cols();
  const TilingPlan plan = make_tiling(rows, cols, options.tile_rows,
                                      options.tile_cols,
                                      options.merge_iterations);

  Matrix<float> px(rows, cols), py(rows, cols);
  Matrix<float> px_next(rows, cols), py_next(rows, cols);
  parallel::ThreadPool& pool = options.pool != nullptr
                                   ? *options.pool
                                   : parallel::default_pool();
  const int lanes = pool.lanes_for(options.num_threads);
  parallel::PerLane<Matrix<float>> scratch(lanes);

  int remaining = params.iterations;
  int passes = 0;
  std::size_t element_iterations = 0;
  while (remaining > 0) {
    const int k = std::min(remaining, options.merge_iterations);
    const telemetry::TraceSpan pass_span("chambolle.tiled.pass");
    pool.parallel_for(
        plan.tiles.size(), lanes,
        [&](std::size_t begin, std::size_t end, int lane) {
          for (std::size_t i = begin; i < end; ++i)
            process_tile(plan.tiles[i], px, py, px_next, py_next, v, plan,
                         params, k, scratch[lane]);
        });
    std::swap(px, px_next);
    std::swap(py, py_next);
    remaining -= k;
    ++passes;
    element_iterations +=
        plan.total_buffer_elements() * static_cast<std::size_t>(k);
  }

  // Per-tile work accounting: "profitable" elements land in the output,
  // "redundant" ones are the replicated halo work the tiling pays for
  // parallelism (the paper's computation-overhead discussion).
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("chambolle.tiled.solves");
  static telemetry::Counter& c_passes =
      telemetry::registry().counter("chambolle.tiled.passes");
  static telemetry::Counter& c_tiles =
      telemetry::registry().counter("chambolle.tiled.tiles");
  static telemetry::Counter& c_profitable =
      telemetry::registry().counter("chambolle.tiled.profitable_elements");
  static telemetry::Counter& c_redundant =
      telemetry::registry().counter("chambolle.tiled.redundant_elements");
  c_solves.add(1);
  c_passes.add(static_cast<std::uint64_t>(passes));
  c_tiles.add(static_cast<std::uint64_t>(plan.tiles.size()) *
              static_cast<std::uint64_t>(passes));
  const std::uint64_t profitable_per_pass = plan.total_profitable_elements();
  const std::uint64_t buffer_per_pass = plan.total_buffer_elements();
  c_profitable.add(profitable_per_pass * static_cast<std::uint64_t>(passes));
  c_redundant.add((buffer_per_pass - profitable_per_pass) *
                  static_cast<std::uint64_t>(passes));
  telemetry::registry()
      .gauge("chambolle.tiled.redundancy")
      .set(plan.redundancy());

  if (stats != nullptr) {
    stats->passes = passes;
    stats->tiles_per_pass = plan.tiles.size();
    stats->element_iterations = element_iterations;
    stats->useful_element_iterations =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
        static_cast<std::size_t>(params.iterations);
  }

  ChambolleResult out;
  const RegionGeometry geom = RegionGeometry::full_frame(rows, cols);
  out.u = recover_u(v, px, py, geom, params.theta);
  out.p.px = std::move(px);
  out.p.py = std::move(py);
  return out;
}

}  // namespace chambolle
