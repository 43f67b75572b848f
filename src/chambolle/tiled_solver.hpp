// tiled_solver.hpp — the paper's parallel Chambolle: loop decomposition +
// sliding windows, realized with CPU threads instead of PE arrays.
//
// Iterations are merged in groups of `merge_iterations` (= the halo width).
// Each pass, every tile buffer is loaded with the pre-pass global state
// (including halo), iterated locally K times with locally resolved
// dependencies, and its PROFITABLE rectangle written back.  Because the
// profitable rectangles partition the frame and the per-element arithmetic is
// shared with the reference solver, the result is bit-exact equal to the
// sequential full-frame solver — the machine-checkable form of the paper's
// correctness argument.
#pragma once

#include <cstddef>

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tile.hpp"
#include "common/image.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle {

struct TiledSolverOptions {
  /// Sliding-window buffer size of solve_tiled; the paper's hardware uses
  /// 88 x 92.  The resident engine plans its own tiling (plan_tiling) and
  /// ignores these two.
  int tile_rows = 88;
  int tile_cols = 92;
  /// Iterations merged per pass (K); the halo/profitable margin equals K.
  int merge_iterations = 4;
  /// Worker threads; 0 means the default pool's configured width.
  int num_threads = 0;
  /// Pool the solve's parallel regions run on; nullptr means the process-wide
  /// default_pool().  A ThreadPool serializes concurrent regions, so N
  /// engines sharing one pool take turns — the serving fleet
  /// (src/serving/) hands every engine its own lane-partitioned pool
  /// through this field so concurrent sessions actually overlap.  The
  /// pointer is not owned; it must outlive every solve that uses it.
  parallel::ThreadPool* pool = nullptr;

  /// Throws std::invalid_argument unless merge_iterations > 0 and
  /// num_threads >= 0: the fields every tiled engine reads, and all the
  /// resident engine checks.
  void validate_schedule() const;
  /// validate_schedule(), and the window must exceed twice the merge depth
  /// (solve_tiled).
  void validate() const;
};

/// Statistics of a tiled solve, used by the overhead benches (E6).
struct TiledSolverStats {
  int passes = 0;
  std::size_t tiles_per_pass = 0;
  /// Total element-iterations executed, including redundant halo work.
  std::size_t element_iterations = 0;
  /// Element-iterations a full-frame solver would execute (pixels * iters).
  std::size_t useful_element_iterations = 0;
  /// Redundant work fraction: executed/useful - 1.
  [[nodiscard]] double overhead() const {
    if (useful_element_iterations == 0) return 0.0;
    return static_cast<double>(element_iterations) /
               static_cast<double>(useful_element_iterations) -
           1.0;
  }
};

/// Solves one component with the tiled parallel scheme.  `stats`, when
/// non-null, receives the work accounting.
[[nodiscard]] ChambolleResult solve_tiled(const Matrix<float>& v,
                                          const ChambolleParams& params,
                                          const TiledSolverOptions& options,
                                          TiledSolverStats* stats = nullptr);

/// Runs one merged pass over all tiles of `plan`: reads (px, py) and writes
/// the updated state into (px_out, py_out).  Exposed separately so tests can
/// exercise individual passes.  `iterations_this_pass` must be <= plan.halo.
void run_tiled_pass(const Matrix<float>& px, const Matrix<float>& py,
                    Matrix<float>& px_out, Matrix<float>& py_out,
                    const Matrix<float>& v, const TilingPlan& plan,
                    const ChambolleParams& params, int iterations_this_pass,
                    int num_threads);

}  // namespace chambolle
