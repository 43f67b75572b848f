// row_parallel.hpp — the obvious-but-inferior parallelization, for contrast.
//
// Section II-B notes that existing Chambolle implementations are "essentially
// sequential" because of the inter-iteration dependencies.  The natural
// alternative to the paper's sliding windows is to parallelize WITHIN one
// iteration: split the frame into horizontal strips, compute all Terms, then
// all dual updates, with a barrier between phases and between iterations (a
// GPU-style schedule).  This is numerically identical to the reference
// solver (it performs the exact same Jacobi iteration), but it synchronizes
// every iteration instead of every `merge` iterations — on hardware, that is
// the difference between streaming tiles through on-chip memory and touching
// the whole frame every iteration.  The ablation benches quantify it.
#pragma once

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "common/image.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle {

struct RowParallelOptions {
  /// Worker threads; 0 means the default pool's configured width.
  int num_threads = 0;
  /// Rows per work unit handed to a thread.
  int rows_per_strip = 16;

  void validate() const;
};

/// Statistics of a row-parallel solve.
struct RowParallelStats {
  int barriers = 0;          ///< synchronization points executed
  std::size_t strips = 0;    ///< work units per phase
};

/// Solves one component with the barrier-per-iteration schedule.  The result
/// is bit-exact equal to the sequential reference solver.
[[nodiscard]] ChambolleResult solve_row_parallel(
    const Matrix<float>& v, const ChambolleParams& params,
    const RowParallelOptions& options, RowParallelStats* stats = nullptr);

}  // namespace chambolle
