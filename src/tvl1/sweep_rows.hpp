// sweep_rows.hpp — internal: the row kernels of the warp -> threshold sweep.
//
// warp_threshold_into() (sweep.hpp) chunks a frame's rows over a pool and
// runs one of two row kernels on each chunk: the portable scalar loop, or a
// 16-lane AVX-512F loop (sweep_avx512.cpp) that repeats the scalar
// arithmetic operation for operation, so both write the same bits.  The
// choice follows the kernel layer's dispatch (kernels::active_backend()):
// the SIMD rows run when the backend is kAvx512, the scalar rows otherwise —
// CHAMBOLLE_KERNEL=scalar forces them.  Declared here for the sweep and its
// tests; nothing else calls the rows directly.
#pragma once

#include <cstddef>

#include "kernels/kernel.hpp"

namespace chambolle::tvl1 {

/// One sweep's frame-level operands: row-major rows x cols grids.  The i1
/// and gradient grids are gathered from anywhere; the i0, u and v grids are
/// read and written at the swept cells only.
struct SweepFrame {
  const float* i1 = nullptr;
  const float* gx = nullptr;  ///< d i1 / d col
  const float* gy = nullptr;  ///< d i1 / d row
  const float* i0 = nullptr;
  const float* u1 = nullptr;
  const float* u2 = nullptr;
  float* v1 = nullptr;
  float* v2 = nullptr;
  int rows = 0;
  int cols = 0;
  float lt = 0.f;  ///< lambda * theta
};

/// Sweeps rows [begin, end) of the frame.
using SweepRowsFn = void (*)(const SweepFrame&, int begin, int end);

/// The portable rows: bilinear_taps / sample_taps / linearized_residual /
/// threshold_split per cell.  The fallback, and the reference the SIMD rows
/// are tested against.
void sweep_rows_scalar(const SweepFrame& f, int begin, int end);

/// The AVX-512F rows, or nullptr when the compiler lacks -mavx512f.  Only
/// callable on a CPU with AVX-512F.
[[nodiscard]] SweepRowsFn sweep_rows_avx512();

/// True when every cell of a rows x cols grid has an int32 flat index — the
/// SIMD rows gather through 32-bit indices, so a larger frame takes the
/// scalar rows.
[[nodiscard]] constexpr bool gather_indices_fit(std::size_t rows,
                                                std::size_t cols) {
  return cols == 0 || rows <= 2147483647ull / cols;
}

/// The rows a rows x cols sweep runs on under kernel backend `b`.
[[nodiscard]] SweepRowsFn select_sweep_rows(kernels::Backend b,
                                            std::size_t rows,
                                            std::size_t cols);

}  // namespace chambolle::tvl1
