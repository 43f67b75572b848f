#include "tvl1/sweep.hpp"

#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tvl1/sweep_rows.hpp"
#include "tvl1/threshold.hpp"

namespace chambolle::tvl1 {

void sweep_rows_scalar(const SweepFrame& f, int begin, int end) {
  for (int r = begin; r < end; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(f.cols);
    const float* u1 = f.u1 + row;
    const float* u2 = f.u2 + row;
    const float* f0 = f.i0 + row;
    float* v1 = f.v1 + row;
    float* v2 = f.v2 + row;
    for (int c = 0; c < f.cols; ++c) {
      const BilinearTaps t = bilinear_taps(static_cast<float>(r) + u2[c],
                                           static_cast<float>(c) + u1[c],
                                           f.rows, f.cols);
      const float gx = sample_taps(f.gx, t);
      const float gy = sample_taps(f.gy, t);
      // u - u0 is +0 exactly (u is the linearization point); keeping the
      // terms keeps the residual's bits those of threshold_step().
      const float rho =
          linearized_residual(sample_taps(f.i1, t), gx, gy, 0.f, 0.f, f0[c]);
      const ThresholdStep d = threshold_split(rho, gx, gy, f.lt);
      v1[c] = u1[c] + d.dx;
      v2[c] = u2[c] + d.dy;
    }
  }
}

SweepRowsFn select_sweep_rows(kernels::Backend b, std::size_t rows,
                              std::size_t cols) {
  if (b == kernels::Backend::kAvx512 && gather_indices_fit(rows, cols))
    if (const SweepRowsFn simd = sweep_rows_avx512()) return simd;
  return &sweep_rows_scalar;
}

void warp_threshold_into(const Image& i0, const Image& i1,
                         const Gradients& i1_grad, const FlowField& u,
                         float lambda, float theta, FlowField& v,
                         parallel::ThreadPool& pool, int lanes) {
  if (!i0.same_shape(i1) || !i0.same_shape(i1_grad.gx) ||
      !i0.same_shape(i1_grad.gy) || !i0.same_shape(u.u1) ||
      !i0.same_shape(u.u2))
    throw std::invalid_argument("warp_threshold_into: shape mismatch");
  if (!(lambda > 0.f) || !(theta > 0.f))
    throw std::invalid_argument(
        "warp_threshold_into: lambda/theta must be positive");
  const int rows = i0.rows(), cols = i0.cols();
  if (!v.u1.same_shape(i0)) v.u1.resize(rows, cols);
  if (!v.u2.same_shape(i0)) v.u2.resize(rows, cols);

  const SweepFrame frame{i1.data().data(),   i1_grad.gx.data().data(),
                         i1_grad.gy.data().data(),
                         i0.data().data(),   u.u1.data().data(),
                         u.u2.data().data(), v.u1.data().data(),
                         v.u2.data().data(), rows,
                         cols,               lambda * theta};
  const SweepRowsFn sweep_rows =
      select_sweep_rows(kernels::active_backend(),
                        static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(cols));
  parallel::parallel_rows(
      pool, rows, cols, lanes, parallel::kComputeChunkCells,
      [&](int begin, int end) { sweep_rows(frame, begin, end); });
}

}  // namespace chambolle::tvl1
