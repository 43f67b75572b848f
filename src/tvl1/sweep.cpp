#include "tvl1/sweep.hpp"

#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "tvl1/threshold.hpp"

namespace chambolle::tvl1 {

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

  const float lt = lambda * theta;
  const float* img = i1.data().data();
  const float* gxs = i1_grad.gx.data().data();
  const float* gys = i1_grad.gy.data().data();
  const auto sweep_rows = [&](int begin, int end) {
    for (int r = begin; r < end; ++r) {
      const float* u1 = &u.u1(r, 0);
      const float* u2 = &u.u2(r, 0);
      const float* f0 = &i0(r, 0);
      float* v1 = &v.u1(r, 0);
      float* v2 = &v.u2(r, 0);
      for (int c = 0; c < cols; ++c) {
        const BilinearTaps t = bilinear_taps(static_cast<float>(r) + u2[c],
                                             static_cast<float>(c) + u1[c],
                                             rows, cols);
        const float gx = sample_taps(gxs, t);
        const float gy = sample_taps(gys, t);
        // u - u0 is +0 exactly (u is the linearization point); keeping the
        // terms keeps the residual's bits those of threshold_step().
        const float rho =
            linearized_residual(sample_taps(img, t), gx, gy, 0.f, 0.f, f0[c]);
        const ThresholdStep d = threshold_split(rho, gx, gy, lt);
        v1[c] = u1[c] + d.dx;
        v2[c] = u2[c] + d.dy;
      }
    }
  };
  parallel::parallel_rows(pool, rows, cols, lanes, parallel::kComputeChunkCells,
                          sweep_rows);
}

}  // namespace chambolle::tvl1
