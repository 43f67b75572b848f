#include "tvl1/threshold.hpp"

#include <stdexcept>

namespace chambolle::tvl1 {
namespace {

void check(const ThresholdInputs& in) {
  if (!in.i0.same_shape(in.i1_warped) || !in.i0.same_shape(in.grad.gx) ||
      !in.i0.same_shape(in.u0.u1) || !in.i0.same_shape(in.u.u1))
    throw std::invalid_argument("threshold: shape mismatch");
  if (in.lambda <= 0.f || in.theta <= 0.f)
    throw std::invalid_argument("threshold: lambda/theta must be positive");
}

}  // namespace

Matrix<float> residual(const ThresholdInputs& in) {
  check(in);
  Matrix<float> rho(in.i0.rows(), in.i0.cols());
  for (int r = 0; r < rho.rows(); ++r)
    for (int c = 0; c < rho.cols(); ++c)
      rho(r, c) = linearized_residual(
          in.i1_warped(r, c), in.grad.gx(r, c), in.grad.gy(r, c),
          in.u.u1(r, c) - in.u0.u1(r, c), in.u.u2(r, c) - in.u0.u2(r, c),
          in.i0(r, c));
  return rho;
}

FlowField threshold_step(const ThresholdInputs& in) {
  check(in);
  const float lt = in.lambda * in.theta;
  FlowField v(in.i0.rows(), in.i0.cols());
  for (int r = 0; r < v.rows(); ++r)
    for (int c = 0; c < v.cols(); ++c) {
      const float gx = in.grad.gx(r, c), gy = in.grad.gy(r, c);
      const float rho = linearized_residual(
          in.i1_warped(r, c), gx, gy, in.u.u1(r, c) - in.u0.u1(r, c),
          in.u.u2(r, c) - in.u0.u2(r, c), in.i0(r, c));
      const ThresholdStep d = threshold_split(rho, gx, gy, lt);
      v.u1(r, c) = in.u.u1(r, c) + d.dx;
      v.u2(r, c) = in.u.u2(r, c) + d.dy;
    }
  return v;
}

}  // namespace chambolle::tvl1
