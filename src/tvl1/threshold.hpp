// threshold.hpp — the TV-L1 thresholding step.
//
// "a support variable v = (v1, v2) is defined using a thresholding function
//  of I1 and of the value of u computed at the previous level" (Section II-A).
// Concretely (Zach et al. 2007): with the linearized residual
//     rho(u) = I1w + <g, u - u0> - I0,       g = grad I1w,
// the pointwise minimizer of  lambda*|rho(v)| + 1/(2*theta)|v - u|^2  is
//     v = u + lambda*theta*g          if rho(u) < -lambda*theta*|g|^2
//     v = u - lambda*theta*g          if rho(u) >  lambda*theta*|g|^2
//     v = u - rho(u)*g/|g|^2          otherwise.
#pragma once

#include "common/image.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::tvl1 {

struct ThresholdInputs {
  const Image& i0;        ///< reference frame
  const Image& i1_warped; ///< I1 warped by u0
  const Gradients& grad;  ///< gradients of the warped I1
  const FlowField& u0;    ///< linearization point
  const FlowField& u;     ///< current flow estimate
  float lambda;           ///< data weight
  float theta;            ///< coupling
};

/// rho(u) at one pixel: the linearized residual I1w + <g, u - u0> - I0 with
/// du = u - u0.  The one definition every thresholding path evaluates.
inline float linearized_residual(float i1_warped, float gx, float gy,
                                 float du1, float du2, float i0) {
  return i1_warped + gx * du1 + gy * du2 - i0;
}

/// The displacement v - u the thresholding step applies at one pixel.
struct ThresholdStep {
  float dx, dy;
};

/// The three-way split above at one pixel, with lt = lambda * theta; a
/// textureless pixel (|g|^2 <= 1e-12) inside the dead zone does not move.
inline ThresholdStep threshold_split(float rho, float gx, float gy, float lt) {
  const float g2 = gx * gx + gy * gy;
  if (rho < -lt * g2) return {lt * gx, lt * gy};
  if (rho > lt * g2) return {-lt * gx, -lt * gy};
  if (g2 > 1e-12f) return {-rho * gx / g2, -rho * gy / g2};
  return {0.f, 0.f};  // the data term gives no information
}

/// Evaluates rho(u) pointwise.
[[nodiscard]] Matrix<float> residual(const ThresholdInputs& in);

/// The thresholding (shrink) step; returns the support field v.
[[nodiscard]] FlowField threshold_step(const ThresholdInputs& in);

}  // namespace chambolle::tvl1
