// params.hpp — parameters of the Chambolle fixed-point iteration.
//
// theta and tau are the "predefined values that determine the precision"
// (Section II-A).  Chambolle's convergence proof requires tau/theta <= 1/4
// for this discretization; the defaults sit exactly on that bound.
#pragma once

#include <cmath>
#include <stdexcept>

namespace chambolle {

struct ChambolleParams {
  /// Quadratic coupling weight of the ROF sub-problem (u = v - theta*div p).
  float theta = 0.25f;
  /// Dual ascent step.  Stability requires tau/theta <= 1/4.
  float tau = 0.0625f;
  /// Number of fixed-point iterations (the paper evaluates 50/100/200).
  int iterations = 100;

  /// Throws std::invalid_argument when the parameters violate the stability
  /// bound or are non-positive.
  void validate() const {
    // The explicit isfinite checks matter: every comparison with NaN is
    // false, so a NaN theta/tau would sail through the sign and ratio tests
    // below and poison the solve (found by the structured fuzz harness).
    if (!std::isfinite(theta) || !std::isfinite(tau))
      throw std::invalid_argument("ChambolleParams: non-finite theta/tau");
    if (theta <= 0.f) throw std::invalid_argument("ChambolleParams: theta <= 0");
    if (tau <= 0.f) throw std::invalid_argument("ChambolleParams: tau <= 0");
    if (iterations < 0)
      throw std::invalid_argument("ChambolleParams: negative iterations");
    if (tau / theta > 0.25f + 1e-6f)
      throw std::invalid_argument(
          "ChambolleParams: tau/theta > 1/4 breaks convergence");
    if (tau / theta <= 0.f)
      throw std::invalid_argument(
          "ChambolleParams: tau/theta underflows to zero (no-op update)");
  }

  /// The combined step tau/theta that appears in Algorithm 1 lines 7-8.
  [[nodiscard]] float step() const { return tau / theta; }
};

}  // namespace chambolle
