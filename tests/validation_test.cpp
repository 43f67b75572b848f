#include "common/validation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "chambolle/solver.hpp"
#include "tvl1/accel_backend.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle {
namespace {

TEST(Validation, DetectsNaN) {
  Matrix<float> m(3, 3, 1.f);
  EXPECT_FALSE(has_nonfinite(m));
  m(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(has_nonfinite(m));
}

TEST(Validation, DetectsInfinity) {
  Matrix<float> m(2, 2);
  m(0, 1) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_nonfinite(m));
  m(0, 1) = -std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_nonfinite(m));
}

TEST(Validation, RequireFiniteNamesTheOffender) {
  Matrix<float> m(2, 2);
  m(0, 0) = std::numeric_limits<float>::quiet_NaN();
  try {
    require_finite(m, "frame0");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frame0"), std::string::npos);
  }
}

// Regression: solve()/solve_flow() ran NaN inputs to completion and
// returned fully poisoned frames; the entry points must throw instead.
TEST(Validation, RofSolveRejectsNonFiniteInput) {
  Matrix<float> v(8, 8, 0.5f);
  const ChambolleParams params{.iterations = 4};
  EXPECT_NO_THROW((void)solve(v, params));
  v(3, 4) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)solve(v, params), std::invalid_argument);
  v(3, 4) = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)solve(v, params), std::invalid_argument);
}

TEST(Validation, SolveFlowRejectsNonFiniteComponents) {
  FlowField v(6, 6);
  const ChambolleParams params{.iterations = 4};
  EXPECT_NO_THROW((void)solve_flow(v, params));
  v.u2(5, 0) = -std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)solve_flow(v, params), std::invalid_argument);
}

TEST(Validation, AcceleratedFlowRejectsPoisonedFrame) {
  const Image frame0 = workloads::smooth_texture(16, 16, 1);
  Image frame1 = workloads::smooth_texture(16, 16, 2);
  tvl1::Tvl1Params params;
  params.pyramid_levels = 2;
  params.warps = 1;
  params.chambolle.iterations = 3;
  hw::ChambolleAccelerator accel{hw::ArchConfig{}};
  frame1(0, 0) = std::numeric_limits<float>::quiet_NaN();
  try {
    (void)tvl1::compute_flow_accelerated(frame0, frame1, params, accel);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // The message names the frame so a video pipeline can locate it.
    EXPECT_NE(std::string(e.what()).find("frame1"), std::string::npos);
  }
}

// Regression: every comparison with NaN is false, so NaN theta/tau/lambda
// satisfied none of the rejection conditions and validate() accepted them.
TEST(Validation, ParamsValidateRejectsNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ChambolleParams p;
  p.theta = nan;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChambolleParams{};
  p.tau = nan;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChambolleParams{};
  p.theta = std::numeric_limits<float>::infinity();
  EXPECT_THROW(p.validate(), std::invalid_argument);

  tvl1::Tvl1Params t;
  t.lambda = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// Regression: a denormal tau under a large theta makes tau/theta round to
// exactly zero — sign and ratio checks all pass, but every dual update is a
// no-op.  validate() must reject the degenerate step.
TEST(Validation, ParamsValidateRejectsUnderflowingStep) {
  ChambolleParams p;
  p.theta = 1e38f;
  p.tau = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(p.tau / p.theta, 0.f);  // the degenerate case really underflows
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Validation, ComputeFlowRejectsPoisonedFrames) {
  const Image clean = workloads::smooth_texture(16, 16, 1);
  Image poisoned = clean;
  poisoned(8, 8) = std::numeric_limits<float>::quiet_NaN();
  tvl1::Tvl1Params params;
  params.pyramid_levels = 2;
  params.warps = 2;
  params.chambolle.iterations = 5;
  EXPECT_THROW((void)tvl1::compute_flow(poisoned, clean, params),
               std::invalid_argument);
  EXPECT_THROW((void)tvl1::compute_flow(clean, poisoned, params),
               std::invalid_argument);
  EXPECT_NO_THROW((void)tvl1::compute_flow(clean, clean, params));
}

}  // namespace
}  // namespace chambolle
