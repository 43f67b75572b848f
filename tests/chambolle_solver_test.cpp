#include "chambolle/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "chambolle/energy.hpp"
#include "common/rng.hpp"
#include "grid/diff_ops.hpp"
#include "telemetry/convergence.hpp"

namespace chambolle {
namespace {

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

Matrix<float> step_image(int rows, int cols, float lo, float hi) {
  Matrix<float> v(rows, cols, lo);
  for (int r = 0; r < rows; ++r)
    for (int c = cols / 2; c < cols; ++c) v(r, c) = hi;
  return v;
}

TEST(ChambolleParams, ValidatesStabilityBound) {
  ChambolleParams p;
  EXPECT_NO_THROW(p.validate());
  p.tau = 0.3f;  // tau/theta = 1.2 > 1/4
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.theta = -1.f;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.iterations = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ChambolleSolver, ZeroIterationsIsIdentityOnP) {
  Rng rng(3);
  const Matrix<float> v = random_image(rng, 8, 8, -1.f, 1.f);
  const ChambolleResult r = solve(v, params_with(0));
  for (float p : r.p.px) EXPECT_FLOAT_EQ(p, 0.f);
  for (float p : r.p.py) EXPECT_FLOAT_EQ(p, 0.f);
  // With p = 0, u = v.
  EXPECT_EQ(r.u, v);
}

TEST(ChambolleSolver, ConstantInputIsFixedPoint) {
  // For constant v, Term is constant, its forward gradient is zero, so p
  // stays zero and u == v at every iteration.
  const Matrix<float> v(10, 12, 3.5f);
  const ChambolleResult r = solve(v, params_with(50));
  for (float p : r.p.px) EXPECT_FLOAT_EQ(p, 0.f);
  for (float p : r.p.py) EXPECT_FLOAT_EQ(p, 0.f);
  EXPECT_EQ(r.u, v);
}

TEST(ChambolleSolver, DualStaysInUnitBall) {
  Rng rng(5);
  const Matrix<float> v = random_image(rng, 16, 16, -8.f, 8.f);
  const ChambolleResult r = solve(v, params_with(100));
  EXPECT_LE(max_dual_magnitude(r.p.px, r.p.py), 1.0 + 1e-5);
}

TEST(ChambolleSolver, EnergyDecreasesAlongIterations) {
  Rng rng(7);
  Matrix<float> v = step_image(24, 24, -2.f, 2.f);
  add_gaussian_noise(rng, v, 0.3f);
  const ChambolleParams params = params_with(0);

  double prev = rof_energy(v, v, params.theta);  // u_0 = v (p = 0)
  DualField p(24, 24);
  Matrix<float> scratch;
  const RegionGeometry geom = RegionGeometry::full_frame(24, 24);
  for (int it = 1; it <= 60; ++it) {
    iterate_region(p.px, p.py, v, geom, params, 1, scratch);
    const Matrix<float> u = recover_u(v, p.px, p.py, geom, params.theta);
    const double e = rof_energy(u, v, params.theta);
    EXPECT_LE(e, prev + 1e-6) << "iteration " << it;
    prev = e;
  }
}

TEST(ChambolleSolver, ConvergesToAFixedPoint) {
  Rng rng(9);
  const Matrix<float> v = random_image(rng, 12, 12, -1.f, 1.f);
  const ChambolleResult a = solve(v, params_with(800));
  const ChambolleResult b = solve(v, params_with(1000));
  EXPECT_LT(max_abs_diff(a.u, b.u), 2e-3);
}

TEST(ChambolleSolver, PaperIterationBudgetsAreInTheConvergentRange) {
  // The paper's 50/100/200 budgets bracket the tolerance range 1e-2..1e-4
  // on a representative field — the empirical justification of Table II's
  // iteration column.  Checked every 10 iterations: the first check whose
  // single-iteration max |dp| is under 1e-3 lies inside that range.
  Rng rng(59);
  const Matrix<float> v = random_image(rng, 32, 32, -2.f, 2.f);
  telemetry::ConvergenceTrace trace;
  (void)solve(v, params_with(2000), nullptr, &trace);
  int stilled = 0;
  for (const telemetry::ConvergencePoint& pt : trace.points())
    if (pt.iteration % 10 == 0 && pt.max_delta_p < 1e-3) {
      stilled = pt.iteration;
      break;
    }
  EXPECT_GE(stilled, 20);
  EXPECT_LE(stilled, 400);
}

TEST(ChambolleSolver, SmoothsAStepEdge) {
  // TV denoising shrinks the jump of a noisy step while keeping it centered:
  // the result must be closer to the clean step than the noisy input is.
  Rng rng(11);
  const Matrix<float> clean = step_image(16, 32, 0.f, 4.f);
  Matrix<float> noisy = clean;
  add_gaussian_noise(rng, noisy, 0.5f);
  const ChambolleResult r = solve(noisy, params_with(200));
  EXPECT_LT(l2_distance_sq(r.u, clean), l2_distance_sq(noisy, clean));
}

TEST(ChambolleSolver, ReducesTotalVariation) {
  Rng rng(13);
  Matrix<float> v = random_image(rng, 20, 20, -1.f, 1.f);
  const ChambolleResult r = solve(v, params_with(100));
  EXPECT_LT(total_variation(r.u), total_variation(v));
}

TEST(ChambolleSolver, WarmStartMatchesContinuedIterations) {
  // solve(v, 2n) == solve with n iterations, then n more from the dual state:
  // the iteration is a deterministic map on p.
  Rng rng(15);
  const Matrix<float> v = random_image(rng, 10, 14, -2.f, 2.f);
  const ChambolleResult full = solve(v, params_with(40));
  const ChambolleResult half = solve(v, params_with(20));
  const ChambolleResult resumed = solve(v, params_with(20), &half.p);
  EXPECT_EQ(resumed.u, full.u);
  EXPECT_EQ(resumed.p.px, full.p.px);
  EXPECT_EQ(resumed.p.py, full.p.py);
}

TEST(ChambolleSolver, RecoverUFormula) {
  Rng rng(17);
  const Matrix<float> v = random_image(rng, 9, 9, -1.f, 1.f);
  const ChambolleResult r = solve(v, params_with(10));
  const Matrix<float> div = grid::divergence(r.p.px, r.p.py);
  for (int rr = 0; rr < 9; ++rr)
    for (int cc = 0; cc < 9; ++cc)
      EXPECT_NEAR(r.u(rr, cc), v(rr, cc) - 0.25f * div(rr, cc), 1e-5);
}

TEST(ChambolleSolver, InitialDualShapeMismatchThrows) {
  const Matrix<float> v(4, 4);
  DualField wrong(3, 3);
  EXPECT_THROW(solve(v, params_with(1), &wrong), std::invalid_argument);
}

TEST(ChambolleSolver, InitialDualSingleComponentMismatchThrows) {
  // Regression: validation used to run after the copy and only looked at px,
  // so a py-only mismatch slipped through.  Both components must be checked
  // up front, before any state is built from the initial dual.
  const Matrix<float> v(4, 4);
  DualField bad_py(4, 4);
  bad_py.py = Matrix<float>(5, 4);
  EXPECT_THROW(solve(v, params_with(1), &bad_py), std::invalid_argument);

  DualField bad_px(4, 4);
  bad_px.px = Matrix<float>(4, 3);
  EXPECT_THROW(solve(v, params_with(1), &bad_px), std::invalid_argument);
}

TEST(ChambolleSolver, RegionWindowExceedingFrameThrows) {
  Matrix<float> px(4, 4), py(4, 4), v(4, 4), scratch;
  const RegionGeometry bad{2, 2, 5, 5};  // 2+4 > 5
  EXPECT_THROW(
      iterate_region(px, py, v, bad, params_with(1), 1, scratch),
      std::invalid_argument);
}

TEST(ChambolleSolver, SolveFlowHandlesBothComponents) {
  Rng rng(19);
  FlowField v(8, 8);
  v.u1 = random_image(rng, 8, 8, -1.f, 1.f);
  v.u2 = random_image(rng, 8, 8, -1.f, 1.f);
  const FlowField u = solve_flow(v, params_with(30));
  EXPECT_EQ(u.u1, solve(v.u1, params_with(30)).u);
  EXPECT_EQ(u.u2, solve(v.u2, params_with(30)).u);
}

TEST(ChambolleSolver, SolveFlowWarmStartMatchesComponentSolves) {
  // solve_flow's optional initial/final duals must behave exactly like the
  // per-component solve() warm-start path (the video_runner carry).
  Rng rng(21);
  FlowField v(8, 10);
  v.u1 = random_image(rng, 8, 10, -1.f, 1.f);
  v.u2 = random_image(rng, 8, 10, -1.f, 1.f);

  const ChambolleResult half1 = solve(v.u1, params_with(15));
  const ChambolleResult half2 = solve(v.u2, params_with(15));
  DualField final_u1, final_u2;
  const FlowField resumed = solve_flow(v, params_with(15), &half1.p, &half2.p,
                                       &final_u1, &final_u2);

  const ChambolleResult full1 = solve(v.u1, params_with(30));
  const ChambolleResult full2 = solve(v.u2, params_with(30));
  EXPECT_EQ(resumed.u1, full1.u);
  EXPECT_EQ(resumed.u2, full2.u);
  EXPECT_EQ(final_u1.px, full1.p.px);
  EXPECT_EQ(final_u1.py, full1.p.py);
  EXPECT_EQ(final_u2.px, full2.p.px);
  EXPECT_EQ(final_u2.py, full2.p.py);
}

TEST(ChambolleSolver, SolveFlowRejectsMismatchedInitialDuals) {
  FlowField v(6, 6);
  DualField wrong(5, 6);
  EXPECT_THROW(solve_flow(v, params_with(1), &wrong, nullptr),
               std::invalid_argument);
  EXPECT_THROW(solve_flow(v, params_with(1), nullptr, &wrong),
               std::invalid_argument);
}

// Degenerate geometries must not crash and must behave like 1-D TV.
class DegenerateShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DegenerateShapes, SolvesWithoutError) {
  const auto [rows, cols] = GetParam();
  Rng rng(23);
  const Matrix<float> v = random_image(rng, rows, cols, -1.f, 1.f);
  const ChambolleResult r = solve(v, params_with(25));
  EXPECT_EQ(r.u.rows(), rows);
  EXPECT_EQ(r.u.cols(), cols);
  EXPECT_LE(max_dual_magnitude(r.p.px, r.p.py), 1.0 + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DegenerateShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 16},
                                           std::pair{16, 1}, std::pair{2, 2},
                                           std::pair{3, 64}, std::pair{64, 3}));

}  // namespace
}  // namespace chambolle
