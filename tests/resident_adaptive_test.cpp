// Per-tile adaptive early stopping in the resident engine: the quality
// policy against the fixed-budget reference (the adaptive solve is
// deliberately NOT bit-exact — see resident_tiled.hpp), retirement and
// termination guarantees, and the fall-back equivalence when nothing
// retires.  Suite names match the CI TSan filter (*Resident*), so the
// retirement protocol's release/acquire ordering is sanitizer-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "chambolle/energy.hpp"
#include "chambolle/resident_tiled.hpp"
#include "common/rng.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

// The quality bound of the adaptive solve against the fixed-budget
// reference: a tile only retires when its per-iteration dual update is
// under tolerance, so the primal it stops refining can drift from the
// reference by at most a small multiple of the tolerance — and the ROF
// energy it reports must not regress materially.
constexpr float kTol = 1e-4f;
constexpr double kDuBound = 100.0 * kTol;
constexpr double kEnergySlack = 1e-3;

void expect_quality_bounded(const Matrix<float>& v, float theta,
                            const ChambolleResult& ref,
                            const ChambolleResult& adaptive) {
  ASSERT_TRUE(adaptive.u.same_shape(ref.u));
  double max_du = 0.0;
  for (std::size_t i = 0; i < ref.u.size(); ++i)
    max_du = std::max(max_du, static_cast<double>(std::abs(
                                  adaptive.u.data()[i] - ref.u.data()[i])));
  EXPECT_LE(max_du, kDuBound);
  const double e_ref = rof_energy(ref.u, v, theta);
  const double e_ad = rof_energy(adaptive.u, v, theta);
  EXPECT_LE(e_ad, e_ref + kEnergySlack * (std::abs(e_ref) + 1.0));
}

// Same geometry/edge-case matrix as the bit-exact resident sweep: frame
// smaller than one tile, minimum legal windows, non-divisible ratios,
// one-axis tilings, degenerate frames, several thread counts.
struct ResidentAdaptiveCase {
  int rows, cols, tile_rows, tile_cols, merge, iterations, threads;
};

class ResidentAdaptiveQuality
    : public ::testing::TestWithParam<ResidentAdaptiveCase> {};

TEST_P(ResidentAdaptiveQuality, StaysWithinQualityBoundOfFixedBudget) {
  const ResidentAdaptiveCase& tc = GetParam();
  const Matrix<float> v = random_v(tc.rows, tc.cols, 5000 + tc.rows);
  const ChambolleParams params = params_with(tc.iterations);

  const ChambolleResult ref = solve(v, params);

  TiledSolverOptions opt;
  opt.tile_rows = tc.tile_rows;
  opt.tile_cols = tc.tile_cols;
  opt.merge_iterations = tc.merge;
  opt.num_threads = tc.threads;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = kTol;
  adaptive.patience = 2;
  ResidentRunReport report;
  const ChambolleResult res =
      Peer::solve_windowed(v, params, opt, adaptive, &report);

  expect_quality_bounded(v, params.theta, ref, res);

  // Report consistency: the cap is the fixed budget, every tile
  // ran at least one and at most cap passes, and the totals add up.
  EXPECT_EQ(report.pass_cap, (tc.iterations + tc.merge - 1) / tc.merge);
  ASSERT_EQ(report.tile_passes.size(), report.tiles);
  ASSERT_EQ(report.tile_residuals.size(), report.tiles);
  std::size_t sum = 0;
  for (const int p : report.tile_passes) {
    EXPECT_GE(p, 1);
    EXPECT_LE(p, report.pass_cap);
    sum += static_cast<std::size_t>(p);
  }
  EXPECT_EQ(report.total_tile_passes, sum);
  EXPECT_LE(report.total_tile_passes, report.fixed_budget_passes());
  EXPECT_LE(report.tiles_converged, report.tiles);
  // Iteration accounting: passes * merge, minus the truncation of the
  // remainder burst for every tile that ran the cap's final pass.
  const int tail = tc.iterations - (report.pass_cap - 1) * tc.merge;
  std::size_t expect_iters = 0;
  for (const int p : report.tile_passes) {
    expect_iters += static_cast<std::size_t>(p) * tc.merge;
    if (p == report.pass_cap && tail < tc.merge)
      expect_iters -= static_cast<std::size_t>(tc.merge - tail);
  }
  EXPECT_EQ(report.total_iterations, expect_iters);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResidentAdaptiveQuality,
    ::testing::Values(
        ResidentAdaptiveCase{32, 32, 88, 92, 4, 20, 1},
        ResidentAdaptiveCase{24, 24, 9, 9, 4, 12, 2},
        ResidentAdaptiveCase{20, 20, 3, 3, 1, 7, 2},
        ResidentAdaptiveCase{64, 64, 24, 28, 4, 16, 1},
        ResidentAdaptiveCase{64, 64, 24, 28, 4, 16, 4},
        ResidentAdaptiveCase{64, 64, 24, 28, 1, 7, 2},
        ResidentAdaptiveCase{50, 70, 20, 22, 8, 24, 3},
        ResidentAdaptiveCase{97, 53, 30, 26, 5, 13, 2},
        ResidentAdaptiveCase{90, 94, 88, 92, 4, 12, 2},
        ResidentAdaptiveCase{128, 16, 40, 16, 6, 18, 2},
        ResidentAdaptiveCase{16, 128, 16, 40, 6, 18, 2},
        ResidentAdaptiveCase{1, 1, 88, 92, 2, 9, 2},
        ResidentAdaptiveCase{61, 45, 16, 16, 2, 10, 3},
        ResidentAdaptiveCase{40, 44, 40, 44, 3, 12, 2},
        ResidentAdaptiveCase{96, 96, 20, 20, 3, 9, 4}));

TEST(ResidentAdaptive, ConstantImageRetiresEveryTileWithinPatiencePasses) {
  // A constant input is already the ROF minimizer: the dual update is
  // identically zero from the first pass, so every tile's residual is under
  // any positive tolerance immediately and it retires after exactly
  // `patience` passes — the "static content costs almost nothing" claim.
  const Matrix<float> v(96, 96, 2.f);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  opt.num_threads = 4;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-6f;
  adaptive.patience = 2;
  ResidentRunReport report;  // a cap of 50 passes
  const ChambolleResult res =
      Peer::solve_windowed(v, params_with(200), opt, adaptive, &report);

  EXPECT_TRUE(report.all_converged());
  EXPECT_EQ(report.tiles_converged, report.tiles);
  for (const int p : report.tile_passes) EXPECT_LE(p, adaptive.patience + 1);
  for (const float r : report.tile_residuals) EXPECT_EQ(r, 0.f);
  // The minimizer of a constant field is the field itself.
  EXPECT_EQ(res.u, v);
}

TEST(ResidentAdaptive, UnreachableToleranceRunsToCapWithoutDeadlock) {
  // The deliberately non-converging configuration of the acceptance
  // criteria: a tolerance no float residual can beat.  Every tile must
  // terminate via the pass cap (no EpochGraph deadlock), and since nothing
  // retires, the adaptive schedule executes exactly the fixed budget —
  // bit-exact to the non-adaptive engine even under work stealing.
  const Matrix<float> v = random_v(64, 64, 6001);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 4;
  opt.num_threads = 4;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-30f;
  adaptive.patience = 1;
  ResidentRunReport report;  // a cap of 5 passes
  const ChambolleResult res =
      Peer::solve_windowed(v, params_with(20), opt, adaptive, &report);

  EXPECT_EQ(report.tiles_converged, 0u);
  EXPECT_FALSE(report.all_converged());
  for (const int p : report.tile_passes) EXPECT_EQ(p, report.pass_cap);
  EXPECT_EQ(report.total_tile_passes, report.fixed_budget_passes());
  EXPECT_EQ(report.total_iterations, report.tiles * std::size_t{20});
  for (const float r : report.tile_residuals) EXPECT_GT(r, 0.f);

  const ChambolleResult fixed = Peer::solve_windowed(v, params_with(20), opt);
  expect_memcmp_eq(res.u, fixed.u, "u");
  expect_memcmp_eq(res.p.px, fixed.p.px, "px");
  expect_memcmp_eq(res.p.py, fixed.p.py, "py");
}

TEST(ResidentAdaptive, FixedBudgetSentinelIsBitExactOnNonMultipleBudget) {
  // iterations % merge != 0: the cap derived from the budget must reproduce
  // the fixed schedule's remainder pass (here 4+4+4+4+1) under the
  // work-queue schedule too, not round the budget up to a whole number of
  // merged passes.
  const Matrix<float> v = random_v(48, 56, 6006);
  TiledSolverOptions opt;
  opt.tile_rows = 20;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-30f;  // nothing retires
  adaptive.patience = 1;
  ResidentRunReport report;
  const ChambolleResult res =
      Peer::solve_windowed(v, params_with(17), opt, adaptive, &report);
  EXPECT_EQ(report.pass_cap, 5);  // ceil(17 / 4)
  // 17 iterations per tile, NOT pass_cap * merge = 20: total_iterations
  // discounts the truncated remainder burst (the tvl1 accounting input).
  EXPECT_EQ(report.total_iterations, report.tiles * std::size_t{17});
  const ChambolleResult fixed = Peer::solve_windowed(v, params_with(17), opt);
  expect_memcmp_eq(res.u, fixed.u, "u");
  expect_memcmp_eq(res.p.px, fixed.p.px, "px");
  expect_memcmp_eq(res.p.py, fixed.p.py, "py");
}

TEST(ResidentAdaptive, HalfStaticWorkloadSavesPasses) {
  // The acceptance workload: >= 50% of the frame constant.  The static
  // half's tiles must retire early, so the adaptive run does measurably
  // fewer tile-passes than the fixed budget.
  Matrix<float> v = random_v(96, 96, 6002);
  for (int r = 0; r < 96; ++r)
    for (int c = 0; c < 48; ++c) v(r, c) = 0.5f;
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  opt.num_threads = 4;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = kTol;
  adaptive.patience = 2;
  ResidentRunReport report;
  const ChambolleParams params = params_with(100);
  const ChambolleResult ref = solve(v, params);
  const ChambolleResult res =
      Peer::solve_windowed(v, params, opt, adaptive, &report);

  EXPECT_GT(report.tiles_converged, 0u);
  EXPECT_LT(report.total_tile_passes, report.fixed_budget_passes());
  EXPECT_GT(report.pass_savings(), 0.0);
  expect_quality_bounded(v, params.theta, ref, res);
}

TEST(ResidentAdaptive, StateStaysCoherentForFurtherRuns) {
  // A retiring run leaves the resident state and mailbox parity coherent: a
  // later fixed run() on the same engine must still work and refine the
  // solution (frozen strips are valid at both parities).
  const Matrix<float> v = random_v(64, 64, 6003);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  ResidentTiledEngine engine = Peer::windowed(v, params_with(40), opt);
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-3f;
  adaptive.patience = 1;
  (void)engine.run(20, adaptive);  // a cap of 5 passes
  const double e_mid = rof_energy(engine.result().u, v, 0.25f);
  engine.run(20);  // must not throw, deadlock, or corrupt the state
  const double e_end = rof_energy(engine.result().u, v, 0.25f);
  // Chambolle iterations are monotone in energy; further passes from any
  // valid dual state can only improve (or hold) the objective.
  EXPECT_LE(e_end, e_mid + 1e-9);
}

TEST(ResidentAdaptive, ResultIsIndependentOfThreadCount) {
  // Regression for the retirement/gather race: gather_halos picks a
  // neighbor's mailbox parity as min(g-1, frozen_pass), which is the same
  // slot under every schedule — so the adaptive result must be bit-exact
  // across lane counts even with tiles retiring at staggered passes while
  // neighbors still execute.  The old cross-parity mirror inside the
  // retiring pass could tear a concurrent gather (thread-count- and
  // timing-dependent data), which this memcmp catches deterministically
  // whenever the torn bits differ, and TSan catches always.
  Matrix<float> v = random_v(96, 96, 6007);
  for (int r = 0; r < 96; ++r)
    for (int c = 0; c < 48; ++c) v(r, c) = 0.25f;  // half retires early
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 2;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-3f;
  adaptive.patience = 1;  // retire at the first quiet pass: maximal stagger
  const ChambolleParams params = params_with(60);

  opt.num_threads = 1;
  const ChambolleResult one_lane =
      Peer::solve_windowed(v, params, opt, adaptive);
  opt.num_threads = 4;
  ResidentRunReport report;
  const ChambolleResult four_lanes =
      Peer::solve_windowed(v, params, opt, adaptive, &report);

  EXPECT_GT(report.tiles_converged, 0u);  // the race window was exercised
  expect_memcmp_eq(four_lanes.u, one_lane.u, "u");
  expect_memcmp_eq(four_lanes.p.px, one_lane.p.px, "px");
  expect_memcmp_eq(four_lanes.p.py, one_lane.p.py, "py");
}

TEST(ResidentAdaptive, StaggeredRetirementStressStaysCoherent) {
  // TSan stress for the frozen-pass protocol: noise amplitude banded by
  // column third (zero / weak / full) makes tile residuals decay at
  // tile-dependent rates, so retirements stagger across the run while busy
  // neighbors keep gathering — many concurrent retire-while-gathering
  // windows per solve.  Also covers the post-run epilogue: a fixed run()
  // follows on the same engine and must gather the mirrored frozen strips
  // at either parity.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix<float> noise = random_v(96, 96, 6100 + seed);
    Matrix<float> v(96, 96, 0.3f);
    for (int r = 0; r < 96; ++r) {
      for (int c = 32; c < 64; ++c) v(r, c) += 0.05f * noise(r, c);
      for (int c = 64; c < 96; ++c) v(r, c) += noise(r, c);
    }
    TiledSolverOptions opt;
    opt.tile_rows = 16;
    opt.tile_cols = 16;
    opt.merge_iterations = 2;
    opt.num_threads = 4;
    ResidentTiledEngine engine = Peer::windowed(v, params_with(80), opt);
    ResidentRunPolicy adaptive;
    adaptive.tolerance = 1e-4f;
    adaptive.patience = 1;
    const ResidentRunReport& report = engine.run(80, adaptive).front();
    EXPECT_GT(report.tiles_converged, 0u);
    EXPECT_LT(report.total_tile_passes, report.fixed_budget_passes());
    const double e_mid = rof_energy(engine.result().u, v, 0.25f);
    engine.run(10);
    const double e_end = rof_energy(engine.result().u, v, 0.25f);
    EXPECT_LE(e_end, e_mid + 1e-9);
  }
}

TEST(ResidentAdaptive, ReportsStolenPassesAccounting) {
  const Matrix<float> v = random_v(96, 96, 6004);
  TiledSolverOptions opt;
  opt.tile_rows = 20;
  opt.tile_cols = 20;
  opt.merge_iterations = 2;
  opt.num_threads = 4;
  ResidentRunPolicy adaptive;
  adaptive.tolerance = 1e-30f;  // nothing retires: pure scheduling test
  adaptive.patience = 1;
  ResidentRunReport report;  // a cap of 6 passes
  ResidentTiledStats stats;
  (void)Peer::solve_windowed(v, params_with(12), opt, adaptive, &report,
                             &stats);
  EXPECT_LE(report.stolen_passes, report.total_tile_passes);
  EXPECT_EQ(stats.tiles, report.tiles);
  EXPECT_GT(stats.element_iterations, 0u);
}

TEST(ResidentAdaptive, PaperIterationBudgetsAreInTheConvergentRange) {
  // The paper's 50/100/200 budgets bracket the tolerance range 1e-2..1e-4
  // on a representative field — the empirical justification of Table II's
  // iteration column.  The 32 x 32 frame plans one tile, so the retiring
  // run is a full-frame solve that checks its residual every 10 iterations
  // and stops at the first check under tolerance.
  Rng rng(59);
  const Matrix<float> v = random_image(rng, 32, 32, -2.f, 2.f);
  TiledSolverOptions opt;
  opt.merge_iterations = 10;
  ResidentRunPolicy mid;
  mid.tolerance = 1e-3f;
  mid.patience = 1;
  ResidentRunReport report;
  (void)solve_resident(v, params_with(2000), opt, mid, &report);
  ASSERT_EQ(report.tiles, 1u);
  EXPECT_TRUE(report.all_converged());
  EXPECT_GE(report.total_iterations, 20u);
  EXPECT_LE(report.total_iterations, 400u);
}

TEST(ResidentAdaptive, ValidatesOptions) {
  ResidentRunPolicy o;
  EXPECT_NO_THROW(o.validate());  // the fixed budget
  o.tolerance = -1e-4f;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.tolerance = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.tolerance = std::numeric_limits<float>::infinity();
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.patience = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.multilevel.period = 4;  // a correction needs a tolerance
  EXPECT_THROW(o.validate(), std::invalid_argument);

  const Matrix<float> v = random_v(16, 16, 6005);
  ResidentTiledEngine engine(v, params_with(4), TiledSolverOptions{});
  ResidentRunPolicy bad;
  bad.patience = 0;
  EXPECT_THROW((void)engine.run(4, bad), std::invalid_argument);
  EXPECT_THROW((void)engine.run(-1), std::invalid_argument);
}

}  // namespace
}  // namespace chambolle
