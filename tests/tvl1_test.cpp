#include "tvl1/tvl1.hpp"

#include <gtest/gtest.h>

#include "common/flow_color.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/metrics.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle::tvl1 {
namespace {

Tvl1Params fast_params() {
  Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 4;
  p.chambolle.iterations = 25;
  return p;
}

TEST(Tvl1Params, Validation) {
  Tvl1Params p;
  EXPECT_NO_THROW(p.validate());
  p.lambda = 0.f;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.pyramid_levels = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.warps = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.chambolle.tau = 1.f;  // breaks tau/theta <= 1/4
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Tvl1, RejectsMismatchedFrames) {
  const Image a(8, 8), b(8, 9);
  EXPECT_THROW(compute_flow(a, b, fast_params()), std::invalid_argument);
  EXPECT_THROW(compute_flow(Image(1, 8), Image(1, 8), fast_params()),
               std::invalid_argument);
}

TEST(Tvl1, IdenticalFramesGiveNearZeroFlow) {
  const Image img = workloads::smooth_texture(48, 48, 11);
  const FlowField u = compute_flow(img, img, fast_params());
  EXPECT_LT(max_flow_magnitude(u), 0.05f);
}

TEST(Tvl1, RecoversSubpixelTranslation) {
  const auto wl = workloads::translating_scene(48, 48, 0.6f, -0.4f, 13);
  Tvl1Params p = fast_params();
  p.pyramid_levels = 1;  // sub-pixel motion needs no pyramid
  const FlowField u = compute_flow(wl.frame0, wl.frame1, p);
  EXPECT_LT(workloads::interior_endpoint_error(u, wl.ground_truth, 4), 0.25);
}

TEST(Tvl1, RecoversMultiPixelTranslationViaPyramid) {
  const auto wl = workloads::translating_scene(64, 64, 3.f, 2.f, 17);
  const FlowField u = compute_flow(wl.frame0, wl.frame1, fast_params());
  EXPECT_LT(workloads::interior_endpoint_error(u, wl.ground_truth, 6), 0.6);
}

TEST(Tvl1, RecoversRotation) {
  const auto wl = workloads::rotating_scene(64, 64, 0.03f, 19);
  const FlowField u = compute_flow(wl.frame0, wl.frame1, fast_params());
  EXPECT_LT(workloads::interior_endpoint_error(u, wl.ground_truth, 6), 0.5);
}

TEST(Tvl1, SurvivesNoise) {
  auto wl = workloads::translating_scene(48, 48, 1.f, 0.f, 23);
  workloads::corrupt(wl, 4.f);
  const FlowField u = compute_flow(wl.frame0, wl.frame1, fast_params());
  EXPECT_LT(workloads::interior_endpoint_error(u, wl.ground_truth, 6), 0.8);
}

TEST(Tvl1, StatsReportChambolleDominance) {
  const auto wl = workloads::translating_scene(64, 64, 1.f, 1.f, 29);
  Tvl1Params p = fast_params();
  p.chambolle.iterations = 60;
  Tvl1Stats stats;
  (void)compute_flow(wl.frame0, wl.frame1, p, &stats);
  EXPECT_GT(stats.total_seconds, 0.0);
  // With the fused SIMD kernel the inner solve sits near 50% on a frame
  // this small (the paper's ~90% was unvectorized); this test checks the
  // stats bookkeeping, so only require the fraction to be substantial —
  // the Section-I dominance claim is asserted on a realistic configuration
  // in acceptance_test.cpp.
  EXPECT_GT(stats.chambolle_fraction(), 0.3);
  EXPECT_LT(stats.chambolle_fraction(), 1.0);
  EXPECT_EQ(stats.levels_processed, 3);
  EXPECT_EQ(stats.chambolle_inner_iterations,
            2LL * 60 * p.warps * p.pyramid_levels);
}

TEST(Tvl1, TiledBackendMatchesReferenceExactly) {
  // The tiled inner solver is bit-exact, so the whole pipeline must be too.
  const auto wl = workloads::translating_scene(48, 48, 1.5f, 0.5f, 31);
  Tvl1Params ref = fast_params();
  Tvl1Params tiled = fast_params();
  tiled.solver = InnerSolver::kTiled;
  tiled.tiled.tile_rows = 24;
  tiled.tiled.tile_cols = 24;
  tiled.tiled.merge_iterations = 5;
  const FlowField a = compute_flow(wl.frame0, wl.frame1, ref);
  const FlowField b = compute_flow(wl.frame0, wl.frame1, tiled);
  EXPECT_EQ(a.u1, b.u1);
  EXPECT_EQ(a.u2, b.u2);
}

TEST(Tvl1, ResidentBackendMatchesReferenceExactly) {
  // Default (cold per-warp duals): the resident engine must be bit-exact
  // through the whole pyramid, warps and levels included.
  const auto wl = workloads::translating_scene(48, 48, 1.5f, 0.5f, 31);
  Tvl1Params ref = fast_params();
  Tvl1Params res = fast_params();
  res.solver = InnerSolver::kResident;
  res.tiled.tile_rows = 24;
  res.tiled.tile_cols = 24;
  res.tiled.merge_iterations = 5;
  res.tiled.num_threads = 2;
  const FlowField a = compute_flow(wl.frame0, wl.frame1, ref);
  const FlowField b = compute_flow(wl.frame0, wl.frame1, res);
  EXPECT_EQ(a.u1, b.u1);
  EXPECT_EQ(a.u2, b.u2);
}

TEST(Tvl1, ResidentAccountsInnerIterationsOfANonMultipleBudget) {
  // The resident path's inner-iteration accounting on a budget that is not
  // a multiple of the merge depth (25 = 6*4 + 1 here): the TRUNCATED final
  // burst counts as the one iteration it runs, not a whole merged pass, and
  // the flow equals the reference solver's.
  const auto wl = workloads::translating_scene(48, 48, 1.f, 0.5f, 37);
  Tvl1Params p = fast_params();
  p.solver = InnerSolver::kResident;
  p.tiled.merge_iterations = 4;
  Tvl1Stats stats;
  const FlowField a = compute_flow(wl.frame0, wl.frame1, p, &stats);
  EXPECT_EQ(stats.chambolle_inner_iterations,
            2LL * 25 * p.warps * stats.levels_processed);
  const FlowField b = compute_flow(wl.frame0, wl.frame1, fast_params());
  EXPECT_EQ(a.u1, b.u1);
  EXPECT_EQ(a.u2, b.u2);
}

TEST(Tvl1, ResidentSolvesBothComponentsOnOneEnginePerLevel) {
  // u1 and u2 are two fields of one resident engine, built once per pyramid
  // level; tiles.passes still counts per field (one pass of the two-field
  // engine is two field passes).
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Counter& builds =
      telemetry::registry().counter("tiles.engine_builds");
  telemetry::Counter& passes = telemetry::registry().counter("tiles.passes");
  const auto wl = workloads::translating_scene(48, 48, 1.f, 0.5f, 35);
  Tvl1Params p = fast_params();
  p.solver = InnerSolver::kResident;
  p.tiled.tile_rows = 24;
  p.tiled.tile_cols = 24;
  p.tiled.merge_iterations = 5;  // 25 iterations = 5 passes per solve
  const std::uint64_t builds0 = builds.value(), passes0 = passes.value();
  Tvl1Stats stats;
  (void)compute_flow(wl.frame0, wl.frame1, p, &stats);
  EXPECT_EQ(builds.value() - builds0,
            static_cast<std::uint64_t>(stats.levels_processed));
  EXPECT_EQ(passes.value() - passes0,
            static_cast<std::uint64_t>(2 * 5 * p.warps *
                                       stats.levels_processed));
  telemetry::set_enabled(was_enabled);
}

TEST(Tvl1, FixedBackendStaysCloseToReference) {
  const auto wl = workloads::translating_scene(48, 48, 1.f, -1.f, 37);
  Tvl1Params ref = fast_params();
  Tvl1Params fixed = fast_params();
  fixed.solver = InnerSolver::kFixed;
  const FlowField a = compute_flow(wl.frame0, wl.frame1, ref);
  const FlowField b = compute_flow(wl.frame0, wl.frame1, fixed);
  // The fixed-point datapath quantizes to 1/256: the flows agree closely.
  EXPECT_LT(max_abs_diff(a.u1, b.u1), 0.35);
  EXPECT_LT(max_abs_diff(a.u2, b.u2), 0.35);
  EXPECT_LT(workloads::interior_endpoint_error(b, wl.ground_truth, 6), 0.6);
}

TEST(Tvl1, MoreWarpsDoNotHurtAccuracy) {
  const auto wl = workloads::translating_scene(48, 48, 2.f, 0.f, 41);
  Tvl1Params few = fast_params();
  few.warps = 1;
  Tvl1Params many = fast_params();
  many.warps = 6;
  const double e_few = workloads::interior_endpoint_error(
      compute_flow(wl.frame0, wl.frame1, few), wl.ground_truth, 6);
  const double e_many = workloads::interior_endpoint_error(
      compute_flow(wl.frame0, wl.frame1, many), wl.ground_truth, 6);
  EXPECT_LE(e_many, e_few + 0.05);
}

}  // namespace
}  // namespace chambolle::tvl1
