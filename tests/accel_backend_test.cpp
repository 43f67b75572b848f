#include "tvl1/accel_backend.hpp"

#include <gtest/gtest.h>

#include "chambolle/fixed_solver.hpp"
#include "tvl1/outer_loop.hpp"
#include "workloads/metrics.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle::tvl1 {
namespace {

Tvl1Params fast_params() {
  Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 3;
  p.chambolle.iterations = 20;
  return p;
}

hw::ArchConfig small_config() {
  hw::ArchConfig cfg;
  cfg.tile_rows = 40;
  cfg.tile_cols = 40;
  cfg.merge_iterations = 4;
  return cfg;
}

TEST(AccelBackend, MatchesTheFixedPointSoftwareBackendExactly) {
  // Accelerator == software fixed solver elementwise, so the whole pipeline
  // must agree bit-for-bit with the outer loop running solve_fixed on each
  // component.
  const auto wl = workloads::translating_scene(48, 48, 1.f, -0.5f, 111);
  const Tvl1Params params = fast_params();

  hw::ChambolleAccelerator accel(small_config());
  const FlowField a =
      compute_flow_accelerated(wl.frame0, wl.frame1, params, accel);

  const auto [p0, p1] = build_pyramids(wl.frame0, wl.frame1,
                                       params.pyramid_levels, pool_for(params));
  const FlowField b =
      coarse_to_fine(p0, p1, params, [&](const FlowField& v, FlowField& u) {
        u.u1 = solve_fixed(v.u1, params.chambolle).u;
        u.u2 = solve_fixed(v.u2, params.chambolle).u;
      });

  EXPECT_EQ(a.u1, b.u1);
  EXPECT_EQ(a.u2, b.u2);
}

TEST(AccelBackend, RecoversTheFlow) {
  const auto wl = workloads::translating_scene(48, 48, 1.5f, 0.5f, 113);
  Tvl1Params params = fast_params();
  params.warps = 5;
  params.chambolle.iterations = 30;
  hw::ChambolleAccelerator accel(small_config());
  const FlowField u =
      compute_flow_accelerated(wl.frame0, wl.frame1, params, accel);
  EXPECT_LT(workloads::interior_endpoint_error(u, wl.ground_truth, 6), 0.6);
}

TEST(AccelBackend, AccountsDeviceCycles) {
  const auto wl = workloads::translating_scene(64, 64, 0.5f, 0.f, 115);
  hw::ChambolleAccelerator accel(small_config());
  AccelTvl1Stats stats;
  (void)compute_flow_accelerated(wl.frame0, wl.frame1, fast_params(), accel,
                                 &stats);
  EXPECT_EQ(stats.solves, 3 * 3);  // 3 pyramid levels x 3 warps
  EXPECT_GT(stats.device_cycles, 0u);
  EXPECT_GT(stats.device_seconds(221.0), 0.0);
}

TEST(AccelBackend, RejectsBadInputs) {
  hw::ChambolleAccelerator accel(small_config());
  EXPECT_THROW((void)compute_flow_accelerated(Image(8, 8), Image(8, 9),
                                              fast_params(), accel),
               std::invalid_argument);
}

}  // namespace
}  // namespace chambolle::tvl1
