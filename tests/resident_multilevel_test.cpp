// resident_multilevel_test.cpp — the coarse-grid correction policy of
// ResidentTiledEngine::run(), composed with per-tile adaptive early
// stopping.  Pins the disabled-path bit-exactness (multilevel off IS the
// adaptive policy, and with nothing retiring IS the fixed budget), schedule
// independence of applied corrections across lane counts, the retired-tile
// protocol (corrections reach frozen tiles; large ones resurrect them), the
// rendezvous/progress-gate accounting, and the acceleration claim itself on
// the stiff smooth regime the correction targets.  Suite names match the CI
// TSan filter (*Resident*), so the rendezvous window's release/acquire
// ordering is sanitizer-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "chambolle/energy.hpp"
#include "chambolle/resident_tiled.hpp"
#include "common/rng.hpp"
#include "testing/resident_peer.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

// The regime the coarse correction exists for: smooth low-frequency content
// under a large coupling weight, where the fine fixed-point drains the
// low-frequency error at O(1/theta) per pass.  tau tracks theta to keep the
// kernel step at Chambolle's stability bound.
ChambolleParams stiff_params_with(int iterations) {
  ChambolleParams p;
  p.theta = 50.f;
  p.tau = 0.25f * p.theta;
  p.iterations = iterations;
  return p;
}

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

// The same policy with the correction switched off.
ResidentRunPolicy adaptive_only(ResidentRunPolicy policy) {
  policy.multilevel.period = 0;
  return policy;
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

void expect_result_memcmp_eq(const ChambolleResult& a,
                             const ChambolleResult& b) {
  expect_memcmp_eq(a.u, b.u, "u");
  expect_memcmp_eq(a.p.px, b.p.px, "px");
  expect_memcmp_eq(a.p.py, b.p.py, "py");
}

float max_du(const Matrix<float>& a, const Matrix<float>& b) {
  float best = 0.f;
  for (std::size_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(a.data()[i] - b.data()[i]));
  return best;
}

TEST(ResidentMultilevel, DisabledIsBitExactToAdaptive) {
  // period <= 0 must run the plain adaptive schedule verbatim — same bits,
  // and a report that says the correction machinery never woke up.
  const Matrix<float> v = random_v(64, 64, 7001);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 4;
  opt.num_threads = 3;
  const ChambolleParams params = params_with(24);
  ResidentRunPolicy ml;
  ml.tolerance = 1e-4f;
  ml.patience = 2;
  ml.multilevel.period = 0;  // disabled
  ResidentRunReport report;
  const ChambolleResult res = Peer::solve_windowed(v, params, opt, ml, &report);
  const ChambolleResult ref =
      Peer::solve_windowed(v, params, opt, adaptive_only(ml));
  expect_result_memcmp_eq(res, ref);
  EXPECT_EQ(report.coarse_levels, 0);
  EXPECT_EQ(report.coarse_solves, 0u);
  EXPECT_EQ(report.coarse_gated, 0u);
  EXPECT_EQ(report.tiles_unretired, 0u);
}

TEST(ResidentMultilevel, DisabledFixedBudgetIsBitExactToFixedEngine) {
  // The acceptance criterion's memcmp chain: correction off + unreachable
  // tolerance (nothing retires) == the fixed budget.
  const Matrix<float> v = random_v(48, 56, 7002);
  TiledSolverOptions opt;
  opt.tile_rows = 20;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  const ChambolleParams params = params_with(17);  // non-multiple remainder
  ResidentRunPolicy ml;
  ml.tolerance = 1e-30f;
  ml.patience = 1;
  ml.multilevel.period = 0;
  const ChambolleResult res = Peer::solve_windowed(v, params, opt, ml);
  const ChambolleResult fixed = Peer::solve_windowed(v, params, opt);
  expect_result_memcmp_eq(res, fixed);
}

TEST(ResidentMultilevel, FrameTooSmallToCoarsenRunsAsAdaptive) {
  // coarse_extent must stay >= 4 cells: a 6x6 frame cannot coarsen, so an
  // enabled period is silently a no-op (bit for bit), not an error.
  const Matrix<float> v = random_v(6, 6, 7003);
  TiledSolverOptions opt;
  opt.tile_rows = 4;
  opt.tile_cols = 4;
  opt.merge_iterations = 1;
  opt.num_threads = 2;
  const ChambolleParams params = params_with(12);
  ResidentRunPolicy ml;
  ml.tolerance = 1e-4f;
  ml.patience = 1;
  ml.multilevel.period = 2;
  ResidentRunReport report;
  const ChambolleResult res = Peer::solve_windowed(v, params, opt, ml, &report);
  const ChambolleResult ref =
      Peer::solve_windowed(v, params, opt, adaptive_only(ml));
  expect_result_memcmp_eq(res, ref);
  EXPECT_EQ(report.coarse_levels, 0);
  EXPECT_EQ(report.coarse_solves, 0u);
}

TEST(ResidentMultilevel, CorrectionAcceleratesStiffSmoothContent) {
  // The point of the PR: on smooth content with a large theta the fine
  // iteration drains low-frequency error slowly, and the periodic V-cycle
  // must land the same pass budget measurably closer to the minimizer than
  // the plain adaptive engine.
  const Image v = workloads::smooth_texture(128, 128, 7004);
  const ChambolleParams params = stiff_params_with(96);
  ChambolleParams ref_params = params;
  ref_params.iterations = 4000;  // converged reference
  const ChambolleResult star = solve(v, ref_params);

  TiledSolverOptions opt;
  opt.tile_rows = 32;
  opt.tile_cols = 32;
  opt.merge_iterations = 4;
  opt.num_threads = 4;
  ResidentRunPolicy ml;
  ml.tolerance = 1e-6f;  // nothing retires: isolate the correction
  ml.patience = 2;
  ml.multilevel.period = 4;
  ResidentRunReport report;
  const ChambolleResult corrected =
      Peer::solve_windowed(v, params, opt, ml, &report);
  const ChambolleResult plain =
      Peer::solve_windowed(v, params, opt, adaptive_only(ml));

  EXPECT_GE(report.coarse_levels, 1);
  EXPECT_GE(report.coarse_solves, 1u);
  const float err_corrected = max_du(corrected.u, star.u);
  const float err_plain = max_du(plain.u, star.u);
  // Measured ~2x or better in this regime; assert a conservative margin.
  EXPECT_LT(err_corrected, 0.75f * err_plain)
      << "corrected " << err_corrected << " vs plain " << err_plain;
  // And the correction must not regress the ROF objective (lower = better).
  const double e_plain = rof_energy(plain.u, v, params.theta);
  EXPECT_LE(rof_energy(corrected.u, v, params.theta),
            e_plain + 1e-3 * (std::abs(e_plain) + 1.0));
}

TEST(ResidentMultilevel, GateDeclinesCorrectionsOnNoise) {
  // The opposite regime: pure noise at the default theta churns the dual
  // while the primal barely moves — every post-baseline firing must be
  // declined by the progress gate, leaving the adaptive result untouched.
  const Matrix<float> v = random_v(64, 64, 7005);
  TiledSolverOptions opt;
  opt.tile_rows = 32;
  opt.tile_cols = 32;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  const ChambolleParams params = params_with(64);
  ResidentRunPolicy ml;
  ml.tolerance = 1e-30f;  // nothing retires
  ml.patience = 1;
  ml.multilevel.period = 4;
  ResidentRunReport report;
  const ChambolleResult res = Peer::solve_windowed(v, params, opt, ml, &report);
  EXPECT_EQ(report.coarse_solves, 0u);
  EXPECT_GT(report.coarse_gated, 1u);  // baseline + declined firings
  const ChambolleResult ref =
      Peer::solve_windowed(v, params, opt, adaptive_only(ml));
  expect_result_memcmp_eq(res, ref);
}

TEST(ResidentMultilevel, ResultIsIndependentOfThreadCount) {
  // Schedule independence with corrections actually firing: gate_factor 0
  // fires every post-baseline rendezvous, and the exclusive-window protocol
  // must make the applied corrections (and therefore all bits) identical
  // across lane counts.
  const Image v = workloads::smooth_texture(96, 96, 7006);
  const ChambolleParams params = stiff_params_with(48);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  ResidentRunPolicy ml;
  ml.tolerance = 1e-5f;
  ml.patience = 2;
  ml.multilevel.period = 3;
  ml.multilevel.gate_factor = 0.f;

  opt.num_threads = 1;
  ResidentRunReport r1;
  const ChambolleResult one = Peer::solve_windowed(v, params, opt, ml, &r1);
  opt.num_threads = 4;
  ResidentRunReport r4;
  const ChambolleResult four =
      Peer::solve_windowed(v, params, opt, ml, &r4);

  EXPECT_GE(r4.coarse_solves, 1u);  // the window was exercised
  EXPECT_EQ(r1.coarse_solves, r4.coarse_solves);
  EXPECT_EQ(r1.coarse_gated, r4.coarse_gated);
  EXPECT_EQ(r1.tiles_unretired, r4.tiles_unretired);
  expect_result_memcmp_eq(four, one);
}

TEST(ResidentMultilevel, CorrectionsReachRetiredTilesAndCanUnretire) {
  // A half-constant frame retires its static tiles early; with
  // unretire_factor 0 any nonzero correction inside a retired tile's
  // profitable region must resurrect it, and the final state must stay a
  // valid solve (energy no worse than the plain adaptive run).
  Image v = workloads::smooth_texture(96, 96, 7007);
  for (int r = 0; r < 96; ++r)
    for (int c = 0; c < 48; ++c) v(r, c) = 0.25f;
  const ChambolleParams params = stiff_params_with(80);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 4;
  opt.num_threads = 4;
  ResidentRunPolicy ml;
  ml.tolerance = 1e-3f;
  ml.patience = 1;
  ml.multilevel.period = 4;
  ml.multilevel.gate_factor = 0.f;
  ml.multilevel.unretire_factor = 0.f;
  ResidentRunReport eager;
  const ChambolleResult res =
      Peer::solve_windowed(v, params, opt, ml, &eager);
  EXPECT_GE(eager.coarse_solves, 1u);
  EXPECT_GT(eager.tiles_unretired, 0u);
  EXPECT_GT(eager.last_correction_max, 0.f);

  // The same run with an unreachable resurrection threshold must keep every
  // retirement: corrections are folded into frozen tiles in place.
  ml.multilevel.unretire_factor = std::numeric_limits<float>::max();
  ResidentRunReport lazy;
  (void)Peer::solve_windowed(v, params, opt, ml, &lazy);
  EXPECT_GE(lazy.coarse_solves, 1u);
  EXPECT_EQ(lazy.tiles_unretired, 0u);
  EXPECT_GT(lazy.tiles_converged, 0u);

  const ChambolleResult plain =
      Peer::solve_windowed(v, params, opt, adaptive_only(ml));
  const double e_plain = rof_energy(plain.u, v, params.theta);
  EXPECT_LE(rof_energy(res.u, v, params.theta),
            e_plain + 1e-3 * (std::abs(e_plain) + 1.0));
}

TEST(ResidentMultilevel, ReportAccountingIsConsistent) {
  // With nothing retiring, every interior period boundary hosts exactly one
  // rendezvous firing: (pass_cap - 1) / period of them, each either a solve
  // or a gate decline (the baseline firing is always a decline).
  const Image v = workloads::smooth_texture(64, 64, 7008);
  const ChambolleParams params = stiff_params_with(48);
  TiledSolverOptions opt;
  opt.tile_rows = 32;
  opt.tile_cols = 32;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  ResidentRunPolicy ml;
  ml.tolerance = 1e-30f;
  ml.patience = 1;
  ml.multilevel.period = 3;
  ml.multilevel.gate_factor = 0.f;
  ResidentRunReport report;
  (void)Peer::solve_windowed(v, params, opt, ml, &report);

  EXPECT_EQ(report.pass_cap, 12);  // ceil(48 / 4)
  const std::uint64_t firings =
      static_cast<std::uint64_t>((report.pass_cap - 1) /
                                 ml.multilevel.period);
  EXPECT_EQ(report.coarse_solves + report.coarse_gated, firings);
  EXPECT_GE(report.coarse_gated, 1u);  // the baseline
  EXPECT_GE(report.coarse_levels, 1);
  EXPECT_GE(report.rendezvous_seconds, 0.0);
  EXPECT_EQ(report.tiles_converged, 0u);
  for (const int p : report.tile_passes)
    EXPECT_EQ(p, report.pass_cap);
}

TEST(ResidentMultilevel, StateStaysCoherentForFurtherRuns) {
  // A correcting run leaves the resident state and mailbox parity coherent:
  // a later fixed run() on the same engine must still refine the solution.
  const Image v = workloads::smooth_texture(64, 64, 7009);
  const ChambolleParams params = stiff_params_with(40);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 4;
  opt.num_threads = 2;
  ResidentTiledEngine engine = Peer::windowed(v, params, opt);
  ResidentRunPolicy ml;
  ml.tolerance = 1e-3f;
  ml.patience = 1;
  ml.multilevel.period = 3;
  ml.multilevel.gate_factor = 0.f;
  const ResidentRunReport& report = engine.run(32, ml).front();  // 8 passes
  EXPECT_GE(report.coarse_solves, 1u);
  const double e_mid = rof_energy(engine.result().u, v, params.theta);
  engine.run(40);  // must not throw, deadlock, or corrupt the state
  const double e_end = rof_energy(engine.result().u, v, params.theta);
  // Chambolle iterations are monotone in the ROF objective: further passes
  // from any valid dual state can only improve (or hold) it.
  EXPECT_LE(e_end, e_mid + 1e-9 * (std::abs(e_mid) + 1.0));
}

TEST(ResidentMultilevel, ValidatesOptions) {
  MultilevelOptions o;
  o.levels = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.unretire_factor = -1.f;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.gate_factor = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.gate_factor = -0.5f;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  EXPECT_FALSE(o.enabled());  // off by default
  o.period = 0;  // disabled is valid, not an error
  EXPECT_NO_THROW(o.validate());

  const Matrix<float> v = random_v(16, 16, 7010);
  ResidentTiledEngine engine(v, params_with(4), TiledSolverOptions{});
  ResidentRunPolicy bad;
  bad.tolerance = 1e-4f;
  bad.multilevel.period = 2;
  bad.multilevel.gate_factor = -1.f;
  EXPECT_THROW((void)engine.run(4, bad), std::invalid_argument);
}

}  // namespace
}  // namespace chambolle
