#include "chambolle/fixed_solver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "chambolle/energy.hpp"
#include "common/rng.hpp"
#include "fixedpoint/lut_sqrt.hpp"
#include "kernels/kernel_fixed_simd.hpp"

namespace chambolle {
namespace {

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

TEST(FixedParams, QuantizesDefaults) {
  const FixedParams f = FixedParams::from(params_with(10));
  EXPECT_EQ(f.theta_q, 64);       // 0.25 in Q24.8
  EXPECT_EQ(f.inv_theta_q, 1024); // 4.0
  EXPECT_EQ(f.step_q, 64);        // tau/theta = 0.25
  EXPECT_EQ(f.iterations, 10);
}

TEST(FixedDatapath, PeTOpBackwardRules) {
  using namespace fxdp;
  // Interior: div_p = (c_px - l_px) + (c_py - a_py); Term = div_p - v/theta.
  const TermOut t =
      pe_t_op(100, 40, 50, 20, fx::to_fixed(1.0), false, false, false, false,
              fx::to_fixed(4.0));
  EXPECT_EQ(t.div_p, 60 + 30);
  EXPECT_EQ(t.term, 90 - fx::to_fixed(4.0));
  // First column: dx = c_px.
  EXPECT_EQ(pe_t_op(100, 40, 0, 0, 0, true, false, true, false, 256).div_p,
            100);
  // Last column: dx = -l_px.
  EXPECT_EQ(pe_t_op(100, 40, 0, 0, 0, false, true, true, false, 256).div_p,
            -40);
  // Last row: dy = -a_py.
  EXPECT_EQ(pe_t_op(0, 0, 50, 20, 0, true, false, false, true, 256).div_p,
            -20);
}

TEST(FixedDatapath, PeVOpProjectionKeepsDualBounded) {
  using namespace fxdp;
  // Large gradient: |p| must stay within the 9-bit Q1.8 ball.
  const VOut out = pe_v_op(0, fx::to_fixed(100.0), fx::to_fixed(-100.0),
                           false, false, 0, 0, 64);
  EXPECT_LE(out.px, 255);
  EXPECT_GE(out.px, -256);
  EXPECT_LE(out.py, 255);
  EXPECT_GE(out.py, -256);
}

TEST(FixedDatapath, PeVOpBorderFlagsZeroTheGradient) {
  using namespace fxdp;
  const VOut out = pe_v_op(fx::to_fixed(3.0), fx::to_fixed(9.0),
                           fx::to_fixed(9.0), true, true, 100, -100, 64);
  // Both forward differences are forced to 0: p is unchanged.
  EXPECT_EQ(out.px, 100);
  EXPECT_EQ(out.py, -100);
}

TEST(FixedDatapath, PeUOpFormula) {
  using namespace fxdp;
  // u = v - theta*div_p, saturated to 13 bits.
  EXPECT_EQ(pe_u_op(fx::to_fixed(2.0), fx::to_fixed(1.0), fx::to_fixed(0.25)),
            fx::to_fixed(1.75));
  EXPECT_EQ(pe_u_op(4095, -fx::to_fixed(100.0), fx::to_fixed(0.25)), 4095);
}

TEST(FixedSolver, QuantizationOfInput) {
  Matrix<float> v(1, 3);
  v(0, 0) = 1.5f;
  v(0, 1) = 100.f;  // saturates to Q5.8 max
  v(0, 2) = -100.f;
  const FixedState s = make_fixed_state(v);
  EXPECT_EQ(s.v(0, 0), 384);
  EXPECT_EQ(s.v(0, 1), 4095);
  EXPECT_EQ(s.v(0, 2), -4096);
  for (std::int32_t p : s.px) EXPECT_EQ(p, 0);
}

TEST(FixedSolver, ConstantInputStaysFixed) {
  const Matrix<float> v(8, 8, 2.f);
  const ChambolleResult r = solve_fixed(v, params_with(30));
  for (int rr = 0; rr < 8; ++rr)
    for (int cc = 0; cc < 8; ++cc) EXPECT_FLOAT_EQ(r.u(rr, cc), 2.f);
}

TEST(FixedSolver, TracksFloatSolverWithinFormatTolerance) {
  Rng rng(21);
  const Matrix<float> v = random_image(rng, 24, 24, -3.f, 3.f);
  const ChambolleParams params = params_with(60);
  const ChambolleResult fixed = solve_fixed(v, params);
  const ChambolleResult ref = solve(v, params);
  // u error dominated by the Q*.8 quantization and the LUT sqrt; on a [-3,3]
  // field a small multiple of 1/256 plus accumulated drift is expected.
  EXPECT_LT(max_abs_diff(fixed.u, ref.u), 0.15);
  EXPECT_LT(max_abs_diff(fixed.p.px, ref.p.px), 0.15);
}

TEST(FixedSolver, DualStaysInNineBitBall) {
  Rng rng(23);
  const Matrix<float> v = random_image(rng, 16, 16, -8.f, 8.f);
  const FixedParams fp = FixedParams::from(params_with(100));
  FixedState state = make_fixed_state(v);
  Matrix<std::int32_t> scratch;
  fixed_iterate_region(state, RegionGeometry::full_frame(16, 16), fp,
                       fp.iterations, scratch);
  for (std::int32_t p : state.px) {
    EXPECT_LE(p, 255);
    EXPECT_GE(p, -256);
  }
}

TEST(FixedSolver, ReducesEnergyLikeTheFloatSolver) {
  Rng rng(25);
  Matrix<float> v = random_image(rng, 20, 20, -2.f, 2.f);
  const ChambolleResult r = solve_fixed(v, params_with(80));
  const float theta = 0.25f;
  EXPECT_LT(rof_energy(r.u, v, theta), rof_energy(v, v, theta));
}

TEST(FixedSolver, IterationsComposeExactly) {
  // Running k then m iterations on the same state == k+m iterations: the
  // fixed-point datapath is a deterministic map.
  Rng rng(27);
  const Matrix<float> v = random_image(rng, 12, 12, -2.f, 2.f);
  const FixedParams fp = FixedParams::from(params_with(0));
  const RegionGeometry geom = RegionGeometry::full_frame(12, 12);
  Matrix<std::int32_t> scratch;

  FixedState a = make_fixed_state(v);
  fixed_iterate_region(a, geom, fp, 10, scratch);

  FixedState b = make_fixed_state(v);
  fixed_iterate_region(b, geom, fp, 4, scratch);
  fixed_iterate_region(b, geom, fp, 6, scratch);

  EXPECT_EQ(a.px, b.px);
  EXPECT_EQ(a.py, b.py);
}

TEST(FixedSolver, RegionSemanticsMatchFloatSolver) {
  // The fixed iteration on a window honours the same profitable-element
  // guarantee: a window with a sufficient halo reproduces the full-frame
  // fixed solve on its profitable core.
  Rng rng(29);
  const Matrix<float> v = random_image(rng, 32, 32, -2.f, 2.f);
  const FixedParams fp = FixedParams::from(params_with(0));
  const int K = 3;  // merged iterations == halo
  Matrix<std::int32_t> scratch;

  FixedState full = make_fixed_state(v);
  fixed_iterate_region(full, RegionGeometry::full_frame(32, 32), fp, K,
                       scratch);

  // Window rows [4,28) x cols [8,24): profitable core shrinks by K per side.
  FixedState whole = make_fixed_state(v);
  FixedState win(24, 16);
  win.v = whole.v.block(4, 8, 24, 16);
  win.px = whole.px.block(4, 8, 24, 16);
  win.py = whole.py.block(4, 8, 24, 16);
  fixed_iterate_region(win, RegionGeometry{4, 8, 32, 32}, fp, K, scratch);

  for (int r = K; r < 24 - K; ++r)
    for (int c = K; c < 16 - K; ++c) {
      EXPECT_EQ(win.px(r, c), full.px(4 + r, 8 + c)) << r << "," << c;
      EXPECT_EQ(win.py(r, c), full.py(4 + r, 8 + c)) << r << "," << c;
    }
}

// The vectorized fixed kernel against the scalar loops, forced explicitly
// through the fixed dispatch: raw int32 state must match exactly — including
// windows narrower than one 8-lane chunk and windows pinned to the right
// border, where the masked tail handling does all the work.
TEST(FixedSimdKernel, BitExactWithScalarAcrossGeometries) {
  namespace kf = kernels::fixed;
  if (!kf::backend_available(kf::Backend::kSimd))
    GTEST_SKIP() << "fixed SIMD backend unavailable on this build/CPU";

  struct Geo {
    const char* name;
    int rows, cols, row0, col0, frame_rows, frame_cols, iters;
  };
  const Geo geos[] = {
      {"full_16x16", 16, 16, 0, 0, 16, 16, 4},
      {"single_cell", 1, 1, 0, 0, 1, 1, 3},
      {"single_col_interior", 5, 1, 2, 0, 9, 1, 3},
      {"narrow_tile_at_right", 2, 9, 5, 36, 45, 45, 4},
      {"sub_lane_width", 7, 5, 0, 0, 7, 5, 3},
      {"one_chunk", 7, 8, 0, 0, 7, 8, 3},
      {"chunk_plus_tail", 7, 17, 0, 0, 7, 17, 3},
      {"interior_halo_window", 20, 24, 10, 12, 64, 64, 2},
  };
  const FixedParams fp = FixedParams::from(params_with(0));
  for (const Geo& g : geos) {
    SCOPED_TRACE(g.name);
    Rng rng(static_cast<std::uint64_t>(g.rows * 131 + g.cols));
    FixedState init = make_fixed_state(
        random_image(rng, g.rows, g.cols, -3.f, 3.f));
    // Nonzero duals so the backward differences see real operands.
    for (int r = 0; r < g.rows; ++r)
      for (int c = 0; c < g.cols; ++c) {
        init.px(r, c) = rng.uniform_int(-256, 255);
        init.py(r, c) = rng.uniform_int(-256, 255);
      }
    const RegionGeometry geom{g.row0, g.col0, g.frame_rows, g.frame_cols};
    Matrix<std::int32_t> scratch;

    kf::force_backend(kf::Backend::kScalar);
    FixedState want = init;
    fixed_iterate_region(want, geom, fp, g.iters, scratch);

    kf::force_backend(kf::Backend::kSimd);
    FixedState got = init;
    fixed_iterate_region(got, geom, fp, g.iters, scratch);
    kf::reset_backend();

    ASSERT_EQ(want.px, got.px);
    ASSERT_EQ(want.py, got.py);
    ASSERT_EQ(want.v, got.v);
  }
}

// The fixed dispatch honours the same hard-reject contract as the float one.
TEST(FixedSimdKernel, DispatchRejectsUnknownNames) {
  namespace kf = kernels::fixed;
  EXPECT_NO_THROW(kf::force_backend("scalar"));
  EXPECT_EQ(kf::active_backend(), kf::Backend::kScalar);
  kf::reset_backend();
  EXPECT_THROW(kf::force_backend("avx1024"), std::invalid_argument);
  EXPECT_THROW(kf::force_backend("auto"), std::invalid_argument);
  try {
    kf::force_backend("avx1024");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("avx1024"), std::string::npos);
    EXPECT_NE(what.find("scalar"), std::string::npos);  // lists alternatives
  }
}

TEST(FixedSolver, DequantizeRoundTrips) {
  Matrix<std::int32_t> raw(1, 3);
  raw(0, 0) = 256;
  raw(0, 1) = -128;
  raw(0, 2) = 1;
  const Matrix<float> f = dequantize(raw);
  EXPECT_FLOAT_EQ(f(0, 0), 1.f);
  EXPECT_FLOAT_EQ(f(0, 1), -0.5f);
  EXPECT_FLOAT_EQ(f(0, 2), 1.f / 256.f);
}

}  // namespace
}  // namespace chambolle
