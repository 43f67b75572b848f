// The fused warp -> threshold sweep and the row-parallel outer-loop stages
// around it, each checked bit for bit against its serial reference.
#include "tvl1/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "common/rng.hpp"
#include "kernels/kernel.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/resident_peer.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/sweep_rows.hpp"
#include "tvl1/threshold.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::tvl1 {
namespace {

using Peer = ResidentTiledEngineTestPeer;

bool same_bits(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

// Log-uniform extent in [2, 512].
int log_uniform_extent(Rng& rng) {
  return static_cast<int>(
      std::lround(std::exp(rng.uniform(std::log(2.f), std::log(512.f)))));
}

TEST(WarpThresholdSweep, MatchesReferenceStagesOnSeededShapes) {
  parallel::ThreadPool pool(4);
  constexpr std::uint64_t kBaseSeed = 0x5eedull;
  long long textureless = 0, clamped = 0, cells = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const int rows = log_uniform_extent(rng), cols = log_uniform_extent(rng);
    const Image i0 = random_image(rng, rows, cols, 0.f, 1.f);
    Image i1 = random_image(rng, rows, cols, 0.f, 1.f);
    Image i0p = i0;
    FlowField u(rows, cols);
    const float far = 2.f * static_cast<float>(rows + cols);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        // One pixel in ten points far outside the frame (the clamp path).
        const bool out = rng.uniform(0.f, 1.f) < 0.1f;
        u.u1(r, c) = out ? rng.uniform(-far, far) : rng.uniform(-3.f, 3.f);
        u.u2(r, c) = out ? rng.uniform(-far, far) : rng.uniform(-3.f, 3.f);
      }
    // A textureless patch: flat (or nearly flat, |g|^2 ~ 1e-14) in both
    // frames at one level, zero flow inside, so rho == 0 meets g2 <= 1e-12.
    const int pr = rng.uniform_int(0, rows - 1), pc = rng.uniform_int(0, cols - 1);
    const int ph = rng.uniform_int(1, rows - pr), pw = rng.uniform_int(1, cols - pc);
    const float level = rng.uniform(0.f, 1.f);
    const float ramp = trial % 2 == 0 ? 0.f : 1e-7f;
    for (int r = pr; r < pr + ph; ++r)
      for (int c = pc; c < pc + pw; ++c) {
        i1(r, c) = level + ramp * static_cast<float>(c);
        i0p(r, c) = level;
        u.u1(r, c) = 0.f;
        u.u2(r, c) = 0.f;
      }
    const float lambda = rng.uniform(1.f, 50.f);
    const float theta = rng.uniform(0.05f, 0.5f);

    const WarpResult wr = warp_with_gradients(i1, u);
    const FlowField want = threshold_step(
        ThresholdInputs{i0p, wr.warped, wr.grad, u, u, lambda, theta});
    FlowField got;
    const int lanes = rng.uniform_int(1, 4);
    warp_threshold_into(i0p, i1, gradients(i1), u, lambda, theta, got, pool,
                        lanes);
    ASSERT_TRUE(same_bits(got.u1, want.u1))
        << rows << "x" << cols << " lanes=" << lanes;
    ASSERT_TRUE(same_bits(got.u2, want.u2))
        << rows << "x" << cols << " lanes=" << lanes;

    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const float gx = wr.grad.gx(r, c), gy = wr.grad.gy(r, c);
        if (gx * gx + gy * gy <= 1e-12f) ++textureless;
        const float fr = static_cast<float>(r) + u.u2(r, c);
        const float fc = static_cast<float>(c) + u.u1(r, c);
        if (fr < 0.f || fc < 0.f || fr > static_cast<float>(rows - 1) ||
            fc > static_cast<float>(cols - 1))
          ++clamped;
      }
    cells += static_cast<long long>(rows) * cols;
  }
  // The sweep of paths this property is meant to cover was exercised.
  EXPECT_GT(textureless, 0);
  EXPECT_GT(clamped, cells / 20);
}

// One sweep's operands, owned: random frames, a flow mixing sub-pixel,
// far out-of-frame (the clamp path), integral and signed-zero vectors, and
// a textureless patch (flat in both frames, zero flow inside).
struct SweepCase {
  Image i0, i1;
  Gradients grad;
  FlowField u;
  float lt = 0.f;

  SweepCase(Rng& rng, int rows, int cols) {
    i0 = random_image(rng, rows, cols, 0.f, 1.f);
    i1 = random_image(rng, rows, cols, 0.f, 1.f);
    u = FlowField(rows, cols);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const float pick = rng.uniform(0.f, 1.f);
        float a, b;
        if (pick < 0.1f) {  // out of frame, up to +-40 px
          a = rng.uniform(-40.f, 40.f);
          b = rng.uniform(-40.f, 40.f);
        } else if (pick < 0.2f) {  // +-0: the taps sit on the pixel itself
          a = rng.uniform(0.f, 1.f) < 0.5f ? 0.f : -0.f;
          b = rng.uniform(0.f, 1.f) < 0.5f ? 0.f : -0.f;
        } else if (pick < 0.3f) {  // integral: zero weights, floor == trunc
          a = static_cast<float>(rng.uniform_int(-3, 3));
          b = static_cast<float>(rng.uniform_int(-3, 3));
        } else {
          a = rng.uniform(-3.f, 3.f);
          b = rng.uniform(-3.f, 3.f);
        }
        u.u1(r, c) = a;
        u.u2(r, c) = b;
      }
    const int pr = rng.uniform_int(0, rows - 1);
    const int pc = rng.uniform_int(0, cols - 1);
    const int ph = rng.uniform_int(1, rows - pr);
    const int pw = rng.uniform_int(1, cols - pc);
    const float level = rng.uniform(0.f, 1.f);
    for (int r = pr; r < pr + ph; ++r)
      for (int c = pc; c < pc + pw; ++c) {
        i1(r, c) = level;
        i0(r, c) = level;
        u.u1(r, c) = 0.f;
        u.u2(r, c) = 0.f;
      }
    grad = gradients(i1);
    lt = rng.uniform(1.f, 50.f) * rng.uniform(0.05f, 0.5f);
  }

  SweepFrame frame(FlowField& v) const {
    return {i1.data().data(),   grad.gx.data().data(), grad.gy.data().data(),
            i0.data().data(),   u.u1.data().data(),    u.u2.data().data(),
            v.u1.data().data(), v.u2.data().data(),    i0.rows(),
            i0.cols(),          lt};
  }
};

TEST(WarpThresholdSweep, SimdRowMatchesScalarRowBitForBit) {
  const SweepRowsFn simd = sweep_rows_avx512();
  if (simd == nullptr || !kernels::backend_available(kernels::Backend::kAvx512))
    GTEST_SKIP() << "no AVX-512F rows in this build or on this CPU";
  Rng rng(0x51dull);
  std::vector<std::pair<int, int>> shapes;
  for (int cols = 1; cols <= 48; ++cols)  // every tail mask, 1-3 chunks
    shapes.emplace_back(rng.uniform_int(1, 9), cols);
  for (int k = 0; k < 24; ++k)
    shapes.emplace_back(log_uniform_extent(rng), log_uniform_extent(rng));
  shapes.emplace_back(252, 316);
  const float sentinel = std::numeric_limits<float>::quiet_NaN();
  long long still = 0, clamped = 0, cells = 0;
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    const SweepCase sc(rng, rows, cols);
    FlowField want(rows, cols);
    sweep_rows_scalar(sc.frame(want), 0, rows);
    // The SIMD rows on every other row only: a tail chunk that wrote past
    // its row would overwrite a sentinel in the next.
    FlowField got(rows, cols);
    got.u1.fill(sentinel);
    got.u2.fill(sentinel);
    const SweepFrame f = sc.frame(got);
    for (int r = 0; r < rows; r += 2) simd(f, r, r + 1);
    for (int r = 0; r < rows; ++r) {
      const std::size_t bytes = static_cast<std::size_t>(cols) * sizeof(float);
      if (r % 2 == 0) {
        ASSERT_EQ(std::memcmp(&got.u1(r, 0), &want.u1(r, 0), bytes), 0)
            << "row " << r;
        ASSERT_EQ(std::memcmp(&got.u2(r, 0), &want.u2(r, 0), bytes), 0)
            << "row " << r;
      } else {
        for (int c = 0; c < cols; ++c)
          ASSERT_TRUE(std::isnan(got.u1(r, c)) && std::isnan(got.u2(r, c)))
              << "row " << r << " col " << c << " written";
      }
    }
    // The odd rows too, so the whole frame is compared.
    for (int r = 1; r < rows; r += 2) simd(f, r, r + 1);
    ASSERT_TRUE(same_bits(got.u1, want.u1));
    ASSERT_TRUE(same_bits(got.u2, want.u2));

    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const float fr = static_cast<float>(r) + sc.u.u2(r, c);
        const float fc = static_cast<float>(c) + sc.u.u1(r, c);
        if (fr < 0.f || fc < 0.f || fr > static_cast<float>(rows - 1) ||
            fc > static_cast<float>(cols - 1))
          ++clamped;
        if (want.u1(r, c) == sc.u.u1(r, c) && want.u2(r, c) == sc.u.u2(r, c))
          ++still;  // a zero step: the flat patch's dead zone
      }
    cells += static_cast<long long>(rows) * cols;
  }
  // The paths this property is meant to cover were exercised.
  EXPECT_GT(still, 0);
  EXPECT_GT(clamped, cells / 20);

  // Signed zeros and the textureless cut, which random data never hits:
  // I1 = -0, I0 = +0 and u = -0 everywhere, so every sample is -0 and only
  // the residual's gx*0 term turns rho into +0; the step's sign then shows
  // in v = -0 + step.  Columns alternate a gradient in the middle branch
  // (its -rho must be a sign flip) and one with |g|^2 == 1e-12 exactly (not
  // above the cut: a zero step).
  const float cut = std::sqrt(1e-12f);
  ASSERT_EQ(cut * cut, 1e-12f);
  for (const int cols : {1, 17, 37}) {
    SCOPED_TRACE("signed zeros, 5x" + std::to_string(cols));
    SweepCase sc(rng, 5, cols);
    sc.i1.fill(-0.f);
    sc.i0.fill(0.f);
    sc.u.u1.fill(-0.f);
    sc.u.u2.fill(-0.f);
    for (int r = 0; r < 5; ++r)
      for (int c = 0; c < cols; ++c) {
        sc.grad.gx(r, c) = c % 2 == 0 ? 0.25f : cut;
        sc.grad.gy(r, c) = r % 2 == 0 ? 0.f : -0.f;
      }
    FlowField want(5, cols), got(5, cols);
    sweep_rows_scalar(sc.frame(want), 0, 5);
    simd(sc.frame(got), 0, 5);
    EXPECT_TRUE(std::signbit(want.u1(0, 0)));  // -0 + -0: the middle branch
    if (cols > 1) {
      EXPECT_FALSE(std::signbit(want.u1(0, 1)));  // -0 + +0: no step
    }
    EXPECT_TRUE(same_bits(got.u1, want.u1));
    EXPECT_TRUE(same_bits(got.u2, want.u2));
  }
}

TEST(WarpThresholdSweep, FramesBeyondInt32IndicesTakeTheScalarRows) {
  constexpr std::size_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_TRUE(gather_indices_fit(252, 316));
  EXPECT_TRUE(gather_indices_fit(1, kMax));
  EXPECT_TRUE(gather_indices_fit(kMax, 1));
  EXPECT_TRUE(gather_indices_fit(65535, 32768));  // 2^31 - 2^15 cells
  EXPECT_TRUE(gather_indices_fit(0, 5));
  EXPECT_TRUE(gather_indices_fit(5, 0));
  EXPECT_FALSE(gather_indices_fit(65536, 32768));  // 2^31 cells
  EXPECT_FALSE(gather_indices_fit(2, kMax));
  EXPECT_FALSE(gather_indices_fit(kMax, kMax));
  // The predicate gates the SIMD rows without allocating such a frame.
  EXPECT_EQ(select_sweep_rows(kernels::Backend::kAvx512, 65536, 32768),
            &sweep_rows_scalar);
  EXPECT_EQ(select_sweep_rows(kernels::Backend::kAvx512, 1, kMax + 1),
            &sweep_rows_scalar);
}

TEST(WarpThresholdSweep, FollowsTheKernelBackend) {
  // A silent fallback to the scalar rows under the avx512 backend must fail
  // here (and in the CHAMBOLLE_KERNEL=avx512 CI job), not pass unnoticed.
  const kernels::Backend active = kernels::active_backend();
  const SweepRowsFn taken = select_sweep_rows(active, 252, 316);
  if (active == kernels::Backend::kAvx512) {
    ASSERT_NE(sweep_rows_avx512(), nullptr);
    EXPECT_EQ(taken, sweep_rows_avx512());
  } else {
    EXPECT_EQ(taken, &sweep_rows_scalar);
  }
  const char* env = std::getenv("CHAMBOLLE_KERNEL");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(active, kernels::Backend::kScalar);
    EXPECT_EQ(taken, &sweep_rows_scalar);
  }
  // Every backend other than avx512 takes the scalar rows.
  for (const kernels::Backend b : kernels::available_backends()) {
    if (b == kernels::Backend::kAvx512) continue;
    EXPECT_EQ(select_sweep_rows(b, 252, 316), &sweep_rows_scalar)
        << kernels::backend_name(b);
  }
}

TEST(ThresholdSplit, NearTexturelessPointInsideTheDeadZoneDoesNotMove) {
  // |g|^2 = 1e-14 is below the 1e-12 cut: the middle branch's rho/|g|^2
  // would otherwise fling the point by 1e-13 per 1e-20 of residual.
  const ThresholdStep d = threshold_split(1e-20f, 1e-7f, 0.f, 6.25f);
  EXPECT_EQ(d.dx, 0.f);
  EXPECT_EQ(d.dy, 0.f);
  const ThresholdStep m = threshold_split(1e-3f, 0.1f, 0.f, 6.25f);
  EXPECT_FLOAT_EQ(m.dx, -1e-3f * 0.1f / 0.01f);  // the middle branch
  const ThresholdStep lo = threshold_split(-1.f, 0.1f, 0.2f, 6.25f);
  EXPECT_EQ(lo.dx, 6.25f * 0.1f);
  EXPECT_EQ(lo.dy, 6.25f * 0.2f);
}

TEST(WarpThresholdSweep, ReusesAShapedOutputAndRejectsBadInputs) {
  parallel::ThreadPool pool(2);
  Rng rng(77);
  const Image i0 = random_image(rng, 40, 30, 0.f, 1.f);
  const Image i1 = random_image(rng, 40, 30, 0.f, 1.f);
  const Gradients g = gradients(i1);
  const FlowField u(40, 30);
  FlowField v(40, 30);
  const float* storage = v.u1.data().data();
  warp_threshold_into(i0, i1, g, u, 25.f, 0.25f, v, pool, 2);
  EXPECT_EQ(v.u1.data().data(), storage);  // written in place

  EXPECT_THROW(warp_threshold_into(i0, Image(40, 31), g, u, 25.f, 0.25f, v,
                                   pool, 2),
               std::invalid_argument);
  EXPECT_THROW(warp_threshold_into(i0, i1, g, FlowField(39, 30), 25.f, 0.25f,
                                   v, pool, 2),
               std::invalid_argument);
  EXPECT_THROW(warp_threshold_into(i0, i1, g, u, 0.f, 0.25f, v, pool, 2),
               std::invalid_argument);
  EXPECT_THROW(warp_threshold_into(i0, i1, g, u, 25.f, -1.f, v, pool, 2),
               std::invalid_argument);
}

TEST(OuterLoopStages, GradientsIntoMatchesGradients) {
  parallel::ThreadPool pool(4);
  Rng rng(101);
  for (const auto& [rows, cols] : {std::pair{2, 2}, {1, 7}, {33, 5}, {130, 150},
                                  {252, 316}}) {
    const Image img = random_image(rng, rows, cols, 0.f, 1.f);
    const Gradients want = gradients(img);
    for (int lanes = 1; lanes <= 4; ++lanes) {
      Gradients got;
      gradients_into(img, got, pool, lanes);
      EXPECT_TRUE(same_bits(got.gx, want.gx)) << rows << "x" << cols;
      EXPECT_TRUE(same_bits(got.gy, want.gy)) << rows << "x" << cols;
    }
  }
}

TEST(OuterLoopStages, UpsampleFlowIntoMatchesUpsampleFlow) {
  parallel::ThreadPool pool(4);
  Rng rng(202);
  for (const auto& [rows, cols] : {std::pair{3, 2}, {63, 79}, {126, 158},
                                  {252, 316}}) {
    FlowField coarse;
    coarse.u1 = random_image(rng, (rows + 1) / 2, (cols + 1) / 2, -4.f, 4.f);
    coarse.u2 = random_image(rng, (rows + 1) / 2, (cols + 1) / 2, -4.f, 4.f);
    const FlowField want = upsample_flow(coarse, rows, cols);
    for (int lanes = 1; lanes <= 4; ++lanes) {
      FlowField got;
      upsample_flow_into(coarse, rows, cols, got, pool, lanes);
      upsample_flow_into(coarse, rows, cols, got, pool, lanes);  // shaped
      EXPECT_TRUE(same_bits(got.u1, want.u1)) << rows << "x" << cols;
      EXPECT_TRUE(same_bits(got.u2, want.u2)) << rows << "x" << cols;
    }
  }
}

TEST(OuterLoopStages, ParallelRecoveryMatchesSerialSnapshotAndRecovery) {
  parallel::ThreadPool pool(4);
  Rng rng(303);
  // Two row chunks of the streaming passes.
  const Matrix<float> v = random_image(rng, 261, 301, -2.f, 2.f);
  const ChambolleParams params{0.25f, 0.0625f, 10};
  const ChambolleResult want = solve(v, params);
  for (const int strip_rows : {24, 40, 261}) {
    for (int lanes = 1; lanes <= 4; ++lanes) {
      SCOPED_TRACE(std::to_string(strip_rows) +
                   " rows lanes=" + std::to_string(lanes));
      TiledSolverOptions opts;
      opts.merge_iterations = 4;
      opts.pool = &pool;
      opts.num_threads = lanes;
      ResidentTiledEngine engine =
          Peer::strips(v.rows(), v.cols(), strip_rows, 1, params, opts);
      // The recovery epoch against the serial write-back + recovery.
      Matrix<float> u;
      DualField duals;
      engine.solve(v, nullptr, u, &duals);
      EXPECT_TRUE(same_bits(u, want.u));
      EXPECT_TRUE(same_bits(duals.px, want.p.px));
      EXPECT_TRUE(same_bits(duals.py, want.p.py));
      // Into the shaped buffers again, u only.
      engine.solve(v, nullptr, u);
      EXPECT_TRUE(same_bits(u, want.u));
    }
  }
}

TEST(OuterLoopStages, FixedBudgetSentinelResolvesToTheFixedSchedule) {
  // The pass count and the truncated final pass follow from the budget and
  // the merge depth alone: every tile runs ceil(iterations / merge) passes
  // that add up to exactly `iterations`.
  Rng rng(404);
  const Matrix<float> v = random_image(rng, 40, 44, -2.f, 2.f);
  for (const auto& [iterations, merge] :
       {std::pair{30, 4}, {28, 4}, {1, 4}, {5, 1}}) {
    SCOPED_TRACE(std::to_string(iterations) + "/" + std::to_string(merge));
    TiledSolverOptions opts;
    opts.merge_iterations = merge;
    const ChambolleParams params{0.25f, 0.0625f, iterations};
    ResidentTiledEngine engine = Peer::strips(40, 44, 20, 1, params, opts);
    std::size_t buffer_elements = 0;
    for (const TileSpec& t : engine.plan().tiles)
      buffer_elements += t.buffer_elements();
    Matrix<float> u;
    for (int run = 1; run <= 2; ++run) {
      engine.solve(v, nullptr, u);
      EXPECT_EQ(engine.stats().passes,
                run * ((iterations + merge - 1) / merge));
      EXPECT_EQ(engine.stats().element_iterations,
                static_cast<std::size_t>(run * iterations) * buffer_elements);
    }
  }
}

TEST(OuterLoopStages, PyramidTakesARvalueBaseWithoutACopy) {
  Image base = normalize_frame(Image(40, 36, 255.f));
  EXPECT_EQ(base(3, 4), 1.f);
  const float* storage = base.data().data();
  const Pyramid pyr(std::move(base), 3);
  EXPECT_EQ(pyr.level(0).data().data(), storage);
  EXPECT_EQ(pyr.levels(), 2);  // 40x36 -> 20x18; 10x9 is below min_dim
}

}  // namespace
}  // namespace chambolle::tvl1
