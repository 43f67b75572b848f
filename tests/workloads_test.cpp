#include "workloads/synthetic.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "tvl1/warp.hpp"
#include "workloads/metrics.hpp"

namespace chambolle::workloads {
namespace {

TEST(Synthetic, SmoothTextureIsInRangeAndNonConstant) {
  const Image img = smooth_texture(32, 32);
  float lo = 1e9f, hi = -1e9f;
  for (float v : img) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 20.f);   // has real contrast
  EXPECT_GT(lo, -200.f);
  EXPECT_LT(hi, 500.f);
}

TEST(Synthetic, SmoothTextureIsDeterministicPerSeed) {
  EXPECT_EQ(smooth_texture(16, 16, 5), smooth_texture(16, 16, 5));
  EXPECT_NE(smooth_texture(16, 16, 5), smooth_texture(16, 16, 6));
}

TEST(Synthetic, TranslationGroundTruthIsConstant) {
  const FlowWorkload wl = translating_scene(20, 20, 1.5f, -2.f);
  for (int r = 0; r < 20; ++r)
    for (int c = 0; c < 20; ++c) {
      EXPECT_FLOAT_EQ(wl.ground_truth.u1(r, c), 1.5f);
      EXPECT_FLOAT_EQ(wl.ground_truth.u2(r, c), -2.f);
    }
}

// The fundamental consistency property of every workload: warping frame1 by
// the ground-truth flow reproduces frame0 (up to interpolation error).
// The parameter prints as its name, so the test names do not depend on where
// the factory functions land in memory.
struct WorkloadKind {
  const char* name;
  FlowWorkload (*make)(int, int);
};

void PrintTo(const WorkloadKind& kind, std::ostream* os) { *os << kind.name; }

class WorkloadConsistency : public ::testing::TestWithParam<WorkloadKind> {};

FlowWorkload make_translate(int r, int c) {
  return translating_scene(r, c, 2.2f, -1.3f);
}
FlowWorkload make_rotate(int r, int c) { return rotating_scene(r, c, 0.05f); }
FlowWorkload make_zoom(int r, int c) { return zooming_scene(r, c, 1.04f); }

TEST_P(WorkloadConsistency, WarpByGroundTruthRecoversFrame0) {
  const FlowWorkload wl = GetParam().make(48, 48);
  const Image rewarped = tvl1::warp(wl.frame1, wl.ground_truth);
  // Ignore a border band: clamping makes the edges unreliable.
  double max_err = 0.0;
  for (int r = 8; r < 40; ++r)
    for (int c = 8; c < 40; ++c)
      max_err = std::max(max_err, std::abs(static_cast<double>(rewarped(r, c)) -
                                           wl.frame0(r, c)));
  EXPECT_LT(max_err, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WorkloadConsistency,
    ::testing::Values(WorkloadKind{"translate", &make_translate},
                      WorkloadKind{"rotate", &make_rotate},
                      WorkloadKind{"zoom", &make_zoom}));

TEST(Synthetic, RotationFlowIsTangential) {
  const FlowWorkload wl = rotating_scene(21, 21, 0.1f);
  // At the center the flow vanishes.
  EXPECT_NEAR(wl.ground_truth.u1(10, 10), 0.f, 1e-5);
  EXPECT_NEAR(wl.ground_truth.u2(10, 10), 0.f, 1e-5);
  // Flow magnitude grows with the radius.
  EXPECT_GT(wl.ground_truth.magnitude(10, 20), wl.ground_truth.magnitude(10, 15));
}

TEST(Synthetic, ZoomFlowPointsOutward) {
  const FlowWorkload wl = zooming_scene(21, 21, 1.1f);
  EXPECT_GT(wl.ground_truth.u1(10, 20), 0.f);  // right of center: rightward
  EXPECT_LT(wl.ground_truth.u1(10, 0), 0.f);
  EXPECT_GT(wl.ground_truth.u2(20, 10), 0.f);
  EXPECT_THROW(zooming_scene(8, 8, 0.f), std::invalid_argument);
}

TEST(Synthetic, MovingSquareMarksSquarePixels) {
  const FlowWorkload wl = moving_square(32, 32, 8, 3, 1);
  int moving = 0;
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c)
      if (wl.ground_truth.u1(r, c) != 0.f) {
        EXPECT_FLOAT_EQ(wl.ground_truth.u1(r, c), 3.f);
        EXPECT_FLOAT_EQ(wl.ground_truth.u2(r, c), 1.f);
        ++moving;
      }
  EXPECT_EQ(moving, 64);
  EXPECT_THROW(moving_square(8, 8, 8, 1, 1), std::invalid_argument);
}

TEST(Synthetic, CorruptAddsNoise) {
  FlowWorkload wl = translating_scene(24, 24, 1.f, 0.f);
  const Image clean = wl.frame0;
  corrupt(wl, 3.f);
  EXPECT_GT(rms_diff(wl.frame0, clean), 1.5);
  EXPECT_LT(rms_diff(wl.frame0, clean), 6.0);
}

TEST(Metrics, EndpointErrorBasics) {
  FlowField a(4, 4), b(4, 4);
  a.fill(1.f, 0.f);
  b.fill(1.f, 0.f);
  EXPECT_DOUBLE_EQ(average_endpoint_error(a, b), 0.0);
  b.fill(4.f, 4.f);
  EXPECT_DOUBLE_EQ(average_endpoint_error(a, b), 5.0);
  EXPECT_THROW((void)average_endpoint_error(a, FlowField(2, 2)),
               std::invalid_argument);
}

TEST(Metrics, InteriorErrorIgnoresBorder) {
  FlowField a(10, 10), b(10, 10);
  // Large error only on the border ring.
  for (int i = 0; i < 10; ++i) {
    a.u1(0, i) = 100.f;
    a.u1(9, i) = 100.f;
    a.u1(i, 0) = 100.f;
    a.u1(i, 9) = 100.f;
  }
  EXPECT_GT(average_endpoint_error(a, b), 1.0);
  EXPECT_DOUBLE_EQ(interior_endpoint_error(a, b, 1), 0.0);
}

TEST(Metrics, AngularErrorBasics) {
  FlowField a(2, 2), b(2, 2);
  EXPECT_NEAR(average_angular_error_deg(a, b), 0.0, 1e-9);
  a.fill(1.f, 0.f);
  b.fill(0.f, 1.f);
  const double e = average_angular_error_deg(a, b);
  EXPECT_GT(e, 30.0);
  EXPECT_LT(e, 90.0);
}

TEST(Metrics, RmsDiff) {
  Image a(2, 2, 0.f), b(2, 2, 3.f);
  EXPECT_DOUBLE_EQ(rms_diff(a, b), 3.0);
  EXPECT_DOUBLE_EQ(rms_diff(a, a), 0.0);
}

}  // namespace
}  // namespace chambolle::workloads
