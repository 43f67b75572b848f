// Golden test of the TV-L1 outer loop.  Every flow pipeline runs the same
// fused warp -> threshold sweep (tvl1/outer_loop.hpp), so cross-backend
// comparisons alone cannot catch a sweep bug.  This file keeps its own copy
// of the serial loop the sweep replaced — warp_with_gradients +
// threshold_step per warp, upsample_to per level, one engine per component
// and level — and requires every pipeline to match it bit for bit at lane
// counts 1-4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "hw/accelerator.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/accel_backend.hpp"
#include "tvl1/median_filter.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/threshold.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"
#include "workloads/sequence.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle::tvl1 {
namespace {

bool same_bits(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

void expect_same_flow(const FlowField& got, const FlowField& want,
                      const std::string& what) {
  EXPECT_TRUE(same_bits(got.u1, want.u1)) << what << ": u1 differs";
  EXPECT_TRUE(same_bits(got.u2, want.u2)) << what << ": u2 differs";
}

Image golden_normalize(const Image& img) {
  Image out = img;
  for (float& v : out) v *= (1.f / 255.f);
  return out;
}

FlowField golden_upsample(const FlowField& flow, int rows, int cols) {
  FlowField out;
  const float scale_c =
      static_cast<float>(cols) / static_cast<float>(flow.cols());
  const float scale_r =
      static_cast<float>(rows) / static_cast<float>(flow.rows());
  out.u1 = upsample_to(flow.u1, rows, cols);
  out.u2 = upsample_to(flow.u2, rows, cols);
  for (float& v : out.u1) v *= scale_c;
  for (float& v : out.u2) v *= scale_r;
  return out;
}

// The serial outer loop as it ran before the fused sweep: per warp, copy
// u0, warp I1 with gradients, threshold, solve(v, u).
template <typename Solve>
FlowField golden_loop(const Pyramid& p0, const Pyramid& p1,
                      const Tvl1Params& params, Solve&& solve) {
  const int levels = std::min(p0.levels(), p1.levels());
  FlowField u;
  for (int level = levels - 1; level >= 0; --level) {
    const Image& l0 = p0.level(level);
    const Image& l1 = p1.level(level);
    u = level == levels - 1 ? FlowField(l0.rows(), l0.cols())
                            : golden_upsample(u, l0.rows(), l0.cols());
    for (int w = 0; w < params.warps; ++w) {
      const FlowField u0 = u;
      const WarpResult wr = warp_with_gradients(l1, u0);
      const ThresholdInputs in{l0, wr.warped, wr.grad, u0,
                               u,  params.lambda, params.chambolle.theta};
      const FlowField v = threshold_step(in);
      solve(v, u);
      if (params.median_filtering) u = median_filter_flow(u);
    }
  }
  return u;
}

// The pre-sweep inner solve of one component, with the fixed-budget
// sentinel resolved by the formula the pipeline used to inline.
Matrix<float> golden_solve(const Matrix<float>& v, const Tvl1Params& p,
                           std::unique_ptr<ResidentTiledEngine>& engine) {
  if (p.solver == InnerSolver::kReference) return solve(v, p.chambolle).u;
  if (engine == nullptr || engine->rows() != v.rows() ||
      engine->cols() != v.cols())
    engine = std::make_unique<ResidentTiledEngine>(v.rows(), v.cols(), 1,
                                                   p.chambolle, p.tiled);
  Matrix<float> u;
  engine->solve(v, nullptr, u);
  return u;
}

FlowField golden_flow(const Pyramid& p0, const Pyramid& p1,
                      const Tvl1Params& p) {
  std::unique_ptr<ResidentTiledEngine> e1, e2;
  return golden_loop(p0, p1, p, [&](const FlowField& v, FlowField& u) {
    u.u1 = golden_solve(v.u1, p, e1);
    u.u2 = golden_solve(v.u2, p, e2);
  });
}

FlowField golden_flow(const Image& i0, const Image& i1, const Tvl1Params& p) {
  const Pyramid p0(golden_normalize(i0), p.pyramid_levels);
  const Pyramid p1(golden_normalize(i1), p.pyramid_levels);
  return golden_flow(p0, p1, p);
}

struct Case {
  const char* name;
  Tvl1Params params;
};

// 272 x 256: the finest level spans two row chunks of the streaming passes
// (write-back, recovery, upsampling, gradients) and seventeen of the sweep,
// the middle level five of the sweep; the coarsest level runs inline.
constexpr int kRows = 256, kCols = 272;

Tvl1Params base_params() {
  Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 2;
  p.chambolle.iterations = 14;  // 4 + 4 + 4 + a 2-iteration remainder pass
  p.tiled.tile_rows = 40;
  p.tiled.tile_cols = 44;
  p.tiled.merge_iterations = 4;
  return p;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  Tvl1Params p = base_params();
  p.solver = InnerSolver::kReference;
  out.push_back({"reference", p});
  p.median_filtering = true;
  out.push_back({"reference+median", p});
  p = base_params();
  p.solver = InnerSolver::kResident;
  out.push_back({"resident", p});
  return out;
}

TEST(Tvl1Golden, ComputeFlowMatchesSerialLoopAtEveryLaneCount) {
  const auto wl = workloads::translating_scene(kRows, kCols, 2.5f, -1.5f, 23);
  const Image i0 = wl.frame0, i1 = wl.frame1;
  parallel::ThreadPool pool(4);
  for (Case c : cases()) {
    const FlowField want = golden_flow(i0, i1, c.params);
    for (int lanes = 1; lanes <= 4; ++lanes) {
      SCOPED_TRACE(std::string(c.name) + " lanes=" + std::to_string(lanes));
      c.params.tiled.pool = &pool;
      c.params.tiled.num_threads = lanes;
      expect_same_flow(compute_flow(i0, i1, c.params), want, "compute_flow");
    }
  }
}

TEST(Tvl1Golden, FlowSessionMatchesSerialLoopAtEveryLaneCount) {
  workloads::SequenceParams sp;
  sp.frames = 3;
  sp.rate_x = 1.5f;
  sp.rate_y = 0.5f;
  const workloads::VideoSequence seq = workloads::make_sequence(kRows, kCols, sp);
  parallel::ThreadPool pool(4);
  for (Case c : cases()) {
    std::vector<FlowField> want;
    for (std::size_t f = 1; f < seq.frames.size(); ++f)
      want.push_back(golden_flow(seq.frames[f - 1], seq.frames[f], c.params));
    for (int lanes = 1; lanes <= 4; ++lanes) {
      SCOPED_TRACE(std::string(c.name) + " lanes=" + std::to_string(lanes));
      Tvl1Params p = c.params;
      p.tiled.num_threads = lanes;
      p.tiled.pool = &pool;
      FlowSession session(p);
      ASSERT_FALSE(session.push_frame(seq.frames[0]).has_value());
      for (std::size_t f = 1; f < seq.frames.size(); ++f) {
        const std::optional<FlowField> got = session.push_frame(seq.frames[f]);
        ASSERT_TRUE(got.has_value());
        expect_same_flow(*got, want[f - 1],
                         "FlowSession frame " + std::to_string(f));
      }
    }
  }
}

hw::ArchConfig small_arch() {
  hw::ArchConfig cfg;
  cfg.tile_rows = 40;
  cfg.tile_cols = 40;
  cfg.merge_iterations = 4;
  return cfg;
}

TEST(Tvl1Golden, AcceleratedFlowMatchesSerialLoopAtEveryLaneCount) {
  const auto wl = workloads::translating_scene(72, 96, 1.5f, 1.f, 29);
  Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 2;
  p.chambolle.iterations = 8;
  const FlowField want = [&] {
    hw::ChambolleAccelerator accel(small_arch());
    const Pyramid p0(golden_normalize(wl.frame0), p.pyramid_levels);
    const Pyramid p1(golden_normalize(wl.frame1), p.pyramid_levels);
    return golden_loop(p0, p1, p, [&](const FlowField& v, FlowField& u) {
      u = accel.solve(v, p.chambolle).u;
    });
  }();
  parallel::ThreadPool pool(4);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    p.tiled.pool = &pool;
    p.tiled.num_threads = lanes;
    hw::ChambolleAccelerator accel(small_arch());
    expect_same_flow(compute_flow_accelerated(wl.frame0, wl.frame1, p, accel),
                     want, "compute_flow_accelerated");
  }
}

}  // namespace
}  // namespace chambolle::tvl1
