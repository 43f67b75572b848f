// pool_regions_test.cpp — parallel regions per unit of work, counted rather
// than timed.  Every region (a team dispatch or an inline one) costs a
// wake-up and a join on the host, and ThreadPool::tasks() counts them
// exactly, so these budgets hold on any machine.  A resident solve is one
// region: each node loads its own tile in its first epoch and recovers it
// in its last.
#include <gtest/gtest.h>

#include <optional>

#include "chambolle/engine_cache.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/sequence.hpp"

namespace chambolle {
namespace {

template <typename Fn>
std::uint64_t regions_during(const parallel::ThreadPool& pool, Fn&& fn) {
  const std::uint64_t before = pool.tasks();
  fn();
  return pool.tasks() - before;
}

// The benchmark's single-stream frame: 316 x 252, 4 levels x 5 warps, the
// resident engine on three lanes.  Per warp, the fused warp -> threshold
// sweep and one solve; per frame, 7 more: the gradients of each of the 4
// levels and the 3 upsamplings between them.
TEST(PoolRegions, SteadyFlowSessionFrame) {
  parallel::ThreadPool pool(3);
  tvl1::Tvl1Params p;
  p.solver = tvl1::InnerSolver::kResident;
  p.tiled.merge_iterations = 4;
  p.tiled.pool = &pool;
  workloads::SequenceParams sp;
  sp.frames = 4;
  const workloads::VideoSequence seq = workloads::make_sequence(252, 316, sp);
  tvl1::FlowSession session(p);
  (void)session.push_frame(seq.frames[0]);
  (void)session.push_frame(seq.frames[1]);  // builds the level engines
  const int warps = p.pyramid_levels * p.warps;
  for (std::size_t f = 2; f < seq.frames.size(); ++f) {
    std::optional<FlowField> flow;
    EXPECT_EQ(regions_during(pool,
                             [&] { flow = session.push_frame(seq.frames[f]); }),
              static_cast<std::uint64_t>(2 * warps + 7))
        << "frame " << f;
    ASSERT_TRUE(flow.has_value());
  }
}

// A Chambolle-mode solve as the service makes it: the slot cache's engine,
// the session's duals both warm start and write-back.
TEST(PoolRegions, ChambolleModeSolveIsOneRegion) {
  parallel::ThreadPool pool(3);
  ChambolleParams params;
  params.iterations = 8;
  TiledSolverOptions opts;
  opts.merge_iterations = 4;
  opts.pool = &pool;
  EngineCache cache(params, opts);
  Rng rng(7);
  for (const auto& [rows, cols] : {std::pair{768, 1024}, {120, 160}}) {
    const Matrix<float> v = random_image(rng, rows, cols, -1.f, 1.f);
    Matrix<float> u;
    DualField duals;
    cache.engine(rows, cols, 1).solve(v, nullptr, u, &duals);  // builds
    EXPECT_EQ(regions_during(pool,
                             [&] {
                               cache.engine(rows, cols, 1)
                                   .solve(v, &duals, u, &duals);
                             }),
              1u)
        << rows << "x" << cols;
  }
}

}  // namespace
}  // namespace chambolle
