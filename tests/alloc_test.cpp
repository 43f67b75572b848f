// Allocation budgets of the TV-L1 outer loop's hot path.  Its own executable
// because it replaces the global operator new with a counting one: every
// heap allocation of the process, on any thread, between two reads of the
// counter is charged to the code run in between.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "chambolle/resident_tiled.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/sweep.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"
#include "workloads/sequence.hpp"

namespace {

std::atomic<long long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace chambolle::tvl1 {
namespace {

template <typename Fn>
long long allocations_during(Fn&& fn) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(OuterLoopAllocations, SweepAllocatesNothingOnceItsOutputIsShaped) {
  parallel::ThreadPool pool(3);
  Rng rng(1);
  const Image i0 = random_image(rng, 252, 316, 0.f, 1.f);
  const Image i1 = random_image(rng, 252, 316, 0.f, 1.f);
  FlowField u(252, 316);
  for (float& x : u.u1) x = rng.uniform(-2.f, 2.f);
  Gradients grad;
  FlowField v, fine;
  // Shape the outputs and start the pool's workers.
  gradients_into(i1, grad, pool, 3);
  warp_threshold_into(i0, i1, grad, u, 25.f, 0.25f, v, pool, 3);
  const FlowField coarse(126, 158);
  upsample_flow_into(coarse, 252, 316, fine, pool, 3);
  for (const int lanes : {1, 3}) {
    EXPECT_EQ(allocations_during([&] {
                for (int k = 0; k < 5; ++k)
                  warp_threshold_into(i0, i1, grad, u, 25.f, 0.25f, v, pool,
                                      lanes);
              }),
              0)
        << "lanes=" << lanes;
    EXPECT_EQ(allocations_during([&] { gradients_into(i1, grad, pool, lanes); }),
              0)
        << "lanes=" << lanes;
    EXPECT_EQ(allocations_during([&] {
                upsample_flow_into(coarse, 252, 316, fine, pool, lanes);
              }),
              0)
        << "lanes=" << lanes;
  }
}

TEST(OuterLoopAllocations, ResidentRunAllocatesNothingOnceWarm) {
  // A TV-L1 inner solve: the two flow components of a 316 x 252 frame on
  // one engine, primal out only, three lanes.  The first solve sizes the
  // outputs and the per-lane scratch; every later one reuses them.
  parallel::ThreadPool pool(3);
  Rng rng(3);
  const Matrix<float> v1 = random_image(rng, 252, 316, -1.f, 1.f);
  const Matrix<float> v2 = random_image(rng, 252, 316, -1.f, 1.f);
  const Matrix<float>* const inputs[] = {&v1, &v2};
  TiledSolverOptions opts;
  opts.merge_iterations = 4;
  opts.pool = &pool;
  ResidentTiledEngine engine(252, 316, 2, ChambolleParams{0.25f, 0.0625f, 30},
                             opts);
  Matrix<float> u1, u2;
  Matrix<float>* const us[] = {&u1, &u2};
  engine.solve(inputs, {}, us);
  EXPECT_EQ(allocations_during([&] {
              for (int k = 0; k < 5; ++k) engine.solve(inputs, {}, us);
            }),
            0);
}

TEST(OuterLoopAllocations, ResidentResultIntoAllocatesNothingOnceShaped) {
  // A Chambolle-mode solve: one field, the session's duals both warm start
  // and write-back.  Once the first solve has shaped u and the duals, the
  // recovery writes into them in place.
  parallel::ThreadPool pool(3);
  Rng rng(2);
  const Matrix<float> v = random_image(rng, 252, 316, -1.f, 1.f);
  TiledSolverOptions opts;
  opts.merge_iterations = 4;
  opts.pool = &pool;
  ResidentTiledEngine engine(252, 316, 1, ChambolleParams{0.25f, 0.0625f, 8},
                             opts);
  Matrix<float> u;
  DualField duals;
  engine.solve(v, nullptr, u, &duals);
  EXPECT_EQ(allocations_during([&] {
              for (int k = 0; k < 5; ++k) engine.solve(v, &duals, u, &duals);
            }),
            0);
}

// The steady state of the benchmark's single-stream configuration: the
// paper's 316 x 252 frame, the resident engine on its own plan, 4 levels x 5
// warps x 30 iterations, three lanes.  Measured: 32 allocations per frame —
// 7 for the new frame's pyramid and 25 for the per-level flow, support-field
// and gradient buffers the outer loop reshapes at every level.  The four
// per-level two-field engines stay in the session's EngineCache, so a frame
// builds none; the 20 inner solves allocate nothing once their engine has
// solved (ResidentRunAllocatesNothingOnceWarm), and the pool allocates
// nothing when the team width alternates between the one-tile and
// three-strip levels.  The bound keeps the 11 % headroom it has had since
// the 88 x 92 window's 1144; one engine build per frame (24 at a coarse
// level, about 90 at a fine one), per-solve engine scratch (7 a solve, 140
// a frame), or the 8 outer-loop temporaries per warp (160 per frame) the
// fused sweep removed, would break it.
constexpr long long kPushFrameAllocationBound = 35;

TEST(OuterLoopAllocations, SteadyStateFlowSessionFrameStaysUnderItsBound) {
  parallel::ThreadPool pool(3);
  Tvl1Params p;
  p.solver = InnerSolver::kResident;
  p.tiled.merge_iterations = 4;
  p.tiled.pool = &pool;
  workloads::SequenceParams sp;
  sp.frames = 4;
  const workloads::VideoSequence seq = workloads::make_sequence(252, 316, sp);
  FlowSession session(p);
  (void)session.push_frame(seq.frames[0]);
  (void)session.push_frame(seq.frames[1]);  // warm: workers, kernel dispatch
  for (std::size_t f = 2; f < seq.frames.size(); ++f) {
    std::optional<FlowField> flow;
    const long long n =
        allocations_during([&] { flow = session.push_frame(seq.frames[f]); });
    ASSERT_TRUE(flow.has_value());
    EXPECT_LE(n, kPushFrameAllocationBound) << "frame " << f;
    RecordProperty("allocations_frame_" + std::to_string(f),
                   static_cast<int>(n));
  }
}

}  // namespace
}  // namespace chambolle::tvl1
