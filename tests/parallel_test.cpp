#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chambolle/tiled_solver.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace chambolle::parallel {
namespace {

// Arrives at `arrived`, then spins until `lanes` lanes have: returns only
// when the whole team runs at the same time, the property EpochGraph's
// no-deadlock guarantee rests on (a lane that never starts hangs the test).
void arrive_and_spin(std::atomic<int>& arrived, int lanes) {
  arrived.fetch_add(1, std::memory_order_acq_rel);
  while (arrived.load(std::memory_order_acquire) < lanes)
    std::this_thread::yield();
}

TEST(ResolveThreads, PositiveWinsAutoFallsBack) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);  // hardware concurrency, floored at 1
}

TEST(PerLane, SlotsAreCacheLinePadded) {
  PerLane<int> slots(4);
  EXPECT_EQ(slots.lanes(), 4);
  for (int i = 0; i + 1 < slots.lanes(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&slots[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&slots[i + 1]);
    EXPECT_GE(b - a, 64u) << "lanes " << i << " and " << i + 1;
  }
  slots[2] = 7;
  EXPECT_EQ(slots[2], 7);
  EXPECT_EQ(slots[0], 0);
}

TEST(ThreadPool, RunTeamCoversAllLanesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_team(4, [&](int lane, int lanes) {
    EXPECT_EQ(lanes, 4);
    hits[static_cast<std::size_t>(lane)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.tasks(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1237;  // not a multiple of any chunk below
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(
        kN, 4,
        [&](std::size_t begin, std::size_t end, int lane) {
          EXPECT_LT(lane, 4);
          EXPECT_LE(end, kN);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        chunk);
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " chunk " << chunk;
  }
}

TEST(ThreadPool, ElasticRegionsInterleaveWithFullTeams) {
  // parallel_for returns once its range is drained and the workers that
  // joined are done; a worker waking after that must skip the closed
  // region and still take its lane in the next full run_team.  Thousands of
  // tiny regions make late wake-ups common.
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> items{0};
    pool.parallel_for(3, 4, [&](std::size_t begin, std::size_t end, int lane) {
      EXPECT_LT(lane, 4);
      items.fetch_add(static_cast<int>(end - begin));
    });
    ASSERT_EQ(items.load(), 3);
    if (round % 10 == 0) {
      std::atomic<int> lanes_seen{0};
      pool.run_team(4, [&](int, int lanes) {
        arrive_and_spin(lanes_seen, lanes);
      });
      ASSERT_EQ(lanes_seen.load(), 4);
    }
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 2, [&](std::size_t, std::size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ThreadsCreatedAtMostOnceAcrossRegions) {
  // The tentpole guarantee: workers are spawned on first demand, then reused
  // — 10 further regions create zero additional threads.
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads_created(), 0u);  // lazy until first region
  pool.run_team(4, [](int, int) {});
  const std::uint64_t after_first = pool.threads_created();
  EXPECT_EQ(after_first, 3u);  // caller is lane 0
  for (int i = 0; i < 10; ++i)
    pool.parallel_for(100, 4, [](std::size_t, std::size_t, int) {});
  EXPECT_EQ(pool.threads_created(), after_first);
  EXPECT_EQ(pool.resident_workers(), 3);
}

TEST(ThreadPool, NestedEntryRunsInline) {
  // A region body re-entering the pool must not deadlock; the inner region
  // degrades to a single inline lane.
  ThreadPool pool(2);
  std::atomic<int> inner_lanes{-1};
  std::atomic<int> inner_arrived{0};
  std::atomic<int> inner_items{0};
  pool.run_team(2, [&](int lane, int) {
    if (lane == 0)
      pool.run_team(4, [&](int, int lanes) {
        inner_lanes.store(lanes);
        arrive_and_spin(inner_arrived, lanes);  // one lane: must not block
      });
    else
      pool.parallel_for(10, 4, [&](std::size_t begin, std::size_t end, int) {
        inner_items.fetch_add(static_cast<int>(end - begin));
      });
  });
  EXPECT_EQ(inner_lanes.load(), 1);
  EXPECT_EQ(inner_items.load(), 10);
}

TEST(ThreadPool, ConcurrentExternalCallersSerialize) {
  // Several threads race regions on one pool; each region must still run
  // with exclusive use of the team and complete all its work.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr std::size_t kN = 500;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&] {
      for (int r = 0; r < 5; ++r)
        pool.parallel_for(kN, 3, [&](std::size_t begin, std::size_t end, int) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
    });
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kCallers) * 5u * kN);
  EXPECT_EQ(pool.tasks(), static_cast<std::uint64_t>(kCallers) * 5u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_team(4,
                             [](int lane, int) {
                               if (lane == 3)
                                 throw std::runtime_error("lane 3 failed");
                             }),
               std::runtime_error);
  // The team quiesced and the pool is reusable.
  std::atomic<int> hits{0};
  pool.run_team(4, [&](int, int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPool, ResizeShrinksResidentWorkers) {
  ThreadPool pool(4);
  pool.run_team(4, [](int, int) {});
  EXPECT_EQ(pool.resident_workers(), 3);
  pool.resize(2);
  EXPECT_EQ(pool.threads(), 2);
  EXPECT_LE(pool.resident_workers(), 1);
  pool.run_team(2, [](int, int) {});  // still functional
}

TEST(ThreadPool, LanesForResolvesRequests) {
  ThreadPool pool(6);
  EXPECT_EQ(pool.lanes_for(3), 3);
  EXPECT_EQ(pool.lanes_for(0), 6);
  EXPECT_EQ(pool.lanes_for(9), 9);  // oversubscription is the caller's call
}

TEST(ThreadPool, TiledSolveCreatesThreadsAtMostOnce) {
  // The ISSUE's telemetry assertion: a 10-pass tiled solve on the default
  // pool spawns workers at most once, and repeated solves spawn none — both
  // on the pool's always-on counters and on the `pool.threads_created`
  // registry mirror.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Counter& mirror =
      telemetry::registry().counter("pool.threads_created");

  Rng rng(99);
  const Matrix<float> v = random_image(rng, 64, 64, -2.f, 2.f);
  ChambolleParams params;
  params.iterations = 10;
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 1;  // 10 iterations -> 10 pooled passes
  opt.num_threads = 4;

  const std::uint64_t before = default_pool().threads_created();
  TiledSolverStats stats;
  (void)solve_tiled(v, params, opt, &stats);
  EXPECT_EQ(stats.passes, 10);

  const std::uint64_t created = default_pool().threads_created();
  const std::uint64_t mirrored = mirror.value();
  EXPECT_LE(created - before, 3u);  // one spawn burst at most: 4 lanes =
                                    // caller + up to 3 new resident workers
  for (int i = 0; i < 10; ++i) (void)solve_tiled(v, params, opt);
  EXPECT_EQ(default_pool().threads_created(), created);
  EXPECT_EQ(mirror.value(), mirrored);

  telemetry::set_enabled(was_enabled);
}

}  // namespace
}  // namespace chambolle::parallel
