#include "parallel/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace chambolle::parallel {
namespace {

// A 1-D chain: node n depends on n-1 and n+1 — the minimal sliding-window
// neighbor structure.
std::vector<std::vector<int>> chain(int n) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i + 1 < n) adj[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  return adj;
}

TEST(EpochGraph, RunsEveryNodeEveryPassExactlyOnce) {
  const int n = 12, passes = 7;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  graph.run(passes, 4, default_pool(), [&](int node, int epoch, int) {
    EXPECT_EQ(count[static_cast<std::size_t>(node)].load(), epoch);
    count[static_cast<std::size_t>(node)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), passes);
}

TEST(EpochGraph, NeighborEpochsNeverDriftBeyondOne) {
  // The invariant the parity-double-buffered mailboxes rely on: when
  // body(n, e) runs, every neighbor has completed at least pass e-1 and at
  // most pass e+1.  Checked live, from inside the bodies, under real
  // concurrency.
  const int n = 16, passes = 9;
  const auto adj = chain(n);
  EpochGraph graph(adj);
  std::vector<std::atomic<int>> epoch(static_cast<std::size_t>(n));
  std::atomic<int> violations{0};
  graph.run(passes, 4, default_pool(), [&](int node, int e, int) {
    for (const int m : adj[static_cast<std::size_t>(node)]) {
      const int me = epoch[static_cast<std::size_t>(m)].load();
      if (me < e - 1 || me > e + 1) violations.fetch_add(1);
    }
    epoch[static_cast<std::size_t>(node)].store(e + 1);
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(EpochGraph, IndependentNodesNeedNoOrdering) {
  // No edges: every node free-runs its passes; still exactly-once per epoch.
  EpochGraph graph(std::vector<std::vector<int>>(8));
  std::atomic<int> total{0};
  graph.run(5, 3, default_pool(), [&](int, int, int) {
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 8 * 5);
}

TEST(EpochGraph, PinningIsStablePerNode) {
  // A node must see the same lane for all its passes (tile residency).
  const int n = 10, passes = 6;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> lane_of(static_cast<std::size_t>(n));
  for (auto& l : lane_of) l.store(-1);
  std::atomic<int> migrations{0};
  graph.run(passes, 3, default_pool(), [&](int node, int, int lane) {
    int expected = -1;
    if (!lane_of[static_cast<std::size_t>(node)].compare_exchange_strong(
            expected, lane) &&
        expected != lane)
      migrations.fetch_add(1);
  });
  EXPECT_EQ(migrations.load(), 0);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(lane_of[static_cast<std::size_t>(i)].load(),
              graph.owner(i, 3));
}

TEST(EpochGraph, OwnerBlocksAreContiguousAndCoverAllNodes) {
  EpochGraph graph(chain(13));
  int prev = 0;
  for (int node = 0; node < 13; ++node) {
    const int o = graph.owner(node, 4);
    EXPECT_GE(o, prev);  // non-decreasing => contiguous blocks
    EXPECT_LT(o, 4);
    prev = o;
  }
  EXPECT_EQ(graph.owner(12, 4), 3);  // every lane gets work
  EXPECT_THROW((void)graph.owner(13, 4), std::invalid_argument);
}

TEST(EpochGraph, MoreLanesThanNodesDegradesGracefully) {
  const int n = 3;
  EpochGraph graph(chain(n));
  std::atomic<int> total{0};
  graph.run(4, 16, default_pool(), [&](int, int, int lane) {
    EXPECT_LT(lane, n);  // team clamped to the node count
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), n * 4);
}

TEST(EpochGraph, ZeroPassesAndEmptyGraphAreNoOps) {
  EpochGraph empty(std::vector<std::vector<int>>{});
  EXPECT_EQ(empty.nodes(), 0);
  empty.run(5, 2, default_pool(), [&](int, int, int) {
    ADD_FAILURE();
  });
  EpochGraph graph(chain(4));
  graph.run(0, 2, default_pool(), [&](int, int, int) {
    ADD_FAILURE();
  });
}

TEST(EpochGraph, LastEpochWaitsForEveryNode) {
  // The last epoch is a join: no node enters it before every node — not
  // just its neighbors — has finished the epoch before.  Node 0 is slowed,
  // so without the join the far end of the chain would run ahead of it by
  // up to one epoch per hop and reach the last epoch first.
  const int n = 8, passes = 5;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(n));
  std::atomic<int> early{0}, last_runs{0};
  graph.run(passes, 4, default_pool(), [&](int node, int e, int) {
    if (node == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (e == passes - 1) {
      last_runs.fetch_add(1);
      for (const std::atomic<int>& d : done)
        if (d.load() < passes - 1) early.fetch_add(1);
    }
    done[static_cast<std::size_t>(node)].store(e + 1);
  });
  EXPECT_EQ(last_runs.load(), n);
  EXPECT_EQ(early.load(), 0);
}

TEST(EpochGraph, BodyExceptionAbortsAndPropagates) {
  const int n = 8;
  EpochGraph graph(chain(n));
  EXPECT_THROW(
      graph.run(50, 4, default_pool(),
                [&](int node, int epoch, int) {
                  if (node == 3 && epoch == 2)
                    throw std::runtime_error("boom");
                              }),
      std::runtime_error);
  // A throw while the other lanes wait at the last epoch's join: nodes
  // without edges all reach the join and spin there until they see the
  // abort.
  EpochGraph free_nodes(
      std::vector<std::vector<int>>(static_cast<std::size_t>(n)));
  const int passes = 4;
  std::atomic<int> last_runs{0};
  EXPECT_THROW(free_nodes.run(passes, 4, default_pool(),
                              [&](int node, int epoch, int) {
                                if (epoch == passes - 1) last_runs.fetch_add(1);
                                if (node == 0 && epoch == passes - 2) {
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(20));
                                  throw std::runtime_error("boom at the join");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(last_runs.load(), 0);
  // The graph (and the pool) must remain usable afterwards.
  std::atomic<int> total{0};
  graph.run(2, 2, default_pool(), [&](int, int, int) {
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), n * 2);
}

TEST(EpochGraph, RejectsOutOfRangeNeighbors) {
  std::vector<std::vector<int>> adj(2);
  adj[0].push_back(5);
  EXPECT_THROW(EpochGraph{adj}, std::invalid_argument);
  EXPECT_THROW(EpochGraph(chain(3)).run(-1, 2, default_pool(),
                                        [](int, int, int) {}),
               std::invalid_argument);
}

TEST(EpochGraph, ReportsStallStatsOnReuse) {
  // Stall counters are best-effort (may be zero on a fast machine), but the
  // structure must accumulate sanely across runs.
  EpochGraph graph(chain(6));
  const auto idle = [](int, int, int) {};
  const auto s1 = graph.run(3, 2, default_pool(), idle);
  EXPECT_GE(s1.stall_seconds, 0.0);
  const auto s2 = graph.run(3, 2, default_pool(), idle);
  EXPECT_GE(s2.stall_spins, 0u);
}

}  // namespace
}  // namespace chambolle::parallel
