#include "parallel/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
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

// The work-queue schedule a retiring run uses: stealing + CAS claims.
EpochGraph::RunStats run_stealing(EpochGraph& graph, int passes, int lanes,
                                  ThreadPool& pool,
                                  const EpochGraph::NodeFn& body) {
  return graph.run(passes, lanes, pool, body, /*steal=*/true);
}

// A stealing run with a periodic rendezvous.
EpochGraph::RunStats run_with_rendezvous(
    EpochGraph& graph, int passes, int period, int lanes, ThreadPool& pool,
    const EpochGraph::NodeFn& body, const EpochGraph::RendezvousFn& rv) {
  return graph.run(passes, lanes, pool, body, /*steal=*/true, period, rv);
}

TEST(EpochGraph, RunsEveryNodeEveryPassExactlyOnce) {
  const int n = 12, passes = 7;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  graph.run(passes, 4, default_pool(), [&](int node, int epoch, int) {
    EXPECT_EQ(count[static_cast<std::size_t>(node)].load(), epoch);
    count[static_cast<std::size_t>(node)].fetch_add(1);
    return false;
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
    return false;
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(EpochGraph, IndependentNodesNeedNoOrdering) {
  // No edges: every node free-runs its passes; still exactly-once per epoch.
  EpochGraph graph(std::vector<std::vector<int>>(8));
  std::atomic<int> total{0};
  graph.run(5, 3, default_pool(), [&](int, int, int) {
    total.fetch_add(1);
    return false;
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
    return false;
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
    return false;
  });
  EXPECT_EQ(total.load(), n * 4);
}

TEST(EpochGraph, ZeroPassesAndEmptyGraphAreNoOps) {
  EpochGraph empty(std::vector<std::vector<int>>{});
  EXPECT_EQ(empty.nodes(), 0);
  empty.run(5, 2, default_pool(), [&](int, int, int) -> bool {
    ADD_FAILURE();
    return false;
  });
  EpochGraph graph(chain(4));
  graph.run(0, 2, default_pool(), [&](int, int, int) -> bool {
    ADD_FAILURE();
    return false;
  });
}

TEST(EpochGraph, BodyExceptionAbortsAndPropagates) {
  const int n = 8;
  EpochGraph graph(chain(n));
  EXPECT_THROW(
      graph.run(50, 4, default_pool(),
                [&](int node, int epoch, int) {
                  if (node == 3 && epoch == 2)
                    throw std::runtime_error("boom");
                  return false;
                }),
      std::runtime_error);
  // The graph (and the pool) must remain usable afterwards.
  std::atomic<int> total{0};
  graph.run(2, 2, default_pool(), [&](int, int, int) {
    total.fetch_add(1);
    return false;
  });
  EXPECT_EQ(total.load(), n * 2);
}

TEST(EpochGraph, RejectsOutOfRangeNeighbors) {
  std::vector<std::vector<int>> adj(2);
  adj[0].push_back(5);
  EXPECT_THROW(EpochGraph{adj}, std::invalid_argument);
  EXPECT_THROW(EpochGraph(chain(3)).run(-1, 2, default_pool(),
                                        [](int, int, int) { return false; }),
               std::invalid_argument);
}

TEST(EpochGraph, ReportsStallStatsOnReuse) {
  // Stall counters are best-effort (may be zero on a fast machine), but the
  // structure must accumulate sanely across runs.
  EpochGraph graph(chain(6));
  const auto idle = [](int, int, int) { return false; };
  const auto s1 = graph.run(3, 2, default_pool(), idle);
  EXPECT_GE(s1.stall_seconds, 0.0);
  const auto s2 = graph.run(3, 2, default_pool(), idle);
  EXPECT_GE(s2.stall_spins, 0u);
}

TEST(EpochGraph, PinnedRunRetiresNodesWithoutStealing) {
  // Retirement does not need the work queue: a pinned run still stops a
  // retiring node and finishes the rest, and every pass stays on its
  // owner's lane.
  const int n = 9, cap = 6;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  std::atomic<int> migrations{0};
  const auto rs =
      graph.run(cap, 3, default_pool(), [&](int node, int epoch, int lane) {
        count[static_cast<std::size_t>(node)].fetch_add(1);
        if (lane != graph.owner(node, 3)) migrations.fetch_add(1);
        return node == 4 && epoch == 0;
      });
  EXPECT_EQ(migrations.load(), 0);
  EXPECT_EQ(rs.stolen_passes, 0u);
  EXPECT_EQ(rs.retired_nodes, 1u);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), i == 4 ? 1 : cap);
}

TEST(EpochGraph, AdaptiveRunsToCapWhenNoNodeRetires) {
  // A body that never retires makes a stealing run equivalent to a pinned
  // one: every node executes exactly `cap` epochs, each exactly once, in
  // order.
  const int n = 12, cap = 7;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  const auto rs = run_stealing(
      graph, cap, 4, default_pool(), [&](int node, int epoch, int) {
        EXPECT_EQ(count[static_cast<std::size_t>(node)].load(), epoch);
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return false;
      });
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), cap);
  EXPECT_EQ(rs.executed_passes, static_cast<std::uint64_t>(n) * cap);
  EXPECT_EQ(rs.retired_nodes, 0u);
}

TEST(EpochGraph, AdaptiveRetirementStopsANodeAndUnblocksNeighbors) {
  // Node 0 retires after its 2nd pass; it must never run again, and the
  // rest of the chain must still reach the cap (no deadlock waiting on the
  // retired node) — the terminal-epoch guarantee the resident engine needs.
  const int n = 8, cap = 20;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  const auto rs = run_stealing(
      graph, cap, 3, default_pool(), [&](int node, int epoch, int) {
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return node == 0 && epoch == 1;
      });
  EXPECT_EQ(count[0].load(), 2);
  for (int i = 1; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), cap);
  EXPECT_EQ(rs.retired_nodes, 1u);
  EXPECT_EQ(rs.executed_passes,
            2u + static_cast<std::uint64_t>(n - 1) * cap);
}

TEST(EpochGraph, AdaptiveEveryPassRunsExactlyOnceUnderStealing) {
  // Most nodes retire on pass 1, funneling all lanes onto the few
  // stragglers: the CAS claim must still serialize every (node, epoch) to
  // exactly one execution.
  const int n = 32, cap = 50;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  const auto rs = run_stealing(
      graph, cap, 4, default_pool(), [&](int node, int epoch, int) {
        EXPECT_EQ(count[static_cast<std::size_t>(node)].load(), epoch);
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return node % 8 != 0;  // 28 of 32 nodes retire immediately
      });
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(),
              i % 8 != 0 ? 1 : cap);
  EXPECT_EQ(rs.retired_nodes, 28u);
}

TEST(EpochGraph, AdaptiveRedistributesFreedCapacity) {
  // With 4 lanes and all but the first block's nodes retired up front, the
  // other lanes' capacity must migrate: the straggler's passes land off its
  // preferred lane at least once on a multi-lane run, surfacing as
  // stolen_passes.  (Single-lane machines can't steal; skip there.)
  if (default_pool().lanes_for(0) < 2) GTEST_SKIP() << "needs >= 2 lanes";
  const int n = 16, cap = 200;
  const std::vector<std::vector<int>> no_edges(n);
  EpochGraph graph(no_edges);
  const auto rs = run_stealing(
      graph, cap, 4, default_pool(),
      [&](int node, int, int) { return node != n - 1; });
  EXPECT_EQ(rs.retired_nodes, static_cast<std::uint64_t>(n - 1));
  // The last node runs cap passes; with its block-mates retired, lanes 0-2
  // drain and scan over.  Stealing is opportunistic, so we assert only the
  // accounting identity, not a minimum steal count.
  EXPECT_EQ(rs.executed_passes,
            static_cast<std::uint64_t>(n - 1) + cap);
  EXPECT_LE(rs.stolen_passes, rs.executed_passes);
}

TEST(EpochGraph, AdaptiveNeighborSkewStillBoundedByOne) {
  // The mailbox-parity invariant must survive retirement and stealing.
  const int n = 16, cap = 12;
  const auto adj = chain(n);
  EpochGraph graph(adj);
  std::vector<std::atomic<int>> epoch(static_cast<std::size_t>(n));
  std::atomic<int> violations{0};
  run_stealing(graph, cap, 4, default_pool(), [&](int node, int e, int) {
    for (const int m : adj[static_cast<std::size_t>(node)]) {
      const int me = epoch[static_cast<std::size_t>(m)].load();
      // A retired neighbor legitimately reads as "done" (>= e); only
      // lagging beyond one pass is a violation.
      if (me < e - 1) violations.fetch_add(1);
    }
    // Mirror the engine's terminal-epoch convention: a retired node reads
    // as "done with every pass", so neighbors may lap it freely.
    const bool retire = node % 3 == 0 && e >= 2;
    epoch[static_cast<std::size_t>(node)].store(retire ? cap : e + 1);
    return retire;
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(EpochGraph, AdaptiveBodyExceptionAbortsAndPropagates) {
  const int n = 8;
  EpochGraph graph(chain(n));
  EXPECT_THROW(run_stealing(graph, 50, 4, default_pool(),
                            [&](int node, int epoch, int) {
                              if (node == 3 && epoch == 2)
                                throw std::runtime_error("boom");
                              return false;
                            }),
               std::runtime_error);
  // Graph and pool stay usable, for both schedules.
  std::atomic<int> total{0};
  run_stealing(graph, 2, 2, default_pool(), [&](int, int, int) {
    total.fetch_add(1);
    return false;
  });
  EXPECT_EQ(total.load(), n * 2);
}

TEST(EpochGraph, RendezvousFiresAtEveryBoundary) {
  // passes = 17, period = 4: firings at pass boundaries 4, 8, 12, 16 —
  // (17 - 1) / 4 = 4 of them; every node still runs every pass exactly once.
  const int n = 10, passes = 17, period = 4;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  std::vector<int> boundaries;
  const auto stats = run_with_rendezvous(
      graph, passes, period, 4, default_pool(),
      [&](int node, int epoch, int) {
        EXPECT_EQ(count[static_cast<std::size_t>(node)].load(), epoch);
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return false;
      },
      [&](int firing, EpochGraph::RendezvousControl& ctl) {
        EXPECT_EQ(ctl.boundary(), (firing + 1) * period);
        boundaries.push_back(ctl.boundary());
      });
  EXPECT_EQ(stats.rendezvous_fired, 4u);
  EXPECT_EQ(boundaries, (std::vector<int>{4, 8, 12, 16}));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), passes);
}

TEST(EpochGraph, RendezvousWindowIsExclusive) {
  // Inside a firing every live node is parked at EXACTLY the boundary: no
  // node body runs concurrently with the rendezvous, and no node has run
  // past it.  Checked live from inside the firing, under real concurrency.
  const int n = 12, passes = 25, period = 5;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  std::atomic<int> violations{0};
  run_with_rendezvous(
      graph, passes, period, 4, default_pool(),
      [&](int node, int, int) {
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return false;
      },
      [&](int, EpochGraph::RendezvousControl& ctl) {
        for (int i = 0; i < n; ++i)
          if (count[static_cast<std::size_t>(i)].load() != ctl.boundary())
            violations.fetch_add(1);
      });
  EXPECT_EQ(violations.load(), 0);
}

TEST(EpochGraph, RendezvousRetiredNodesStayParked) {
  // Node 0 retires after pass 3; later firings see its count unchanged and
  // the other nodes keep their exact boundary counts.
  const int n = 6, passes = 13, period = 4;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  std::atomic<int> bad{0};
  run_with_rendezvous(
      graph, passes, period, 3, default_pool(),
      [&](int node, int epoch, int) {
        count[static_cast<std::size_t>(node)].fetch_add(1);
        return node == 0 && epoch == 2;  // retired with 3 passes done
      },
      [&](int, EpochGraph::RendezvousControl& ctl) {
        if (count[0].load() != 3) bad.fetch_add(1);
        for (int i = 1; i < n; ++i)
          if (count[static_cast<std::size_t>(i)].load() != ctl.boundary())
            bad.fetch_add(1);
      });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(count[0].load(), 3);
  for (int i = 1; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), passes);
}

TEST(EpochGraph, RendezvousResurrectionResumesANode) {
  // Node 0 retires before the first firing; the firing un-retires it, and it
  // then runs every remaining pass from the boundary to the cap.
  const int n = 5, passes = 11, period = 4;
  EpochGraph graph(chain(n));
  std::vector<std::atomic<int>> count(static_cast<std::size_t>(n));
  std::atomic<int> resurrections{0};
  run_with_rendezvous(
      graph, passes, period, 3, default_pool(),
      [&](int node, int, int) {
        const int c =
            count[static_cast<std::size_t>(node)].fetch_add(1) + 1;
        return node == 0 && c == 2 && resurrections.load() == 0;
      },
      [&](int firing, EpochGraph::RendezvousControl& ctl) {
        if (firing == 0) {
          EXPECT_EQ(count[0].load(), 2);
          ctl.resurrect(0);
          resurrections.fetch_add(1);
        }
      });
  // Node 0: passes 0..1 before retiring, then passes 4..10 after the
  // boundary-4 resurrection = 9 total; everyone else runs all 11.
  EXPECT_EQ(resurrections.load(), 1);
  EXPECT_EQ(count[0].load(), 2 + (passes - period));
  for (int i = 1; i < n; ++i)
    EXPECT_EQ(count[static_cast<std::size_t>(i)].load(), passes);
}

TEST(EpochGraph, RendezvousDegeneratesToAdaptive) {
  // period <= 0 and period >= passes realize no firing: the run must be
  // exactly the plain stealing run — all passes execute, the rendezvous
  // never fires.
  const int n = 6;
  EpochGraph graph(chain(n));
  for (const int period : {0, -3, 7, 100}) {
    std::atomic<int> total{0};
    const auto stats = run_with_rendezvous(
        graph, 7, period, 3, default_pool(),
        [&](int, int, int) {
          total.fetch_add(1);
          return false;
        },
        [&](int, EpochGraph::RendezvousControl&) { ADD_FAILURE(); });
    EXPECT_EQ(total.load(), n * 7) << "period=" << period;
    EXPECT_EQ(stats.rendezvous_fired, 0u) << "period=" << period;
  }
}

TEST(EpochGraph, RendezvousAllRetiredEndsRunWithoutTrailingFirings) {
  // Every node retires immediately; the scheduler must terminate without
  // running all nominal firings (finished fleet + no resurrection ends it).
  const int n = 4;
  EpochGraph graph(chain(n));
  std::atomic<int> firings{0};
  const auto stats = run_with_rendezvous(
      graph, 41, 4, 3, default_pool(), [&](int, int, int) { return true; },
      [&](int, EpochGraph::RendezvousControl&) { firings.fetch_add(1); });
  EXPECT_LE(firings.load(), 1);
  EXPECT_EQ(stats.retired_nodes, static_cast<std::uint64_t>(n));
}

TEST(EpochGraph, AdaptiveZeroPassesAndEmptyGraphAreNoOps) {
  EpochGraph empty(std::vector<std::vector<int>>{});
  run_stealing(empty, 5, 2, default_pool(), [&](int, int, int) -> bool {
    ADD_FAILURE();
    return false;
  });
  EpochGraph graph(chain(4));
  run_stealing(graph, 0, 2, default_pool(), [&](int, int, int) -> bool {
    ADD_FAILURE();
    return false;
  });
  EXPECT_THROW(run_stealing(graph, -1, 2, default_pool(),
                                  [](int, int, int) { return false; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace chambolle::parallel
