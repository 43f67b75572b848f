#include "parallel/task_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/stopwatch.hpp"
#include "telemetry/profiler.hpp"

namespace chambolle::parallel {
namespace {

/// First node of lane `lane`'s contiguous block.
int block_begin(int nodes, int lanes, int lane) {
  return static_cast<int>(static_cast<long long>(nodes) * lane / lanes);
}

}  // namespace

EpochGraph::EpochGraph(std::vector<std::vector<int>> neighbors)
    : adj_(std::move(neighbors)), state_(adj_.size()) {
  const int n = nodes();
  for (std::vector<int>& nbrs : adj_) {
    for (const int m : nbrs)
      if (m < 0 || m >= n)
        throw std::invalid_argument("EpochGraph: neighbor index out of range");
  }
}

int EpochGraph::owner(int node, int lanes) const {
  const int n = nodes();
  if (node < 0 || node >= n)
    throw std::invalid_argument("EpochGraph::owner: node out of range");
  const int l = std::max(1, std::min(lanes, n));
  for (int lane = l - 1; lane > 0; --lane)
    if (node >= block_begin(n, l, lane)) return lane;
  return 0;
}

EpochGraph::RunStats EpochGraph::run(int passes, int lanes, ThreadPool& pool,
                                     const NodeFn& body) {
  if (passes < 0) throw std::invalid_argument("EpochGraph::run: passes < 0");
  const int n = nodes();
  RunStats total;
  if (n == 0 || passes == 0) return total;
  for (NodeState& s : state_) s.epoch.store(0, std::memory_order_relaxed);

  const int team = std::max(1, std::min(lanes, n));
  std::atomic<bool> abort{false};
  // Nodes that finished epoch passes - 2: the last epoch's join.
  std::atomic<int> joined{0};
  if (lane_stats_.lanes() < team) lane_stats_ = PerLane<RunStats>(team);
  for (int lane = 0; lane < team; ++lane) lane_stats_[lane] = RunStats{};

  const auto team_body = [&](int lane, int nlanes) {
    const int begin = block_begin(n, nlanes, lane);
    const int end = block_begin(n, nlanes, lane + 1);
    RunStats& stats = lane_stats_[lane];
    int finished = 0;  // only this lane advances its nodes
    try {
      while (finished < end - begin) {
        if (abort.load(std::memory_order_relaxed)) return;
        bool progressed = false;
        for (int node = begin; node < end; ++node) {
          NodeState& s = state_[static_cast<std::size_t>(node)];
          // Only this lane advances the node, so a relaxed read of its epoch
          // is exact.
          const int e = s.epoch.load(std::memory_order_relaxed);
          if (e >= passes) continue;
          // Ready when every neighbor has completed pass e-1 (epoch >= e).
          // The acquire pairs with the neighbor's release publish below and
          // makes its pass-(e-1) mailbox writes visible.
          bool ready = true;
          for (const int m : adj_[static_cast<std::size_t>(node)]) {
            if (m == node) continue;
            if (state_[static_cast<std::size_t>(m)].epoch.load(
                    std::memory_order_acquire) < e) {
              ready = false;
              break;
            }
          }
          // The last epoch also waits for every node to finish the one
          // before; the acquire pairs with the release increments below.
          if (ready && e > 0 && e == passes - 1)
            ready = joined.load(std::memory_order_acquire) == n;
          if (!ready) continue;
          body(node, e, lane);
          s.epoch.store(e + 1, std::memory_order_release);
          if (e + 2 == passes) joined.fetch_add(1, std::memory_order_release);
          if (e + 1 >= passes) ++finished;
          progressed = true;
        }
        if (!progressed) {
          // Every unfinished node of this block is blocked on another lane.
          // The globally lowest-epoch unfinished node is always ready (its
          // neighbors are at its epoch or finished, and the join waits only
          // for nodes below the last epoch), so some lane can run;
          // yield the core to it (essential on oversubscribed machines) and
          // count the stall.
          ++stats.stall_spins;
          const Stopwatch stall_clock;
          std::this_thread::yield();
          const double stalled = stall_clock.seconds();
          stats.stall_seconds += stalled;
          telemetry::profiler_add(telemetry::LaneCause::kEpochWait, stalled);
        }
      }
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      throw;  // run_team captures and rethrows on the caller
    }
  };
  // One captured reference: std::function stores it inline, so dispatching
  // the team allocates nothing.
  pool.run_team(team, [&team_body](int lane, int nlanes) {
    team_body(lane, nlanes);
  });

  for (int lane = 0; lane < team; ++lane) {
    total.stall_seconds += lane_stats_[lane].stall_seconds;
    total.stall_spins += lane_stats_[lane].stall_spins;
  }
  return total;
}

}  // namespace chambolle::parallel
