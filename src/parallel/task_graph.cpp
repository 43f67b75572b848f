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

void EpochGraph::RendezvousControl::resurrect(int node) {
  if (node < 0 || node >= graph_.nodes())
    throw std::invalid_argument("RendezvousControl::resurrect: node out of range");
  NodeState& s = graph_.state_[static_cast<std::size_t>(node)];
  // The body runs in an exclusive window, so this relaxed read is exact:
  // nothing else mutates node state while a firing is live.
  if (s.epoch.load(std::memory_order_relaxed) != passes_) return;
  finished_.fetch_sub(1, std::memory_order_relaxed);
  // claim first, then the release epoch store: a lane that acquires
  // epoch == boundary sees the matching claim (and, transitively, every
  // write the body made before calling resurrect).
  s.claim.store(boundary_, std::memory_order_relaxed);
  s.epoch.store(boundary_, std::memory_order_release);
  resurrected_ = true;
}

EpochGraph::RunStats EpochGraph::run(int passes, int lanes, ThreadPool& pool,
                                     const NodeFn& body, bool steal,
                                     int period,
                                     const RendezvousFn& rendezvous) {
  if (passes < 0) throw std::invalid_argument("EpochGraph::run: passes < 0");
  const int n = nodes();
  RunStats total;
  if (n == 0 || passes == 0) return total;
  // Firings sit at boundaries period, 2*period, ... strictly below the cap
  // (a firing at the cap would have no subsequent pass to feed).
  const int num_firings =
      rendezvous != nullptr && period > 0 ? (passes - 1) / period : 0;
  // Pinned lanes sweep only their own block and claim nothing; the work
  // queue (stealing + CAS claims) is paid only by runs that need it.
  const bool shared = steal || num_firings > 0;
  for (NodeState& s : state_) {
    s.epoch.store(0, std::memory_order_relaxed);
    s.claim.store(0, std::memory_order_relaxed);
  }

  const int team = std::max(1, std::min(lanes, n));
  std::atomic<bool> abort{false};
  // Nodes whose epoch reached the terminal value (retired or capped); a
  // shared run's termination condition, so a retired node can never be
  // waited on — the no-deadlock guarantee the adaptive engine tests pin.
  std::atomic<int> finished{0};
  // Rendezvous node state: rv_epoch = firings completed (released by the
  // firing lane, acquired by the per-pass gate), rv_claim = firings claimed
  // (CAS work-queue, same idiom as the node claims), rv_done = no further
  // firing will run.
  std::atomic<int> rv_epoch{0};
  std::atomic<int> rv_claim{0};
  std::atomic<bool> rv_done{num_firings == 0};
  if (lane_stats_.lanes() < team) lane_stats_ = PerLane<RunStats>(team);
  for (int lane = 0; lane < team; ++lane) lane_stats_[lane] = RunStats{};

  const auto team_body = [&](int lane, int nlanes) {
    const int begin = block_begin(n, nlanes, lane);
    const int end = block_begin(n, nlanes, lane + 1);
    // A pinned lane scans its own block; a shared one scans the whole graph
    // starting at its block (wrapping), so a node keeps its preferred lane
    // while that lane has runnable work and migrates only when capacity
    // frees up.
    const int scan = shared ? n : end - begin;
    RunStats& stats = lane_stats_[lane];
    int own_finished = 0;  // pinned: only this lane finishes its nodes

    const auto all_done = [&] {
      // rv_done first, then finished: a final firing that resurrects
      // decrements `finished` before its release store of rv_done, so the
      // acquire here cannot observe rv_done without the decrement.
      if (!shared) return own_finished == end - begin;
      return rv_done.load(std::memory_order_acquire) &&
             finished.load(std::memory_order_relaxed) >= n;
    };

    // Attempts to run the next rendezvous firing; true when this lane ran
    // it.  Called only from the no-progress branch — while any node pass is
    // runnable the rendezvous cannot be ready anyway.
    const auto try_rendezvous = [&]() -> bool {
      if (rv_done.load(std::memory_order_relaxed)) return false;
      const int m = rv_epoch.load(std::memory_order_relaxed);
      if (m >= num_firings) return false;
      if (rv_claim.load(std::memory_order_relaxed) != m) return false;
      const int boundary = (m + 1) * period;
      // Ready when every node completed pass boundary-1 (live nodes park at
      // exactly `boundary`: their next pass is gated on this firing) or is
      // finished (terminal epoch >= boundary).  The acquire pairs with each
      // node's release publish, making every pre-boundary write visible to
      // the body.
      for (int node = 0; node < n; ++node)
        if (state_[static_cast<std::size_t>(node)].epoch.load(
                std::memory_order_acquire) < boundary)
          return false;
      int expected = m;
      if (!rv_claim.compare_exchange_strong(expected, m + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return false;
      RendezvousControl ctl(*this, boundary, passes, finished);
      rendezvous(m, ctl);
      ++stats.rendezvous_fired;
      // In the exclusive window `finished` only moves by our own resurrects,
      // so the relaxed read is exact.  Stop firing early when the fleet is
      // fully finished and this firing chose to leave it that way — later
      // firings would correct a state no pass will ever read back.
      const bool fleet_done =
          !ctl.resurrected_ && finished.load(std::memory_order_relaxed) >= n;
      if (m + 1 >= num_firings || fleet_done)
        rv_done.store(true, std::memory_order_release);
      // Release-publish the firing: the per-pass gate's acquire load pairs
      // with this store, so every write of the body (correction buffers,
      // resurrections) happens-before any post-boundary node pass.
      rv_epoch.store(m + 1, std::memory_order_release);
      return true;
    };

    try {
      while (!all_done()) {
        if (abort.load(std::memory_order_relaxed)) return;
        bool progressed = false;
        // One acquire of the firing count per sweep: pairs with the firing
        // lane's release publish, so a pass admitted by the gate below sees
        // all of that firing's writes.  A stale (lower) value only delays.
        const int fired =
            num_firings > 0 ? rv_epoch.load(std::memory_order_acquire) : 0;
        for (int k = 0; k < scan; ++k) {
          const int node = begin + k < n ? begin + k : begin + k - n;
          NodeState& s = state_[static_cast<std::size_t>(node)];
          // Pinned, only this lane advances the node, so a relaxed read of
          // its epoch is exact.  Shared, the acquire pairs with the release
          // publish of the node's previous pass — possibly by another lane —
          // making the body's writes for epochs < e visible.
          const int e = s.epoch.load(shared ? std::memory_order_acquire
                                            : std::memory_order_relaxed);
          if (e >= passes) continue;
          // The rendezvous gate: pass e runs only after firing e/period
          // (i.e. every boundary <= e) has been published.
          if (num_firings > 0 && e / period > fired) continue;
          // Cheap pre-check: someone already claimed (is running) epoch e.
          if (shared && s.claim.load(std::memory_order_relaxed) != e) continue;
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
          if (!ready) continue;
          int expected = e;
          if (shared &&
              !s.claim.compare_exchange_strong(expected, e + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed))
            continue;  // another lane won the race for this pass
          const bool retire = body(node, e, lane);
          const int next = retire ? passes : e + 1;
          s.epoch.store(next, std::memory_order_release);
          ++stats.executed_passes;
          if (node < begin || node >= end) ++stats.stolen_passes;
          if (retire) ++stats.retired_nodes;
          if (next >= passes) {
            if (shared)
              finished.fetch_add(1, std::memory_order_relaxed);
            else
              ++own_finished;
          }
          progressed = true;
        }
        if (!progressed) {
          // No node pass was runnable — either the fleet is parked at a
          // boundary (then the rendezvous is ready: run it) or other lanes
          // hold the claims or block our nodes (then yield).  Liveness: the
          // globally lowest-epoch unfinished node is always ready (its
          // neighbors are at its epoch or terminal) unless gated, and a
          // gated lowest node implies every node is at or past the next
          // boundary, i.e. the rendezvous is ready.  So some lane can run;
          // yield the core to it (essential on oversubscribed machines) and
          // count the stall.
          if (try_rendezvous()) continue;
          if (all_done()) break;
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
    total.executed_passes += lane_stats_[lane].executed_passes;
    total.stolen_passes += lane_stats_[lane].stolen_passes;
    total.retired_nodes += lane_stats_[lane].retired_nodes;
    total.rendezvous_fired += lane_stats_[lane].rendezvous_fired;
  }
  return total;
}

}  // namespace chambolle::parallel
