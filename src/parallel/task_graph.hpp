// task_graph.hpp — point-to-point epoch scheduling over a neighbor graph.
//
// The bulk-synchronous engines in this repo separate passes with a GLOBAL
// rendezvous: no tile starts pass n+1 until every tile finished pass n, so
// one slow tile stalls the whole fleet.  The dependency structure of a
// sliding-window sweep is far weaker than that — a tile's pass n+1 reads
// only the pass-n halos of the tiles next to it; the resident engine's
// full-width strips read only the strips directly above and below (cf. the
// interface-data exchange of domain-decomposition TV solvers, Hilb &
// Langer 2022).  The graph itself takes any adjacency.
//
// EpochGraph schedules exactly that relaxation.  Nodes carry an epoch
// counter (= passes completed); a node may run pass e as soon as all its
// neighbors have completed pass e-1.  Nodes are PINNED to lanes for the
// whole run — each lane sweeps its own contiguous block of nodes, running
// every ready one — so a node's working set (the resident tile buffer) stays
// with one worker from first pass to last.  Two neighbors can never drift
// more than one epoch apart, which is what makes the engine's
// parity-double-buffered mailboxes safe (see resident_tiled.cpp).
//
// Synchronization is point-to-point: the body's writes are published by a
// release store of the node's epoch, and a reader lane acquires a neighbor's
// epoch before touching its mailboxes.  The one exception is the LAST
// epoch, which is a join: a node runs it only after every node, not just
// its neighbors, has finished the epoch before.  The resident engine
// writes its outputs there, so no output is touched until every burst
// has succeeded, and no node still reads an input an output may alias.
// Lanes that find none of their nodes ready spin briefly, then yield
// (stall time is measured and reported, and surfaces as
// `tiles.stall_micros` telemetry); the join wait counts as such a stall.
//
// An exception thrown by the body aborts the run: every lane observes the
// abort flag in its wait loops, the join included, drains, and the first
// exception is rethrown on the caller (via the pool's normal propagation).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace chambolle::parallel {

class EpochGraph {
 public:
  /// body(node, epoch, lane): run pass `epoch` (0-based) of `node` on
  /// `lane`.
  using NodeFn = std::function<void(int, int, int)>;

  /// `neighbors[n]` lists the nodes whose previous epoch must be complete
  /// before `n` may advance (the relation should be symmetric; a one-sided
  /// edge still only delays, never corrupts).  Self-edges are ignored.
  explicit EpochGraph(std::vector<std::vector<int>> neighbors);

  /// Aggregate outcome of one run() — telemetry accounting.
  struct RunStats {
    double stall_seconds = 0.0;      ///< summed over lanes
    std::uint64_t stall_spins = 0;   ///< ready-scan sweeps that found no work
  };

  /// Runs every node for `passes` epochs on `lanes` lanes of `pool`,
  /// subject to the neighbor constraint, and runs a node's last epoch only
  /// once every node has finished the one before.  Nodes are PINNED to
  /// lanes in contiguous blocks (owner()): each lane sweeps only its own
  /// block, so a node's working set stays with one worker from first pass
  /// to last.  The release/acquire epoch protocol keeps the neighbor skew
  /// bound (<= 1 pass), so the caller's parity-double-buffered mailboxes
  /// stay safe.
  /// Returns stall statistics; rethrows the first body exception.
  RunStats run(int passes, int lanes, ThreadPool& pool, const NodeFn& body);

  [[nodiscard]] int nodes() const { return static_cast<int>(adj_.size()); }

  /// The lane a node is pinned to when running on `lanes` lanes: contiguous
  /// blocks, so adjacent nodes usually share a lane and cross-lane waits
  /// happen only at block seams.
  [[nodiscard]] int owner(int node, int lanes) const;

 private:
  struct alignas(64) NodeState {
    std::atomic<int> epoch{0};  ///< passes completed; release on publish
  };

  std::vector<std::vector<int>> adj_;
  std::vector<NodeState> state_;
  /// Per-lane run statistics, reused across runs; rebuilt only when a run's
  /// team outgrows it.
  PerLane<RunStats> lane_stats_{1};
};

}  // namespace chambolle::parallel
