// task_graph.hpp — point-to-point epoch scheduling over a neighbor graph.
//
// The bulk-synchronous engines in this repo separate passes with a GLOBAL
// rendezvous: no tile starts pass n+1 until every tile finished pass n, so
// one slow tile stalls the whole fleet.  The dependency structure of a
// sliding-window sweep is far weaker than that — a tile's pass n+1 reads
// only the pass-n halos of its <= 8 grid neighbors (cf. the interface-data
// exchange of domain-decomposition TV solvers, Hilb & Langer 2022).
//
// EpochGraph schedules exactly that relaxation.  Nodes carry an epoch
// counter (= passes completed); a node may run pass e as soon as all its
// neighbors have completed pass e-1.  Nodes are PINNED to lanes for the
// whole run — each lane sweeps its own contiguous block of nodes, running
// every ready one — so a node's working set (the resident tile buffer) stays
// with one worker from first pass to last (runs whose nodes retire early
// relax this into work stealing, see run()).  Two neighbors can never drift
// more than one epoch apart, which is what makes the engine's
// parity-double-buffered mailboxes safe (see resident_tiled.cpp).
//
// Synchronization is point-to-point: the body's writes are published by a
// release store of the node's epoch, and a reader lane acquires a neighbor's
// epoch before touching its mailboxes.  There is no barrier anywhere; lanes
// that find none of their nodes ready spin briefly, then yield (stall time
// is measured and reported, and surfaces as `tiles.stall_micros` telemetry).
//
// An exception thrown by the body aborts the run: every lane observes the
// abort flag in its wait loops, drains, and the first exception is rethrown
// on the caller (via the pool's normal propagation).
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
  /// `lane`.  The return value decides the node's fate — `true` RETIRES the
  /// node after this pass (its epoch jumps to the terminal value, so
  /// neighbors never wait on it again and no lane runs it any more),
  /// `false` advances it normally.
  using NodeFn = std::function<bool(int, int, int)>;

  /// `neighbors[n]` lists the nodes whose previous epoch must be complete
  /// before `n` may advance (the relation should be symmetric; a one-sided
  /// edge still only delays, never corrupts).  Self-edges are ignored.
  explicit EpochGraph(std::vector<std::vector<int>> neighbors);

  /// Aggregate outcome of one run() — telemetry accounting.
  struct RunStats {
    double stall_seconds = 0.0;      ///< summed over lanes
    std::uint64_t stall_spins = 0;   ///< ready-scan sweeps that found no work
    std::uint64_t executed_passes = 0;  ///< body invocations
    std::uint64_t stolen_passes = 0;    ///< run off the preferred lane
    std::uint64_t retired_nodes = 0;    ///< bodies that returned true
    std::uint64_t rendezvous_fired = 0; ///< rendezvous bodies executed
  };

  /// Handle passed to a rendezvous body; lets it un-retire nodes whose
  /// state the rendezvous work invalidated.  Only meaningful inside the
  /// body — the handle must not escape it.
  class RendezvousControl {
   public:
    /// Pass index of this firing's boundary B = (firing + 1) * period: every
    /// live node has completed exactly B passes, every other node is
    /// retired.  The node pass that runs next after this body is pass B.
    [[nodiscard]] int boundary() const { return boundary_; }
    /// Un-retires a retired node: its epoch rewinds to boundary() and it
    /// resumes passes (up to the run's pass cap) once the body returns.
    /// No-op on a node that is not retired.  During a firing no node can be
    /// at the cap without being retired (the pass gate orders the last fine
    /// pass after the last firing), so this never extends a capped node's
    /// budget.
    void resurrect(int node);

   private:
    friend class EpochGraph;
    RendezvousControl(EpochGraph& graph, int boundary, int passes,
                      std::atomic<int>& finished)
        : graph_(graph),
          boundary_(boundary),
          passes_(passes),
          finished_(finished) {}
    EpochGraph& graph_;
    int boundary_;
    int passes_;
    std::atomic<int>& finished_;
    bool resurrected_ = false;
  };

  /// rendezvous(firing, ctl): run firing `firing` (0-based) of the
  /// rendezvous node at pass boundary ctl.boundary().
  using RendezvousFn = std::function<void(int, RendezvousControl&)>;

  /// Runs every node until its body returns true (retirement) or it
  /// completes `passes` epochs — the hard cap that guarantees termination —
  /// on `lanes` lanes of `pool`, subject to the neighbor constraint.
  /// Returns stall and work statistics; rethrows the first body exception.
  ///
  /// Scheduling.  By default nodes are PINNED to lanes in contiguous blocks
  /// (owner()): each lane sweeps only its own block and no claims are made,
  /// so a node's working set stays with one worker from first pass to
  /// last.  With `steal` set — the caller's bodies may retire nodes early —
  /// or with a rendezvous, the pinning relaxes into an affinity-preferring
  /// work queue: a lane scans its own block first and, when none of those
  /// nodes is runnable (all retired, capped, or blocked), steals any ready
  /// node in the graph, so capacity freed by early-retiring nodes is
  /// redistributed to the stragglers instead of idling.  Per-(node, epoch)
  /// execution is then serialized by a CAS claim.  Either way the
  /// release/acquire epoch protocol keeps the neighbor skew bound (<= 1
  /// pass), so the caller's parity-double-buffered mailboxes remain safe.
  /// NOTE: a retiring body must NOT write mailbox slots its live neighbors
  /// may still be reading — a neighbor running the SAME pass only observed
  /// this node's epoch >= that pass, which holds during the retiring
  /// execution too, so no release/acquire pair orders such writes.  Publish
  /// a marker whose consumers re-route their reads instead, and defer any
  /// slot rewriting until the run has quiesced (see resident_tiled.cpp's
  /// frozen-pass protocol).
  ///
  /// Rendezvous.  A non-null `rendezvous` with `period` > 0 adds a periodic
  /// EXCLUSIVE rendezvous node — the scheduling primitive of the resident
  /// engine's coarse-grid correction (resident_tiled.cpp).  Firing m sits at
  /// pass boundary B = (m + 1) * period; there are (passes - 1) / period
  /// firings (a boundary at or past the cap would have no subsequent pass
  /// to feed).  Semantics:
  ///
  ///  * Firing m becomes ready when EVERY node's epoch is >= B — live nodes
  ///    parked at exactly B, the rest retired — and is claimed by one lane
  ///    via CAS.  While the body runs, no node body can run anywhere: pass
  ///    B is gated on the firing's completion, passes < B are already done.
  ///    The body therefore owns the whole graph state (an exclusive window)
  ///    WITHOUT a blocking barrier: lanes park only when truly out of work,
  ///    and the last lane to finish a pre-boundary pass fires the
  ///    rendezvous itself.
  ///  * A node may run pass e only after rv_epoch >= e / period (acquire,
  ///    pairing with the firing's release publish) — this is what makes the
  ///    body's writes visible to every subsequent node pass, and what bounds
  ///    a node's lead over the rendezvous to < period passes.
  ///  * The body may resurrect retired nodes (RendezvousControl); the run
  ///    ends when all firings are spent (or every node is finished and the
  ///    last firing chose not to resurrect anyone) AND every node is
  ///    finished.
  ///
  /// With no realizable firing (null rendezvous, period <= 0, or period >=
  /// passes) the run is the plain schedule above, bit for bit.
  RunStats run(int passes, int lanes, ThreadPool& pool, const NodeFn& body,
               bool steal = false, int period = 0,
               const RendezvousFn& rendezvous = nullptr);

  [[nodiscard]] int nodes() const { return static_cast<int>(adj_.size()); }

  /// The lane a node is pinned to when running on `lanes` lanes: contiguous
  /// blocks, so grid-adjacent nodes usually share a lane and cross-lane
  /// waits happen only at block seams.  In a stealing run this is the
  /// node's PREFERRED lane; work stealing may run it elsewhere.
  [[nodiscard]] int owner(int node, int lanes) const;

 private:
  struct alignas(64) NodeState {
    std::atomic<int> epoch{0};  ///< passes completed; release on publish
    std::atomic<int> claim{0};  ///< epochs claimed (stealing work queue)
  };

  std::vector<std::vector<int>> adj_;
  std::vector<NodeState> state_;
  /// Per-lane run statistics, reused across runs; rebuilt only when a run's
  /// team outgrows it.
  PerLane<RunStats> lane_stats_{1};
};

}  // namespace chambolle::parallel
