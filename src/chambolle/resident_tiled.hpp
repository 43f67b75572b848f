// resident_tiled.hpp — the resident-tile sliding-window engine.
//
// The pass-based tiled solver (tiled_solver.hpp) is the paper's scheme with
// the hardware's weakest property dropped: its BRAM windows stay loaded
// between iterations, but the CPU realization reloads every tile buffer from
// the global frame and writes it back on EVERY merged pass, synchronized by
// a global barrier — two full frames of memory traffic per pass and a
// full-fleet stall at each merge boundary.
//
// This engine restores residency.  The frame is cut into full-width row
// strips (plan_tiling, tile.hpp), as the paper's PE ladder walks a window
// in row regions.  Each strip's (v, px, py) buffers are allocated once and
// PINNED to one worker lane; between passes, a strip trades only halo rows
// (as many as the merge depth) with the strips directly above and below
// it, and starts pass n+1 as soon as those two have published their pass-n
// rows (EpochGraph, parallel/task_graph.hpp) — no global barrier, no
// full-frame reload.  A solve is one team region, as in the paper, where
// (v, px, py) are loaded into BRAM once, iterated there and written out
// once: in its first epoch each strip loads its own v and dual rows, and in
// its last epoch, a join behind every strip's final pass, it refreshes its
// halo rows and recovers its profitable u (and writes its profitable
// duals).  Steady-state per-pass traffic drops from 2 frames to 4 halo
// rows per strip boundary.
//
// Every strip keeps at least merge-depth profitable rows, so each halo row
// is a profitable row of the adjacent strip: a strip publishes its first
// and its last `halo` profitable rows into two mailboxes, and every copy
// in and out of a buffer is one contiguous row range.  Mailboxes are
// double-buffered by pass parity: a strip publishing pass n writes slot
// n&1, a neighbor gathering for pass n+1 reads slot n&1.  The scheduler
// bounds the epoch skew between neighbors to one pass, so a slot is never
// overwritten before its reader consumed it; publication order (row
// writes, then a release store of the epoch, acquired before the gather)
// makes the exchange race-free, verified under TSan.
//
// Correctness is the same machine-checkable argument as the pass-based
// solver, by induction over passes: at every pass start a strip buffer
// holds the exact global state (profitable cells by the dependency-cone
// argument, halo rows by the gather of neighbors' exact profitable rows),
// and the per-element arithmetic is the shared fused kernel — so the
// result is BIT-EXACT equal to the sequential reference (tests memcmp it).
//
// One engine solves K same-shape FIELDS on one plan — the paper's paired
// PE arrays, one per flow component, advancing together.  Every graph node
// is a (field, strip) pair with its own buffers and mailboxes; the
// EpochGraph is K disjoint chains of strips, so one solve advances every
// field and a lane blocked on one field's neighbor runs another field's
// strip.  Fields never exchange data, so each field's bits equal a
// single-field solve; K = 1 is the ordinary single-field engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tile.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/image.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle {

/// Work and traffic accounting of an engine's solves (cumulative), used by
/// the E6 overhead bench and the acceptance tests.  Counts cover every
/// field of the engine; passes and element_iterations count kernel bursts
/// only, not the load and recovery epochs.
struct ResidentTiledStats {
  int passes = 0;
  std::size_t tiles = 0;  ///< graph nodes: tiles per field * fields
  /// Floats exchanged through mailboxes per pass (both dual components, all
  /// fields); the per-pass traffic of the engine, vs. the reload engine's
  /// ~4 * frame_elements per field (2 fields loaded + 2 stored).
  std::size_t halo_elements_per_pass = 0;
  /// Total mailbox bytes moved so far (published + gathered).
  std::uint64_t halo_bytes_exchanged = 0;
  /// Total element-iterations executed, including redundant halo work.
  std::size_t element_iterations = 0;
  /// Time lanes spent with no runnable tile (point-to-point waits).
  double stall_seconds = 0.0;
  std::uint64_t stall_spins = 0;
};

/// The engine object: buffers persist across solves, which is what lets a
/// reused engine (EngineCache, engine_cache.hpp) skip the allocation.  Every
/// solve overwrites every buffer cell, so a reused engine equals a fresh
/// one.  Use solve_resident() for the one-shot form.
class ResidentTiledEngine {
 public:
  /// The input fields of a K-field engine, one pointer per field.
  using Fields = std::span<const Matrix<float>* const>;
  /// Per-field dual states (warm starts), one pointer per field.
  using DualFields = std::span<const DualField* const>;

  /// Plans the tiling of `fields` same-shape rows x cols fields itself —
  /// plan_tiling() (tile.hpp): balanced full-width strips, about one per
  /// lane of the pool the options resolve to, one tile per field on small
  /// frames — with a halo of options.merge_iterations, and allocates the
  /// resident buffers; it loads nothing.  options.{tile_rows, tile_cols}
  /// configure solve_tiled only; every plan gives the same bits, so the
  /// shape is the engine's to choose.  Validates only the options the
  /// engine reads (TiledSolverOptions::validate_schedule): the unread
  /// window does not cap the merge depth.
  ResidentTiledEngine(int rows, int cols, int fields,
                      const ChambolleParams& params,
                      const TiledSolverOptions& options);
  ~ResidentTiledEngine();

  ResidentTiledEngine(const ResidentTiledEngine&) = delete;
  ResidentTiledEngine& operator=(const ResidentTiledEngine&) = delete;

  /// One solve of every field: params.iterations Chambolle iterations of
  /// field k from input *v[k], started from the duals *initial[k] (zeros
  /// when `initial` is empty), its primal written into *u[k] and — when
  /// `duals` is non-empty — its final duals into *duals[k].  The iterations
  /// run as ceil(iterations / merge_iterations) halo-exchange passes with
  /// the remainder last, so the result is bit-exact to the sequential
  /// reference for any plan and lane count, and each field's bits equal a
  /// single-field engine's.
  ///
  /// One EpochGraph team region of passes + 1 epochs (2 with no
  /// iterations): epoch 0 loads each node's windows, the last epoch — a
  /// join behind every node's final pass — recovers its profitable cells.
  /// Hence no output cell is written unless every burst succeeded, and
  /// outputs may alias inputs (the serving layer passes one session's
  /// duals as both `initial` and `duals`).  Every argument is validated
  /// first.  Outputs are resized only on a shape change, after node 0's
  /// last burst, so with them shaped a warm solve allocates nothing, and a
  /// throwing solve leaves every output of the frame's shape untouched.
  void solve(Fields v, DualFields initial, std::span<Matrix<float>* const> u,
             std::span<DualField* const> duals = {});
  /// solve() of a single-field engine; `initial` and `duals` may be null.
  void solve(const Matrix<float>& v, const DualField* initial,
             Matrix<float>& u, DualField* duals = nullptr);

  [[nodiscard]] const ResidentTiledStats& stats() const { return stats_; }
  [[nodiscard]] const TilingPlan& plan() const { return plan_; }
  [[nodiscard]] int fields() const { return fields_; }
  [[nodiscard]] int rows() const { return plan_.frame_rows; }
  [[nodiscard]] int cols() const { return plan_.frame_cols; }

 private:
  struct TileBuffers;
  struct Mailbox;
  /// The test-only seam (src/testing/resident_peer.hpp): builds engines on
  /// explicit tilings and reaches fault_hook_.
  friend struct ResidentTiledEngineTestPeer;

  /// The engine on an explicit `plan` of a rows x cols frame with halo
  /// options.merge_iterations; the public constructor passes the planner's.
  /// Throws std::invalid_argument unless is_strip_plan(plan) (tile.hpp).
  ResidentTiledEngine(int fields, const ChambolleParams& params,
                      const TiledSolverOptions& options, TilingPlan plan);

  /// The pool this engine's parallel regions run on: options.pool when the
  /// caller injected one (the serving fleet gives every engine its own
  /// lane-partitioned pool so concurrent sessions don't serialize on
  /// default_pool()'s region lock), default_pool() otherwise.
  [[nodiscard]] parallel::ThreadPool& pool() const;
  [[nodiscard]] int lanes() const;
  [[nodiscard]] int tiles_per_field() const {
    return static_cast<int>(plan_.tiles.size());
  }
  [[nodiscard]] int nodes() const { return fields_ * tiles_per_field(); }
  /// Graph nodes are field-major, node = field * tiles_per_field() + strip,
  /// so a lane's contiguous block holds whole stretches of one field
  /// (EXPERIMENTS.md E15), and a strip's neighbors are nodes node +- 1.
  [[nodiscard]] int field_of(int node) const {
    return node / tiles_per_field();
  }
  [[nodiscard]] int tile_of(int node) const {
    return node % tiles_per_field();
  }
  /// Cells in `halo` full-width rows: one dual component of a payload.
  [[nodiscard]] std::size_t halo_elements() const {
    return static_cast<std::size_t>(plan_.halo) * plan_.frame_cols;
  }
  /// Throws std::invalid_argument unless the arguments of solve() match
  /// this engine's field count and frame shape and no two fields share an
  /// output.
  void check_arguments(Fields v, DualFields initial,
                       std::span<Matrix<float>* const> u,
                       std::span<DualField* const> duals) const;
  /// Epoch 0 of a solve on node: copies its v rows and loads its dual rows
  /// from `initial` (zeros when it is null), halo rows included.
  void load_node(int node, const Matrix<float>& v, const DualField* initial);
  /// The last epoch of a solve on node: refreshes its halo rows from its
  /// neighbors' pass-(passes-1) rows (after at least one pass), writes its
  /// profitable duals into `p` (when non-null) and recovers its profitable
  /// primal into `u`.
  void recover_node(int node, int passes, DualField* p, Matrix<float>& u);
  /// Refreshes node's halo rows from its neighbors' pass-(g-1) rows.
  void gather_halos(int node, int g);
  /// Publishes node's pass-g edge rows into the parity slot g & 1.
  void publish_strips(int node, int g);
  /// Pass g of a solve on node: the gather (after the first pass), a burst
  /// of `burst` fused iterations on node's buffers, timed for the profiler,
  /// and the publish of its edge rows.
  void node_pass(int node, int g, int burst, Matrix<float>& scratch);
  /// Books one solve of `passes` passes and `iterations` iterations: the
  /// engine stats and the tiles.* telemetry.
  void account(int passes, int iterations,
               const parallel::EpochGraph::RunStats& rs);

  ChambolleParams params_;
  TiledSolverOptions options_;
  TilingPlan plan_;
  int fields_ = 0;
  std::vector<TileBuffers> tiles_;  ///< per node, mailboxes included
  std::unique_ptr<parallel::EpochGraph> graph_;
  /// Per-lane kernel Term-row scratch, reused across solves; rebuilt only
  /// when lanes() grows past it.
  parallel::PerLane<Matrix<float>> scratch_{1};
  ResidentTiledStats stats_;
  /// Test-only fault injection: when set, called as (field, tile) before
  /// every kernel burst; a throw aborts the solve like any body exception.
  std::function<void(int, int)> fault_hook_;
};

/// One-shot resident solve of one component; the drop-in counterpart of
/// solve_tiled() with the same options, bit-exact equal to the sequential
/// reference.
[[nodiscard]] ChambolleResult solve_resident(
    const Matrix<float>& v, const ChambolleParams& params,
    const TiledSolverOptions& options, ResidentTiledStats* stats = nullptr,
    const DualField* initial = nullptr);

}  // namespace chambolle
