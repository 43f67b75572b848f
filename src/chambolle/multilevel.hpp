// multilevel.hpp — the coarse-grid dual corrector of the resident engine.
//
// The resident-tile engine propagates information between tiles one halo
// strip per pass, so the pass count to flush GLOBAL low-frequency error
// grows with frame size (ROADMAP open item 3).  This module computes the
// fix: given a snapshot of the fine dual state (px, py), it restricts the
// state down a ladder of ceil-halved grids (grid/transfer.hpp), runs a
// small fused-kernel Chambolle solve on the coarsest level — where one
// iteration couples cells 2^levels fine cells apart — and prolongates the
// accumulated dual increment back up as a fine-level correction field
// (delta_px, delta_py).  The engine scatters that field into the pinned
// per-tile buffers at a rendezvous pass (resident_tiled.cpp); this class
// knows nothing about tiles or threads.
//
// The cycle is a dual-variable V-cycle in the FAS (full approximation
// scheme) form: the coarse problems are solved with DEFECT-CORRECTED data,
// not the raw restricted input.  The naive choice v_l = restrict(v_{l-1})
// makes the coarse fixed point the coarse DISCRETIZATION's solution, whose
// distance to the restricted fine solution (the discretization gap) the
// correction would inject into the fine state on every firing — a
// correction that never vanishes, so the engine could never converge past
// it (on noise-dominated frames it is pure poison).  Instead each level's
// data absorbs the current state's discretization defect:
//
//   vt_l = restrict(vt_{l-1})
//          + theta_l * (div_l(restrict p) - 2 * restrict(div_{l-1} p))
//
// which makes the coarse primal at the restricted state EXACTLY the
// restriction of the finer primal: u_l(R p) = R(u_{l-1}(p)).  When the fine
// state is converged, the coarse problem is (to first order in the
// operators' commutator) already stationary at R p and the correction
// collapses toward zero; far from convergence, the coarse solve moves the
// low-frequency error the way the raw scheme would.  The 2x factor is the
// grid-spacing scaling of the unit-spacing divergence (see the
// MultilevelOptions doc in params.hpp).
//
//   down:  p_l = restrict(p_{l-1}),  saved as p0_l; vt_l built as above
//          (l = 1..L)
//   base:  run kCoarseIterations fused Chambolle iterations on level L
//          with theta_L = theta / 2^L, tau_L = tau / 2^L (the consistent
//          rediscretization of the same continuum problem)
//   up:    delta_l = p_l - p0_l; p_{l-1} += kProlongScale *
//          prolong_bilinear(delta_l); project onto |p| <= 1; run
//          kSmoothIterations fused iterations (intermediate levels only)
//   out:   delta_0 = p_0_corrected - p_0_snapshot, exposed as
//          delta_px()/delta_py()
//
// A PROGRESS GATE decides whether a cycle runs at all (see
// MultilevelOptions::gate_factor): the coarse solve only helps while the
// fine error is smooth — the regime where the primal drifts steadily pass
// after pass while the dual residual is small.  When the dual churns
// without primal progress (high-frequency content, or a state already at
// the coarse model's accuracy floor) the gate declines and compute()
// returns after one cheap O(N) primal evaluation, without touching the
// ladders.
//
// A DUAL-OBJECTIVE SAFEGUARD then vets every cycle the gate admits: the
// candidate correction is applied only if it strictly undercuts the dual
// objective D(p) = ||v - theta div p||^2 = ||u(p)||^2 of the state the
// PREVIOUS rendezvous exited with.  D is the fine iteration's own descent
// function (its minimizer over the unit ball is the fixed point), so the
// rule makes the exit-state sequence D(exit_0) > D(exit_1) > ... strictly
// decreasing — a Lyapunov invariant of the composed iteration that
// structurally rules out correction/fine-pass limit cycles.  Even with
// defect-corrected data the coarse fixed point sits a commutator-sized gap
// from the fine one; once the fine state is more accurate than that gap, a
// cycle would drag it back toward the coarse solution.  The gate alone
// cannot see this — the tug of war between corrections and fine passes
// keeps the measured drift large, so it keeps firing — but the invariant
// can: a past-the-floor correction would need D to return to a prior value
// and is declined.  (The comparison is against the previous EXIT state,
// not the instantaneous one, because the prolongated increment carries
// transient roughness that can raise D — and the primal energy — even when
// the period as a whole nets real progress; instantaneous-descent tests
// reject productive tail corrections wholesale.)  On acceptance the drift
// baseline becomes the POST-correction primal, so the next gate
// measurement sees fine-pass progress only, never the correction's jump.
//
// Everything here is single-threaded and allocation-free after setup(), so
// the corrector's output is a pure function of the snapshot — the
// schedule-independence ("same bits across lane counts") of the multilevel
// engine rests on that.
#pragma once

#include <vector>

#include "chambolle/params.hpp"
#include "common/image.hpp"

namespace chambolle {

/// Projects a dual field onto the pointwise unit ball: where the magnitude
/// sqrt(px^2 + py^2) exceeds 1, both components are divided by it.  The
/// Chambolle update keeps |p| <= 1 invariantly; after adding a prolongated
/// increment the projection restores feasibility.
void project_unit_ball(Matrix<float>& px, Matrix<float>& py);

class CoarseCorrector {
 public:
  CoarseCorrector() = default;

  /// Allocates the per-level ladders for a fine frame shaped like `v` and
  /// keeps a copy of v (the defect-corrected coarse data is rebuilt from it
  /// each compute(); re-setup when v changes).  The realized level count is
  /// resolve_levels(); 0 (frame too small or options disabled) leaves the
  /// corrector inactive.
  void setup(const Matrix<float>& v, const ChambolleParams& params,
             const MultilevelOptions& options);

  /// True when setup() realized at least one coarse level.
  [[nodiscard]] bool active() const { return levels_ > 0; }
  [[nodiscard]] int levels() const { return levels_; }

  struct Result {
    /// True when the progress gate admitted the V-cycle AND the
    /// dual-objective safeguard accepted its output; delta_px()/delta_py()
    /// are only meaningful then.  False on the baseline (first) call and
    /// whenever either check declined.
    bool applied = false;
    /// True when the V-cycle ran but its candidate failed to undercut the
    /// previous rendezvous exit state's dual objective and was discarded
    /// (applied is false then).  Distinguishes "gate said don't bother"
    /// from "cycle ran and was vetoed".
    bool safeguard_declined = false;
    /// max |delta p| over both components of the fine-level correction —
    /// the tiles.coarse_correction_norm gauge, and an upper bound on any
    /// per-tile un-retirement test.  0 when !applied.
    float max_delta = 0.f;
    /// Fine primal drift per pass since the previous call — the gate's
    /// left-hand side (0 on the baseline call).
    float progress = 0.f;
  };

  /// Gates and (when admitted) runs one V-cycle from a fine dual snapshot;
  /// the fine correction is left in delta_px()/delta_py().  `residual` is
  /// the caller's fine dual residual (max per-iteration |dp|; the resident
  /// engine passes the max over its tiles' last pass) — the gate's
  /// right-hand side, see MultilevelOptions::gate_factor.  The first call
  /// only records the primal baseline and never applies.  Deterministic:
  /// the output depends only on (px, py, residual), the call history, and
  /// the setup() inputs.  Requires active().
  Result compute(const Matrix<float>& px, const Matrix<float>& py,
                 float residual);

  /// Fine-level dual correction of the last compute() (same shape as v).
  [[nodiscard]] const Matrix<float>& delta_px() const { return dpx_; }
  [[nodiscard]] const Matrix<float>& delta_py() const { return dpy_; }

  /// The level count setup() will realize for a rows x cols frame: the
  /// explicit options.levels, or (levels == 0) the auto rule — a single
  /// coarse level; one halving already doubles the per-iteration coupling
  /// radius at a quarter of the cost, and with the default iteration
  /// budgets a two-level cycle measurably out-corrects deeper ladders,
  /// whose under-solved coarsest level feeds safeguard rejections instead
  /// of progress — both clamped so the coarsest extent
  /// stays >= 4.  Returns 0 (correction off) when the options are disabled
  /// or the frame cannot coarsen even once.
  [[nodiscard]] static int resolve_levels(int rows, int cols,
                                          const MultilevelOptions& options);

 private:
  /// Fused Chambolle iterations on one coarse level (1-based), with
  /// theta/tau halved per level.
  void solve_level(int level, int iterations);

  ChambolleParams params_;
  MultilevelOptions options_;
  int levels_ = 0;

  Matrix<float> fv_;  ///< copy of the fine input field (defect-data root)

  // Progress-gate state: the fine primal recovered from the previous
  // compute() snapshot, and whether one has been recorded yet.
  Matrix<float> u_, prev_u_;
  bool has_baseline_ = false;
  // Safeguard state: the dual objective sum u^2 of the state the previous
  // compute() exited with (post-correction when one applied).
  double d_bar_ = 0.0;

  // Ladders indexed by level 1..levels_ at [l - 1] (level 0 state lives in
  // the caller's tile buffers; only its correction delta is materialized).
  std::vector<Matrix<float>> v_;    ///< defect-corrected data per level
  std::vector<Matrix<float>> px_;   ///< working dual state per level
  std::vector<Matrix<float>> py_;
  std::vector<Matrix<float>> p0x_;  ///< pre-cycle snapshots per level
  std::vector<Matrix<float>> p0y_;

  // Defect-correction scratch: div_[l] holds div of the level-l dual state
  // (l = 0 is the fine snapshot); rdiv_[l - 1] its restriction to level l.
  std::vector<Matrix<float>> div_;
  std::vector<Matrix<float>> rdiv_;

  Matrix<float> dpx_, dpy_;    ///< fine-level output correction
  Matrix<float> lift_;         ///< prolongation scratch
  Matrix<float> term_;         ///< fused-kernel rolling Term scratch
};

}  // namespace chambolle
