// params.hpp — parameters of the Chambolle fixed-point iteration.
//
// theta and tau are the "predefined values that determine the precision"
// (Section II-A).  Chambolle's convergence proof requires tau/theta <= 1/4
// for this discretization; the defaults sit exactly on that bound.
#pragma once

#include <cmath>
#include <stdexcept>

namespace chambolle {

struct ChambolleParams {
  /// Quadratic coupling weight of the ROF sub-problem (u = v - theta*div p).
  float theta = 0.25f;
  /// Dual ascent step.  Stability requires tau/theta <= 1/4.
  float tau = 0.0625f;
  /// Number of fixed-point iterations (the paper evaluates 50/100/200).
  int iterations = 100;

  /// Throws std::invalid_argument when the parameters violate the stability
  /// bound or are non-positive.
  void validate() const {
    // The explicit isfinite checks matter: every comparison with NaN is
    // false, so a NaN theta/tau would sail through the sign and ratio tests
    // below and poison the solve (found by the structured fuzz harness).
    if (!std::isfinite(theta) || !std::isfinite(tau))
      throw std::invalid_argument("ChambolleParams: non-finite theta/tau");
    if (theta <= 0.f) throw std::invalid_argument("ChambolleParams: theta <= 0");
    if (tau <= 0.f) throw std::invalid_argument("ChambolleParams: tau <= 0");
    if (iterations < 0)
      throw std::invalid_argument("ChambolleParams: negative iterations");
    if (tau / theta > 0.25f + 1e-6f)
      throw std::invalid_argument(
          "ChambolleParams: tau/theta > 1/4 breaks convergence");
    if (tau / theta <= 0.f)
      throw std::invalid_argument(
          "ChambolleParams: tau/theta underflows to zero (no-op update)");
  }

  /// The combined step tau/theta that appears in Algorithm 1 lines 7-8.
  [[nodiscard]] float step() const { return tau / theta; }
};

/// Options of the multi-level coarse-grid correction the resident-tile
/// engine composes with its halo-exchange passes (ResidentRunPolicy): every
/// `period` fine passes the current dual state is restricted down `levels`
/// grids, a small Chambolle solve runs on the coarsest level, and the
/// prolongated dual correction is scattered back into the tile buffers.
/// The point (Gilliocq-Hirtz & Belhachmi's multi-level domain decomposition;
/// Hilb & Langer's decomposition framework): low-frequency error otherwise
/// crosses the frame one halo strip per pass, so passes-to-tolerance grows
/// with frame size — the coarse solve moves it globally in one step.
///
/// Grid-consistency note: levels are ceil-halved (grid/transfer.hpp) and the
/// level-l solve runs with theta and tau both divided by 2^l.  With the
/// unit-spacing discretization this is the consistent rediscretization of
/// the same continuum ROF problem (theta_d = theta_cont / h), and it makes
/// a prolongated dual increment carry the right primal magnitude with
/// kProlongScale = 1 (div of a prolongated field is half as steep per cell,
/// cancelled by the 2x theta ratio between levels).
struct MultilevelOptions {
  /// Chambolle iterations of the coarsest-level solve.
  static constexpr int kCoarseIterations = 64;
  /// Post-correction smoothing iterations at each intermediate level on the
  /// way back up (the V-cycle's upward leg).
  static constexpr int kSmoothIterations = 8;
  /// Scale applied to the prolongated dual increment before the unit-ball
  /// projection: the grid-consistent choice (see above).
  static constexpr float kProlongScale = 1.0f;

  /// Fine halo-exchange passes between corrections; <= 0 disables the
  /// correction entirely (the run is then the plain schedule, bit for bit).
  int period = 0;
  /// Coarse levels below the fine grid (factor 2^levels per dimension).
  /// 0 = auto: a single coarse level — with the default iteration budgets a
  /// two-level cycle out-corrects deeper ladders, whose under-solved base
  /// mostly feeds safeguard rejections; levels are always clamped so
  /// the coarsest extent stays >= 4 cells (frames too small to coarsen run
  /// without correction).
  int levels = 0;
  /// A RETIRED tile is un-retired (resumes passes) when the correction
  /// magnitude inside its profitable region exceeds
  /// unretire_factor * ResidentRunPolicy::tolerance; below that the
  /// correction is applied to its frozen state without resurrecting it.
  float unretire_factor = 1.0f;
  /// Progress gate: a correction fires only when the fine primal's drift
  /// per pass since the previous rendezvous exceeds gate_factor times the
  /// fine dual residual.  A large drift over a small residual is the
  /// signature of smooth low-frequency error draining slowly — exactly what
  /// the coarse grid accelerates; the opposite (churning dual, stationary
  /// primal) means the error is high-frequency, where a coarse solve can
  /// only inject its discretization gap.  0 fires whenever the primal moved
  /// at all; the first rendezvous never fires — it records the drift
  /// baseline.  Every admitted cycle is additionally vetted by the
  /// dual-objective safeguard (CoarseCorrector doc): its output is
  /// discarded unless Chambolle's dual objective ||v - theta div p||^2
  /// strictly undercuts the previous rendezvous exit state's, so past the
  /// coarse model's accuracy floor corrections stop regardless of the gate
  /// and the fine iteration converges past the gap.
  float gate_factor = 1.0f;

  [[nodiscard]] bool enabled() const { return period > 0; }

  /// Throws std::invalid_argument on out-of-range values (period <= 0 is
  /// valid: it means "disabled", not an error).
  void validate() const {
    if (levels < 0)
      throw std::invalid_argument("MultilevelOptions: levels < 0");
    if (!std::isfinite(unretire_factor) || unretire_factor < 0.f)
      throw std::invalid_argument(
          "MultilevelOptions: unretire_factor must be finite and >= 0");
    if (!std::isfinite(gate_factor) || gate_factor < 0.f)
      throw std::invalid_argument(
          "MultilevelOptions: gate_factor must be finite and >= 0");
  }
};

}  // namespace chambolle
