// solver.hpp — reference implementation of Algorithm 1.
//
// The solver is written around one primitive, iterate_region(), which runs
// Chambolle iterations on a rectangular window of a notional frame:
//
//   * the full-frame reference solver is iterate_region() on the whole frame;
//   * the tiled sliding-window solver (tiled_solver.hpp) calls it per tile.
//
// Because both paths execute the *same* per-element arithmetic — the fused
// SIMD kernel layer of kernels/kernel.hpp, whose backends are bit-exact
// with each other — the paper's claim that profitable tile elements equal
// the full-frame result is testable bit-exactly, not merely within a
// tolerance.  RegionGeometry now lives with the kernel layer and is
// re-exported here unchanged.
#pragma once

#include "chambolle/params.hpp"
#include "common/image.hpp"
#include "kernels/kernel.hpp"

namespace chambolle::telemetry {
class ConvergenceTrace;
}  // namespace chambolle::telemetry

namespace chambolle {

/// Result of a Chambolle solve for one flow component.
struct ChambolleResult {
  Matrix<float> u;  ///< primal output, u = v - theta * div p
  DualField p;      ///< final dual state (px, py)
};

/// Runs `iterations` Chambolle iterations in place on (px, py) over the given
/// window.  v, px, py must share the buffer shape.  `term_scratch` holds the
/// kernel layer's rolling two-row Term window and is resized as needed (pass
/// a reused buffer to avoid per-call allocation).
void iterate_region(Matrix<float>& px, Matrix<float>& py,
                    const Matrix<float>& v, const RegionGeometry& geom,
                    const ChambolleParams& params, int iterations,
                    Matrix<float>& term_scratch);

/// u = v - theta * div p (Algorithm 1, line 9) over a window.
[[nodiscard]] Matrix<float> recover_u(const Matrix<float>& v,
                                      const Matrix<float>& px,
                                      const Matrix<float>& py,
                                      const RegionGeometry& geom, float theta);

/// recover_u into a caller-provided output, resized as needed — the
/// allocation-free form the TV-L1 pyramid loop reuses every warp.
void recover_u_into(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, Matrix<float>& out);

/// Full-frame reference solve of one component.  When `initial` is non-null
/// the dual state starts from it instead of zero (used by warm-started TV-L1
/// outer iterations).  When `convergence` is non-null the solver steps one
/// iteration at a time and records (iteration, max|Δp|, ROF energy) into the
/// trace — same arithmetic and final state, but slower: per-iteration
/// residual/energy evaluation is the cost of asking for the curve.
[[nodiscard]] ChambolleResult solve(
    const Matrix<float>& v, const ChambolleParams& params,
    const DualField* initial = nullptr,
    telemetry::ConvergenceTrace* convergence = nullptr);

/// solve() into a caller-provided result whose buffers (u, p) are reused
/// when correctly shaped — the steady-state-allocation-free form for
/// per-frame service loops (TV-L1 warps, video).  Semantics are identical
/// to solve() otherwise.
void solve_into(const Matrix<float>& v, const ChambolleParams& params,
                ChambolleResult& out, const DualField* initial = nullptr,
                telemetry::ConvergenceTrace* convergence = nullptr);

/// Solves both components of a flow field (the hardware runs them on separate
/// PE arrays; here they are sequential but independent).  Optional initial
/// duals warm-start the per-component solves (temporal coherence across
/// frames, the same path video_runner's carry uses); optional final duals
/// receive the end state so the next frame can warm-start from it.
[[nodiscard]] FlowField solve_flow(const FlowField& v,
                                   const ChambolleParams& params,
                                   const DualField* initial_u1 = nullptr,
                                   const DualField* initial_u2 = nullptr,
                                   DualField* final_u1 = nullptr,
                                   DualField* final_u2 = nullptr);

}  // namespace chambolle
