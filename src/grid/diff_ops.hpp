// diff_ops.hpp — discrete gradient / divergence operators of Algorithm 1.
//
// The paper defines (Section II-A):
//   BackwardX(z): each element reduced by its left  neighbor,
//   BackwardY(z): each element reduced by its upper neighbor,
//   ForwardX(z):  difference toward the right neighbor,
//   ForwardY(z):  difference toward the lower neighbor,
// with the frame border treated as a special case ("the algorithm inherently
// treats them as special cases", Section III-A).  We use the standard
// Chambolle (2004) discretization, for which forward differences vanish on the
// far border and the backward (divergence) operator uses one-sided values on
// the near/far borders.  This makes (gradient, -divergence) an adjoint pair —
// the property the dual algorithm needs and which the tests verify.
//
// Index convention: (r, c) = (row, column); X differences act along columns
// (horizontal), Y differences along rows (vertical).
#pragma once

#include "common/matrix.hpp"

namespace chambolle::grid {

/// ForwardX(z)(r,c) = z(r,c+1) - z(r,c); 0 in the last column.
[[nodiscard]] Matrix<float> forward_x(const Matrix<float>& z);

/// ForwardY(z)(r,c) = z(r+1,c) - z(r,c); 0 in the last row.
[[nodiscard]] Matrix<float> forward_y(const Matrix<float>& z);

/// BackwardX with Chambolle divergence boundary rules:
///   c == 0:        p(r,0)
///   0 < c < W-1:   p(r,c) - p(r,c-1)
///   c == W-1:      -p(r,c-1)
[[nodiscard]] Matrix<float> backward_x(const Matrix<float>& p);

/// BackwardY with Chambolle divergence boundary rules (rows instead of cols).
[[nodiscard]] Matrix<float> backward_y(const Matrix<float>& p);

/// div p = BackwardX(px) + BackwardY(py)  (Algorithm 1, line 2).
[[nodiscard]] Matrix<float> divergence(const Matrix<float>& px,
                                       const Matrix<float>& py);

/// Pointwise scalar versions used by the per-element solvers (tiled CPU solver
/// and the hardware datapath reference).  `left`, `up` are the neighbor values
/// of p; the boundary flags select the one-sided Chambolle rules.
[[nodiscard]] inline float backward_diff(float center, float neighbor,
                                         bool at_first, bool at_last) {
  if (at_first) return center;
  if (at_last) return -neighbor;
  return center - neighbor;
}

/// Sum over the grid of a(r,c) * b(r,c) — the inner product used by the
/// adjointness property test.
[[nodiscard]] double dot(const Matrix<float>& a, const Matrix<float>& b);

}  // namespace chambolle::grid
