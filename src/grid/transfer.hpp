// transfer.hpp — shared inter-grid transfer operators (restrict / prolong /
// residual helpers).
//
// Two subsystems move fields between resolutions: the TV-L1 coarse-to-fine
// pyramid (tvl1/pyramid.hpp) and the resident-tile engine's coarse-grid
// correction (chambolle/multilevel.hpp).  Both used to carry private copies
// of the same 2x2-box restriction and bilinear prolongation; this module is
// the single shared definition, with the boundary convention for
// non-divisible extents made explicit and test-pinned
// (tests/grid_transfer_test.cpp).
//
// Grid convention (cell-centered, ceil-halving):
//
//  * A fine grid of extent n restricts to a coarse grid of extent
//    coarse_extent(n) = (n + 1) / 2 — every fine cell is covered, including
//    the trailing row/column of odd extents.
//  * Coarse cell (R, C) averages the 2x2 fine block starting at
//    (2R, 2C); on an odd trailing edge the out-of-range fine index is
//    CLAMPED to the last row/column, i.e. the single boundary cell is
//    counted twice (its weight collapses from 1/4 + 1/4 to 1/2).  The
//    weights always sum to exactly 1, so the restriction of a constant
//    field is that constant BIT-EXACTLY (the summation order below makes
//    this an IEEE identity, not an approximation — pinned by test).
//  * The convention needs no minimum extent: it is exact down to 1x1,
//    where restriction degenerates to the identity.  Levels below a
//    caller's min_dim policy are a policy choice, not an operator limit.
//
// Two prolongations are provided:
//
//  * prolong_bilinear_into — cell-centered bilinear interpolation to an
//    arbitrary target extent (edge-clamped).  Smooth; the choice for
//    interpolating corrections and flow fields.  NOT a right inverse of
//    restrict_half (box-averaging a bilinear interpolant re-weights
//    neighbors).
//  * prolong_nearest_into — piecewise-constant 2x injection (fine cell
//    (r, c) copies coarse cell (r/2, c/2)).  Blocky, but satisfies the
//    exact round-trip identity restrict_half(prolong_nearest(C)) == C for
//    every extent pair with rows == coarse_extent(fine_rows) — the
//    invariant multigrid transfer analysis assumes, pinned by test.
#pragma once

#include "common/matrix.hpp"

namespace chambolle::grid {

/// Coarse extent of a ceil-halved fine extent (covers every fine cell).
[[nodiscard]] constexpr int coarse_extent(int fine) { return (fine + 1) / 2; }

/// 2x2 box restriction with the clamped odd-edge convention above, into a
/// caller-provided coarse matrix (resized to ceil-half extents).  Arithmetic
/// is bit-identical to the pre-refactor tvl1::downsample2 — the rebased
/// pyramid reproduces its historical output exactly.
void restrict_half(const Matrix<float>& fine, Matrix<float>& coarse);

/// Convenience value-returning form of restrict_half.
[[nodiscard]] Matrix<float> restrict_half(const Matrix<float>& fine);

/// Cell-centered bilinear interpolation to an exact (rows, cols) target,
/// edge-clamped, into a caller-provided matrix (resized as needed).
/// Arithmetic is bit-identical to the pre-refactor tvl1::upsample_to.
/// Throws std::invalid_argument for an empty target or source.
void prolong_bilinear_into(const Matrix<float>& coarse, int rows, int cols,
                           Matrix<float>& fine);

/// prolong_bilinear_into restricted to rows [row_begin, row_end) of a `fine`
/// already shaped to the target extent — the unit of a row-parallel
/// prolongation.  Same arithmetic, bit for bit.
void prolong_bilinear_rows(const Matrix<float>& coarse, Matrix<float>& fine,
                           int row_begin, int row_end);

/// Piecewise-constant 2x injection: fine(r, c) = coarse(r / 2, c / 2).
/// Requires coarse extents == coarse_extent of the fine extents (throws
/// otherwise); satisfies restrict_half(prolong_nearest(C)) == C bit-exactly.
void prolong_nearest_into(const Matrix<float>& coarse, int rows, int cols,
                          Matrix<float>& fine);

/// out = a - b elementwise (shape-checked; out resized as needed) — the
/// correction/residual delta between two same-grid fields.  `out` may alias
/// `a` or `b`; the aliased forms compute in place.
void sub_into(const Matrix<float>& a, const Matrix<float>& b,
              Matrix<float>& out);

/// dst += scale * src elementwise (shape-checked).
void add_scaled(Matrix<float>& dst, const Matrix<float>& src, float scale);

}  // namespace chambolle::grid
