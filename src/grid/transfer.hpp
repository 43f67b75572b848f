// transfer.hpp — inter-grid transfer operators (restrict / prolong).
//
// The TV-L1 coarse-to-fine pyramid (tvl1/pyramid.hpp), which the software
// and accelerator flow paths share, moves images and flow fields between
// resolutions with these operators; the boundary convention for
// non-divisible extents is made explicit here and test-pinned
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
// The prolongation, prolong_bilinear_into, is cell-centered bilinear
// interpolation to an arbitrary target extent (edge-clamped): smooth, the
// choice for interpolating flow fields.  It is NOT a right inverse of
// restrict_half (box-averaging a bilinear interpolant re-weights neighbors).
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

}  // namespace chambolle::grid
