// grid_transfer_test.cpp — pins the inter-grid transfer operators
// (grid/transfer.hpp): the ceil-halving geometry, the clamped odd-edge
// restriction convention, constant preservation, and the bit-exact
// equivalence with the TV-L1 pyramid operators they replaced.
#include "grid/transfer.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tvl1/pyramid.hpp"

namespace chambolle::grid {
namespace {

TEST(GridTransfer, CoarseExtentCeilHalves) {
  EXPECT_EQ(coarse_extent(1), 1);
  EXPECT_EQ(coarse_extent(2), 1);
  EXPECT_EQ(coarse_extent(3), 2);
  EXPECT_EQ(coarse_extent(4), 2);
  EXPECT_EQ(coarse_extent(5), 3);
  EXPECT_EQ(coarse_extent(1080), 540);
  EXPECT_EQ(coarse_extent(2161), 1081);
}

TEST(GridTransfer, RestrictShapesFollowCoarseExtent) {
  for (const auto& [r, c] : {std::pair{10, 11}, {7, 7}, {1, 9}, {2, 2},
                            {1, 1}, {5, 64}}) {
    Rng rng(1);
    const Matrix<float> fine = random_image(rng, r, c);
    const Matrix<float> coarse = restrict_half(fine);
    EXPECT_EQ(coarse.rows(), coarse_extent(r));
    EXPECT_EQ(coarse.cols(), coarse_extent(c));
  }
}

TEST(GridTransfer, RestrictionOfConstantIsConstantBitExactly) {
  // The clamped-edge weights sum to exactly 1 and the summation order makes
  // constant preservation an IEEE identity — for awkward constants too.
  for (const float k : {7.f, 1.f / 3.f, 255.f, 0.1f, -3.25f}) {
    for (const auto& [r, c] :
         {std::pair{9, 9}, {1, 1}, {1, 2}, {2, 1}, {5, 8}, {64, 33}}) {
      const Matrix<float> fine(r, c, k);
      for (const float v : restrict_half(fine)) EXPECT_EQ(v, k);
    }
  }
}

TEST(GridTransfer, RestrictAveragesBoxesAndClampsOddEdges) {
  // 3x3: interior coarse cell averages its 2x2 block; the odd trailing
  // row/column is clamped, so the boundary cell weight doubles.
  Matrix<float> f(3, 3);
  float v = 0.f;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) f(r, c) = v++;  // 0..8 row-major
  const Matrix<float> g = restrict_half(f);
  ASSERT_EQ(g.rows(), 2);
  ASSERT_EQ(g.cols(), 2);
  EXPECT_FLOAT_EQ(g(0, 0), (0.f + 1.f + 3.f + 4.f) / 4.f);
  EXPECT_FLOAT_EQ(g(0, 1), (2.f + 2.f + 5.f + 5.f) / 4.f);  // col clamped
  EXPECT_FLOAT_EQ(g(1, 0), (6.f + 7.f + 6.f + 7.f) / 4.f);  // row clamped
  EXPECT_FLOAT_EQ(g(1, 1), (8.f + 8.f + 8.f + 8.f) / 4.f);  // both clamped
}

TEST(GridTransfer, TinyExtentsDegenerate) {
  // 1x1 restricts to itself; a 1x2 row averages into a single cell.
  Matrix<float> one(1, 1, 5.f);
  EXPECT_EQ(restrict_half(one)(0, 0), 5.f);
  Matrix<float> row(1, 2);
  row(0, 0) = 2.f;
  row(0, 1) = 6.f;
  const Matrix<float> half = restrict_half(row);
  ASSERT_EQ(half.rows(), 1);
  ASSERT_EQ(half.cols(), 1);
  EXPECT_FLOAT_EQ(half(0, 0), 4.f);
}

TEST(GridTransfer, BilinearProlongPreservesConstants) {
  const Matrix<float> coarse(4, 5, 3.5f);
  Matrix<float> fine;
  prolong_bilinear_into(coarse, 9, 9, fine);
  for (const float v : fine) EXPECT_FLOAT_EQ(v, 3.5f);
}

TEST(GridTransfer, MatchesPyramidOperatorsBitExactly) {
  // The TV-L1 pyramid was rebased onto these operators; its public
  // downsample2 / upsample_to must be bit-identical to calling grid directly
  // — covering the historical-output regression in both directions.
  for (const auto& [r, c] :
       {std::pair{10, 11}, {33, 17}, {64, 64}, {5, 9}, {240, 135}}) {
    Rng rng(static_cast<std::uint64_t>(r + c));
    const Image img = random_image(rng, r, c);
    const Image down_pyr = tvl1::downsample2(img);
    const Matrix<float> down_grid = restrict_half(img);
    ASSERT_TRUE(down_pyr.same_shape(down_grid));
    for (std::size_t i = 0; i < down_grid.size(); ++i)
      EXPECT_EQ(down_pyr.data()[i], down_grid.data()[i]);

    const Image up_pyr = tvl1::upsample_to(down_pyr, r, c);
    Matrix<float> up_grid;
    prolong_bilinear_into(down_grid, r, c, up_grid);
    ASSERT_TRUE(up_pyr.same_shape(up_grid));
    for (std::size_t i = 0; i < up_grid.size(); ++i)
      EXPECT_EQ(up_pyr.data()[i], up_grid.data()[i]);
  }
}

}  // namespace
}  // namespace chambolle::grid
