#include "grid/transfer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace chambolle::grid {

void restrict_half(const Matrix<float>& fine, Matrix<float>& coarse) {
  if (fine.rows() < 1 || fine.cols() < 1)
    throw std::invalid_argument("restrict_half: empty source");
  const int rows = coarse_extent(fine.rows());
  const int cols = coarse_extent(fine.cols());
  coarse.resize(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const int r0 = 2 * r, c0 = 2 * c;
      // Odd trailing edge: the clamp duplicates the last row/column, so the
      // boundary cell carries weight 1/2 (or 1 in the 1x1 corner) and the
      // weights still sum to exactly 1.  The summation order below is part
      // of the contract: it keeps restriction of a constant bit-exact AND
      // matches the pre-refactor tvl1::downsample2 bit for bit.
      const int r1 = std::min(r0 + 1, fine.rows() - 1);
      const int c1 = std::min(c0 + 1, fine.cols() - 1);
      coarse(r, c) = 0.25f * (fine(r0, c0) + fine(r0, c1) + fine(r1, c0) +
                              fine(r1, c1));
    }
}

Matrix<float> restrict_half(const Matrix<float>& fine) {
  Matrix<float> coarse;
  restrict_half(fine, coarse);
  return coarse;
}

void prolong_bilinear_into(const Matrix<float>& coarse, int rows, int cols,
                           Matrix<float>& fine) {
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("prolong_bilinear_into: empty target");
  if (coarse.rows() < 1 || coarse.cols() < 1)
    throw std::invalid_argument("prolong_bilinear_into: empty source");
  fine.resize(rows, cols);
  prolong_bilinear_rows(coarse, fine, 0, rows);
}

void prolong_bilinear_rows(const Matrix<float>& coarse, Matrix<float>& fine,
                           int row_begin, int row_end) {
  const int rows = fine.rows(), cols = fine.cols();
  const float sr =
      static_cast<float>(coarse.rows()) / static_cast<float>(rows);
  const float sc =
      static_cast<float>(coarse.cols()) / static_cast<float>(cols);
  for (int r = row_begin; r < row_end; ++r)
    for (int c = 0; c < cols; ++c) {
      // Sample at the source location of this target pixel's center.
      const float fr = (static_cast<float>(r) + 0.5f) * sr - 0.5f;
      const float fc = (static_cast<float>(c) + 0.5f) * sc - 0.5f;
      const int r0 = static_cast<int>(std::floor(fr));
      const int c0 = static_cast<int>(std::floor(fc));
      const float wr = fr - static_cast<float>(r0);
      const float wc = fc - static_cast<float>(c0);
      const auto sample = [&](int rr, int cc) {
        rr = std::clamp(rr, 0, coarse.rows() - 1);
        cc = std::clamp(cc, 0, coarse.cols() - 1);
        return coarse(rr, cc);
      };
      fine(r, c) =
          (1.f - wr) *
              ((1.f - wc) * sample(r0, c0) + wc * sample(r0, c0 + 1)) +
          wr * ((1.f - wc) * sample(r0 + 1, c0) + wc * sample(r0 + 1, c0 + 1));
    }
}

}  // namespace chambolle::grid
