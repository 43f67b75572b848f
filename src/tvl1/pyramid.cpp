#include "tvl1/pyramid.hpp"

#include <stdexcept>
#include <utility>

#include "grid/transfer.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle::tvl1 {

// downsample2 / upsample_to are thin wrappers over the grid-transfer module
// (grid/transfer.hpp): one definition of the restriction convention, one set
// of invariant tests.  The module's ops keep
// the exact historical arithmetic, so the rebased pyramid is bit-identical
// to its pre-refactor output (pinned by tests/grid_transfer_test.cpp).

Image downsample2(const Image& img) { return grid::restrict_half(img); }

Image upsample_to(const Image& img, int rows, int cols) {
  Image out;
  grid::prolong_bilinear_into(img, rows, cols, out);
  return out;
}

Image normalize_frame(Image frame) {
  for (float& v : frame) v *= (1.f / 255.f);
  return frame;
}

namespace {

// Rows [row_begin, row_end) of upsample_flow into a shaped `out`.
void upsample_flow_rows(const FlowField& flow, FlowField& out, int row_begin,
                        int row_end) {
  const float scale_c =
      static_cast<float>(out.cols()) / static_cast<float>(flow.cols());
  const float scale_r =
      static_cast<float>(out.rows()) / static_cast<float>(flow.rows());
  grid::prolong_bilinear_rows(flow.u1, out.u1, row_begin, row_end);
  grid::prolong_bilinear_rows(flow.u2, out.u2, row_begin, row_end);
  for (int r = row_begin; r < row_end; ++r) {
    float* u1 = &out.u1(r, 0);
    float* u2 = &out.u2(r, 0);
    for (int c = 0; c < out.cols(); ++c) {
      u1[c] *= scale_c;
      u2[c] *= scale_r;
    }
  }
}

void shape_upsample_target(const FlowField& flow, int rows, int cols,
                           FlowField& out) {
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("upsample_flow: empty target");
  if (flow.rows() < 1 || flow.cols() < 1)
    throw std::invalid_argument("upsample_flow: empty source");
  if (out.u1.rows() != rows || out.u1.cols() != cols) out.u1.resize(rows, cols);
  if (out.u2.rows() != rows || out.u2.cols() != cols) out.u2.resize(rows, cols);
}

}  // namespace

FlowField upsample_flow(const FlowField& flow, int rows, int cols) {
  FlowField out;
  shape_upsample_target(flow, rows, cols, out);
  upsample_flow_rows(flow, out, 0, rows);
  return out;
}

void upsample_flow_into(const FlowField& flow, int rows, int cols,
                        FlowField& out, parallel::ThreadPool& pool, int lanes) {
  shape_upsample_target(flow, rows, cols, out);
  parallel::parallel_rows(pool, rows, cols, lanes, parallel::kStreamChunkCells,
                          [&](int begin, int end) {
                            upsample_flow_rows(flow, out, begin, end);
                          });
}

Pyramid::Pyramid(Image base, int max_levels, int min_dim) {
  if (max_levels < 1) throw std::invalid_argument("Pyramid: max_levels < 1");
  if (base.rows() < 1 || base.cols() < 1)
    throw std::invalid_argument("Pyramid: empty base image");
  levels_.push_back(std::move(base));
  while (static_cast<int>(levels_.size()) < max_levels) {
    const Image& prev = levels_.back();
    if (grid::coarse_extent(prev.rows()) < min_dim ||
        grid::coarse_extent(prev.cols()) < min_dim)
      break;
    levels_.push_back(downsample2(prev));
  }
}

}  // namespace chambolle::tvl1
