#include "tvl1/warp.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace chambolle::tvl1 {

Image warp(const Image& img, const FlowField& flow) {
  if (flow.rows() != img.rows() || flow.cols() != img.cols())
    throw std::invalid_argument("warp: flow/image shape mismatch");
  Image out(img.rows(), img.cols());
  for (int r = 0; r < img.rows(); ++r)
    for (int c = 0; c < img.cols(); ++c)
      out(r, c) = sample_bilinear(img, static_cast<float>(r) + flow.u2(r, c),
                                  static_cast<float>(c) + flow.u1(r, c));
  return out;
}

namespace {

// Central differences over rows [row_begin, row_end) of `g` (shaped).
void gradient_rows(const Image& img, Gradients& g, int row_begin,
                   int row_end) {
  const int R = img.rows(), C = img.cols();
  for (int r = row_begin; r < row_end; ++r)
    for (int c = 0; c < C; ++c) {
      const int cl = std::max(c - 1, 0), cr = std::min(c + 1, C - 1);
      const int ru = std::max(r - 1, 0), rd = std::min(r + 1, R - 1);
      // One-sided at the borders (divisor matches the actual span).
      g.gx(r, c) = (img(r, cr) - img(r, cl)) / static_cast<float>(cr - cl == 0 ? 1 : cr - cl);
      g.gy(r, c) = (img(rd, c) - img(ru, c)) / static_cast<float>(rd - ru == 0 ? 1 : rd - ru);
    }
}

}  // namespace

Gradients gradients(const Image& img) {
  Gradients g{Matrix<float>(img.rows(), img.cols()),
              Matrix<float>(img.rows(), img.cols())};
  gradient_rows(img, g, 0, img.rows());
  return g;
}

void gradients_into(const Image& img, Gradients& out, parallel::ThreadPool& pool,
                    int lanes) {
  if (!out.gx.same_shape(img)) out.gx.resize(img.rows(), img.cols());
  if (!out.gy.same_shape(img)) out.gy.resize(img.rows(), img.cols());
  parallel::parallel_rows(pool, img.rows(), img.cols(), lanes,
                          parallel::kStreamChunkCells,
                          [&](int begin, int end) {
                            gradient_rows(img, out, begin, end);
                          });
}

WarpResult warp_with_gradients(const Image& img, const FlowField& flow) {
  WarpResult out;
  out.warped = warp(img, flow);
  const Gradients src = gradients(img);
  out.grad.gx.resize(img.rows(), img.cols());
  out.grad.gy.resize(img.rows(), img.cols());
  for (int r = 0; r < img.rows(); ++r)
    for (int c = 0; c < img.cols(); ++c) {
      const float fr = static_cast<float>(r) + flow.u2(r, c);
      const float fc = static_cast<float>(c) + flow.u1(r, c);
      out.grad.gx(r, c) = sample_bilinear(src.gx, fr, fc);
      out.grad.gy(r, c) = sample_bilinear(src.gy, fr, fc);
    }
  return out;
}

}  // namespace chambolle::tvl1
