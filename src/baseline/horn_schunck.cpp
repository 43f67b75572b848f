#include "baseline/horn_schunck.hpp"

#include <algorithm>

#include "tvl1/pyramid.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::baseline {
namespace {

// Horn & Schunck's weighted neighborhood average (their Laplacian stencil):
// 1/6 for the 4-neighbors, 1/12 for the diagonals, clamped at borders.
float neighborhood_average(const Matrix<float>& f, int r, int c) {
  const auto at = [&](int rr, int cc) {
    rr = std::clamp(rr, 0, f.rows() - 1);
    cc = std::clamp(cc, 0, f.cols() - 1);
    return f(rr, cc);
  };
  const float cross = at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1);
  const float diag = at(r - 1, c - 1) + at(r - 1, c + 1) + at(r + 1, c - 1) +
                     at(r + 1, c + 1);
  return cross / 6.f + diag / 12.f;
}

// One Horn-Schunck solve around the linearization point u0 (I1 pre-warped).
void hs_inner(const Image& i0, const tvl1::WarpResult& wr, const FlowField& u0,
              FlowField& u, float alpha, int iterations) {
  const int rows = i0.rows(), cols = i0.cols();
  const float alpha2 = alpha * alpha;
  FlowField next(rows, cols);
  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const float ix = wr.grad.gx(r, c);
        const float iy = wr.grad.gy(r, c);
        // Linearized temporal derivative around u0.
        const float itd = wr.warped(r, c) - i0(r, c);
        const float ubar = neighborhood_average(u.u1, r, c);
        const float vbar = neighborhood_average(u.u2, r, c);
        const float num = ix * (ubar - u0.u1(r, c)) + iy * (vbar - u0.u2(r, c)) + itd;
        const float den = alpha2 + ix * ix + iy * iy;
        const float lam = num / den;
        next.u1(r, c) = ubar - ix * lam;
        next.u2(r, c) = vbar - iy * lam;
      }
    std::swap(u.u1, next.u1);
    std::swap(u.u2, next.u2);
  }
}

}  // namespace

FlowField horn_schunck_flow(const Image& i0, const Image& i1,
                            const HornSchunckParams& params) {
  params.validate();
  if (!i0.same_shape(i1))
    throw std::invalid_argument("horn_schunck_flow: frame shape mismatch");
  if (i0.rows() < 2 || i0.cols() < 2)
    throw std::invalid_argument("horn_schunck_flow: frames at least 2x2");

  const tvl1::Pyramid p0(tvl1::normalize_frame(i0), params.pyramid_levels);
  const tvl1::Pyramid p1(tvl1::normalize_frame(i1), params.pyramid_levels);
  const int levels = std::min(p0.levels(), p1.levels());

  FlowField u;
  for (int level = levels - 1; level >= 0; --level) {
    const Image& l0 = p0.level(level);
    const Image& l1 = p1.level(level);
    if (level == levels - 1)
      u = FlowField(l0.rows(), l0.cols());
    else
      u = tvl1::upsample_flow(u, l0.rows(), l0.cols());

    for (int w = 0; w < params.warps; ++w) {
      const FlowField u0 = u;
      const tvl1::WarpResult wr = tvl1::warp_with_gradients(l1, u0);
      hs_inner(l0, wr, u0, u, params.alpha, params.iterations);
    }
  }
  return u;
}

}  // namespace chambolle::baseline
