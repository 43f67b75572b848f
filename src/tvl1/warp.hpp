// warp.hpp — bilinear image warping and gradients for TV-L1.
//
// Each outer TV-L1 iteration warps I1 by the current flow estimate u0 and
// linearizes the residual rho(u) = I1(x + u0) + <grad I1(x + u0), u - u0> - I0
// around u0.  Sampling is bilinear with border clamping.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/image.hpp"

namespace chambolle::parallel {
class ThreadPool;
}  // namespace chambolle::parallel

namespace chambolle::tvl1 {

/// The taps of one bilinear sample: flat offsets of the four clamp-to-border
/// neighbors in a rows x cols row-major grid, and the two weights.  One set
/// of taps samples every same-shape grid at that position — the fused
/// warp/threshold sweep reads I1 and both source gradients through it.
struct BilinearTaps {
  std::size_t i00, i01, i10, i11;  ///< (r0, c0), (r0, c0+1), (r0+1, c0), ...
  float wr, wc;                    ///< fractional row / column weights
};

/// static_cast<int>(std::floor(x)) for x in int range, without the libm
/// call the baseline x86-64 ISA compiles std::floor to.
inline int floor_to_int(float x) {
  const int i = static_cast<int>(x);  // truncates toward zero
  return static_cast<float>(i) > x ? i - 1 : i;
}

/// Taps of the fractional (row, col) position (fr, fc).
inline BilinearTaps bilinear_taps(float fr, float fc, int rows, int cols) {
  const int r0 = floor_to_int(fr);
  const int c0 = floor_to_int(fc);
  const auto row = [&](int r) {
    return static_cast<std::size_t>(std::clamp(r, 0, rows - 1)) *
           static_cast<std::size_t>(cols);
  };
  const auto col = [&](int c) {
    return static_cast<std::size_t>(std::clamp(c, 0, cols - 1));
  };
  return {row(r0) + col(c0), row(r0) + col(c0 + 1), row(r0 + 1) + col(c0),
          row(r0 + 1) + col(c0 + 1), fr - static_cast<float>(r0),
          fc - static_cast<float>(c0)};
}

/// The bilinear interpolant of `grid` (row-major data of the taps' shape).
inline float sample_taps(const float* grid, const BilinearTaps& t) {
  return (1.f - t.wr) * ((1.f - t.wc) * grid[t.i00] + t.wc * grid[t.i01]) +
         t.wr * ((1.f - t.wc) * grid[t.i10] + t.wc * grid[t.i11]);
}

/// Bilinear sample with clamp-to-border addressing.  (fr, fc) are fractional
/// (row, col) coordinates.
[[nodiscard]] inline float sample_bilinear(const Image& img, float fr,
                                           float fc) {
  return sample_taps(img.data().data(),
                     bilinear_taps(fr, fc, img.rows(), img.cols()));
}

/// Warps `img` by the flow: out(r, c) = img(r + u2(r,c), c + u1(r,c)).
[[nodiscard]] Image warp(const Image& img, const FlowField& flow);

/// Central-difference gradients (one-sided at borders).
struct Gradients {
  Matrix<float> gx;  ///< d/dcol
  Matrix<float> gy;  ///< d/drow
};
[[nodiscard]] Gradients gradients(const Image& img);

/// gradients() into caller-owned storage (resized only on a shape change),
/// row-chunked over `lanes` lanes of `pool` — the once-per-pyramid-level
/// form of the TV-L1 outer loop.  Bit-identical to gradients().
void gradients_into(const Image& img, Gradients& out, parallel::ThreadPool& pool,
                    int lanes);

/// Warps `img` by the flow and evaluates the warped gradients by sampling the
/// source gradients at the warped positions (the standard TV-L1 choice).
struct WarpResult {
  Image warped;
  Gradients grad;
};
[[nodiscard]] WarpResult warp_with_gradients(const Image& img,
                                             const FlowField& flow);

}  // namespace chambolle::tvl1
