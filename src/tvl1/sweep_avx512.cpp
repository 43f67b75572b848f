// sweep_avx512.cpp — 16-lane AVX-512F rows of the warp -> threshold sweep.
//
// Each row runs as 16-column chunks under a lane mask, the last chunk
// masked to the row's tail, and repeats sweep_rows_scalar()'s arithmetic
// operation for operation so every lane writes the scalar bits:
//
//   * taps: floor_to_int is a truncating cvttps plus a decrement where the
//     truncation rounded up; the row and column are clamped to the frame,
//     the flat indices are 32-bit (select_sweep_rows() sends frames whose
//     cells outgrow int32 to the scalar rows), and the weights come from the
//     UNclamped floor, as in bilinear_taps();
//   * sampling: masked gathers of the four taps of I1, gx and gy, combined
//     in sample_taps()' (1-wr)*((1-wc)*a + wc*b) + wr*((1-wc)*c + wc*d)
//     order;
//   * residual: linearized_residual()'s gx*0 and gy*0 terms stay (they are
//     -0 or +0 and may flip a zero's sign);
//   * threshold: threshold_split()'s branches become masks taken in its
//     `if` order — rho < (-lt)*g2, then rho > lt*g2, then g2 > 1e-12,
//     else a zero step — with the middle branch's ((-rho)*g)/g2 under a
//     masked divide.
//
// Only IEEE correctly rounded add/sub/mul/div touch the data, never FMA
// (the tree builds with -ffp-contract=off, and GCC does not contract
// explicit intrinsics under it).  Masked loads, gathers and stores do not
// touch masked-out lanes, so a tail chunk never reads or writes past its
// row.
#include "tvl1/sweep_rows.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

// GCC's _mm512_undefined_ps() (used inside the intrinsics header by the
// unmasked forms) trips -Wmaybe-uninitialized; header-internal noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace chambolle::tvl1 {
namespace {

constexpr int kLanes = 16;

// Lane mask for columns [c, c + 16) of a cols-wide row.
inline __mmask16 row_mask(int c, int cols) {
  const int active = std::min(kLanes, cols - c);
  return static_cast<__mmask16>((1u << active) - 1u);
}

// Sign-bit XOR negation, the scalar unary minus (AVX512F has no xor_ps).
inline __m512 neg(__m512 a) {
  return _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(a), _mm512_castps_si512(_mm512_set1_ps(-0.f))));
}

// floor_to_int(): truncate toward zero, then step down where the
// truncation rounded up (negative non-integers).
inline __m512i floor_epi32(__m512 x) {
  const __m512i t = _mm512_cvttps_epi32(x);
  const __mmask16 up =
      _mm512_cmp_ps_mask(_mm512_cvtepi32_ps(t), x, _CMP_GT_OQ);
  return _mm512_mask_sub_epi32(t, up, t, _mm512_set1_epi32(1));
}

inline __m512i clamp_epi32(__m512i x, __m512i hi) {
  return _mm512_min_epi32(_mm512_max_epi32(x, _mm512_setzero_si512()), hi);
}

// The taps of one chunk, as bilinear_taps() computes them per lane.
struct Taps {
  __m512i i00, i01, i10, i11;
  __m512 wr, wc, one_wr, one_wc;
};

// sample_taps() over one chunk's lanes in `m`.
inline __m512 sample(const float* grid, __mmask16 m, const Taps& t) {
  const __m512 z = _mm512_setzero_ps();
  const __m512 a = _mm512_mask_i32gather_ps(z, m, t.i00, grid, 4);
  const __m512 b = _mm512_mask_i32gather_ps(z, m, t.i01, grid, 4);
  const __m512 c = _mm512_mask_i32gather_ps(z, m, t.i10, grid, 4);
  const __m512 d = _mm512_mask_i32gather_ps(z, m, t.i11, grid, 4);
  return _mm512_add_ps(
      _mm512_mul_ps(t.one_wr, _mm512_add_ps(_mm512_mul_ps(t.one_wc, a),
                                            _mm512_mul_ps(t.wc, b))),
      _mm512_mul_ps(t.wr, _mm512_add_ps(_mm512_mul_ps(t.one_wc, c),
                                        _mm512_mul_ps(t.wc, d))));
}

void sweep_rows(const SweepFrame& f, int begin, int end) {
  const int cols = f.cols;
  const __m512 one = _mm512_set1_ps(1.f);
  const __m512 zero = _mm512_setzero_ps();
  const __m512i last_row = _mm512_set1_epi32(f.rows - 1);
  const __m512i last_col = _mm512_set1_epi32(cols - 1);
  const __m512i cols_v = _mm512_set1_epi32(cols);
  const __m512i one_i = _mm512_set1_epi32(1);
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512 lt = _mm512_set1_ps(f.lt);
  const __m512 neg_lt = _mm512_set1_ps(-f.lt);
  const __m512 tiny = _mm512_set1_ps(1e-12f);
  for (int r = begin; r < end; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(cols);
    const float* u1 = f.u1 + row;
    const float* u2 = f.u2 + row;
    const float* f0 = f.i0 + row;
    float* v1 = f.v1 + row;
    float* v2 = f.v2 + row;
    const __m512 rf = _mm512_set1_ps(static_cast<float>(r));
    for (int c = 0; c < cols; c += kLanes) {
      const __mmask16 m = row_mask(c, cols);
      const __m512 du1 = _mm512_maskz_loadu_ps(m, u1 + c);
      const __m512 du2 = _mm512_maskz_loadu_ps(m, u2 + c);
      const __m512 fr = _mm512_add_ps(rf, du2);
      const __m512 fc = _mm512_add_ps(
          _mm512_cvtepi32_ps(_mm512_add_epi32(_mm512_set1_epi32(c), iota)),
          du1);

      const __m512i r0 = floor_epi32(fr);
      const __m512i c0 = floor_epi32(fc);
      const __m512i ra = _mm512_mullo_epi32(clamp_epi32(r0, last_row), cols_v);
      const __m512i rb = _mm512_mullo_epi32(
          clamp_epi32(_mm512_add_epi32(r0, one_i), last_row), cols_v);
      const __m512i ca = clamp_epi32(c0, last_col);
      const __m512i cb = clamp_epi32(_mm512_add_epi32(c0, one_i), last_col);
      Taps t;
      t.i00 = _mm512_add_epi32(ra, ca);
      t.i01 = _mm512_add_epi32(ra, cb);
      t.i10 = _mm512_add_epi32(rb, ca);
      t.i11 = _mm512_add_epi32(rb, cb);
      t.wr = _mm512_sub_ps(fr, _mm512_cvtepi32_ps(r0));
      t.wc = _mm512_sub_ps(fc, _mm512_cvtepi32_ps(c0));
      t.one_wr = _mm512_sub_ps(one, t.wr);
      t.one_wc = _mm512_sub_ps(one, t.wc);

      const __m512 gx = sample(f.gx, m, t);
      const __m512 gy = sample(f.gy, m, t);
      const __m512 rho = _mm512_sub_ps(
          _mm512_add_ps(_mm512_add_ps(sample(f.i1, m, t),
                                      _mm512_mul_ps(gx, zero)),
                        _mm512_mul_ps(gy, zero)),
          _mm512_maskz_loadu_ps(m, f0 + c));

      const __m512 g2 =
          _mm512_add_ps(_mm512_mul_ps(gx, gx), _mm512_mul_ps(gy, gy));
      const __mmask16 below =
          _mm512_cmp_ps_mask(rho, _mm512_mul_ps(neg_lt, g2), _CMP_LT_OQ);
      const __mmask16 above = static_cast<__mmask16>(
          _mm512_cmp_ps_mask(rho, _mm512_mul_ps(lt, g2), _CMP_GT_OQ) &
          ~below);
      const __mmask16 inside = static_cast<__mmask16>(
          _mm512_cmp_ps_mask(g2, tiny, _CMP_GT_OQ) & ~below & ~above);
      const __m512 neg_rho = neg(rho);
      __m512 dx = _mm512_mask_mov_ps(zero, below, _mm512_mul_ps(lt, gx));
      __m512 dy = _mm512_mask_mov_ps(zero, below, _mm512_mul_ps(lt, gy));
      dx = _mm512_mask_mov_ps(dx, above, _mm512_mul_ps(neg_lt, gx));
      dy = _mm512_mask_mov_ps(dy, above, _mm512_mul_ps(neg_lt, gy));
      dx = _mm512_mask_div_ps(dx, inside, _mm512_mul_ps(neg_rho, gx), g2);
      dy = _mm512_mask_div_ps(dy, inside, _mm512_mul_ps(neg_rho, gy), g2);

      _mm512_mask_storeu_ps(v1 + c, m, _mm512_add_ps(du1, dx));
      _mm512_mask_storeu_ps(v2 + c, m, _mm512_add_ps(du2, dy));
    }
  }
}

}  // namespace

SweepRowsFn sweep_rows_avx512() { return &sweep_rows; }

}  // namespace chambolle::tvl1

#else  // !__AVX512F__

namespace chambolle::tvl1 {
SweepRowsFn sweep_rows_avx512() { return nullptr; }
}  // namespace chambolle::tvl1

#endif
