// kernel_avx512.cpp — 16-lane AVX-512F backend with masked border handling.
//
// Unlike the other SIMD backends (which share backend_impl.hpp's
// [c==0][vector interior][scalar tail][c==cols-1] emission scheme), this TU
// processes every row as a sequence of 16-lane chunks under write masks:
//
//   * the row tail is a masked chunk, not a scalar loop — narrow tiles and
//     halo windows (where the scalar tail dominates the other backends)
//     vectorize fully;
//   * the border special cases are LANE masks computed once per row:
//       - c == 0: the west neighbor is zero-masked out of the px_left load
//         (the frame-left rule dx = px and the halo rule dx = px - 0 agree
//         bitwise, exactly as backend_impl.hpp's scalar cell exploits);
//       - c == cols-1 on a right-border row: dx = -px[last-1] is a sign-bit
//         XOR blended into the last lane — NOT 0 - px[last-1], which would
//         flip the sign of the seed's -0.f when px[last-1] == +0.f;
//       - ForwardX at the last column: term1 is zero-MASKED to +0.f, again
//         matching the seed's literal 0.f rather than computing t[last+1]-t
//         with a garbage operand.
//
// Masked loads (_mm512_maskz_loadu_ps) are architecturally non-faulting on
// masked-out lanes, so chunks may straddle the end of a row allocation.
// Only vsqrtps/vdivps (both IEEE correctly rounded) touch the data — never
// approximations, never FMA (the repo builds with -ffp-contract=off and GCC
// does not contract explicit intrinsics under it) — so all 16 lanes are
// bit-exact with the scalar path.
#include "kernels/backend_registry.hpp"
#include "kernels/kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

// GCC's _mm512_undefined_ps() (used inside the intrinsics header by the
// unmasked sqrt/load forms) trips -Wmaybe-uninitialized; header-internal
// noise, not a defect in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace chambolle::kernels {
namespace {

constexpr int kLanes = 16;

// Lane mask for columns [c, c + 16) of a cols-wide row.
inline __mmask16 row_mask(int c, int cols) {
  const int active = std::min(kLanes, cols - c);
  return static_cast<__mmask16>((1u << active) - 1u);
}

// Sign-bit XOR negation (AVX512F has no _mm512_xor_ps; that is DQ).
inline __m512 neg(__m512 a) {
  return _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(a), _mm512_castps_si512(_mm512_set1_ps(-0.f))));
}

// div p for one 16-lane chunk at columns [c, c+16) ∩ [0, cols).
// m = lanes inside the row; py_up == nullptr means a zero halo row;
// kBottom hoists the row-uniform dy mode (at_bottom && !at_top, seed
// precedence) out of the loop exactly like backend_impl.hpp's div_sweep.
template <bool kBottom, bool kHaveUp>
inline __m512 div_chunk(int c, int cols, __mmask16 m, const float* px,
                        const float* py, const float* py_up, bool at_left,
                        bool at_right) {
  // West neighbors: lane 0 of the first chunk has none — zero-mask it out
  // of the load instead of reading px[-1].
  const __mmask16 mleft =
      c == 0 ? static_cast<__mmask16>(m & ~__mmask16(1)) : m;
  const __m512 px_l = _mm512_maskz_loadu_ps(mleft, px + c - 1);
  __m512 dx = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, px + c), px_l);
  if (at_right) {
    // Right-border rule dx = -px[last-1] in the lane holding c == cols-1,
    // as a sign flip of the (possibly zero-masked) west neighbor.  The
    // seed's left-over-right precedence exempts a 1-wide frame: there
    // at_left wins and dx stays px[0].
    const int last = cols - 1;
    if (last >= c && last < c + kLanes && !(last == 0 && at_left)) {
      const __mmask16 mlast = static_cast<__mmask16>(1u << (last - c));
      dx = _mm512_mask_mov_ps(dx, mlast, neg(px_l));
    }
  }
  __m512 dy;
  if (kBottom) {
    // dy = -up; with no halo row this is -(0.f) == -0.f, the seed's bits.
    const __m512 up =
        kHaveUp ? _mm512_maskz_loadu_ps(m, py_up + c) : _mm512_setzero_ps();
    dy = neg(up);
  } else {
    const __m512 up =
        kHaveUp ? _mm512_maskz_loadu_ps(m, py_up + c) : _mm512_setzero_ps();
    dy = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, py + c), up);
  }
  return _mm512_add_ps(dx, dy);
}

template <bool kBottom, bool kHaveUp>
void term_row_t(const TermRowArgs& a) {
  const __m512 vt = _mm512_set1_ps(a.inv_theta);
  for (int c = 0; c < a.cols; c += kLanes) {
    const __mmask16 m = row_mask(c, a.cols);
    const __m512 d = div_chunk<kBottom, kHaveUp>(
        c, a.cols, m, a.px, a.py, a.py_up, a.at_left, a.at_right);
    const __m512 v = _mm512_maskz_loadu_ps(m, a.v + c);
    _mm512_mask_storeu_ps(a.term + c, m,
                          _mm512_sub_ps(d, _mm512_mul_ps(v, vt)));
  }
}

void term_row_impl(const TermRowArgs& a) {
  const bool bottom = a.at_bottom && !a.at_top;
  if (bottom)
    a.py_up != nullptr ? term_row_t<true, true>(a) : term_row_t<true, false>(a);
  else
    a.py_up != nullptr ? term_row_t<false, true>(a)
                       : term_row_t<false, false>(a);
}

template <bool kBottom, bool kHaveUp>
void recover_row_t(const RecoverRowArgs& a) {
  const __m512 th = _mm512_set1_ps(a.theta);
  for (int c = 0; c < a.cols; c += kLanes) {
    const __mmask16 m = row_mask(c, a.cols);
    const __m512 d = div_chunk<kBottom, kHaveUp>(
        c, a.cols, m, a.px, a.py, a.py_up, a.at_left, a.at_right);
    const __m512 v = _mm512_maskz_loadu_ps(m, a.v + c);
    _mm512_mask_storeu_ps(a.u + c, m,
                          _mm512_sub_ps(v, _mm512_mul_ps(th, d)));
  }
}

void recover_row_impl(const RecoverRowArgs& a) {
  const bool bottom = a.at_bottom && !a.at_top;
  if (bottom)
    a.py_up != nullptr ? recover_row_t<true, true>(a)
                       : recover_row_t<true, false>(a);
  else
    a.py_up != nullptr ? recover_row_t<false, true>(a)
                       : recover_row_t<false, false>(a);
}

template <bool kHaveDown>
void update_row_t(const UpdateRowArgs& a) {
  const int last = a.cols - 1;
  const __m512 stepv = _mm512_set1_ps(a.step);
  const __m512 onev = _mm512_set1_ps(1.f);
  for (int c = 0; c < a.cols; c += kLanes) {
    const __mmask16 m = row_mask(c, a.cols);
    // ForwardX vanishes in the lane holding the last column (buffer edge ==
    // frame right border there by construction): maskz_sub writes a literal
    // +0.f, the seed's `zero_t1 ? 0.f : ...` bits.  The term+c+1 load masks
    // that lane out too, so it never touches term[cols].
    const __mmask16 mfx =
        (last >= c && last < c + kLanes)
            ? static_cast<__mmask16>(m & ~(1u << (last - c)))
            : m;
    const __m512 t = _mm512_maskz_loadu_ps(m, a.term + c);
    const __m512 t1 = _mm512_maskz_sub_ps(
        mfx, _mm512_maskz_loadu_ps(mfx, a.term + c + 1), t);
    const __m512 t2 =
        kHaveDown
            ? _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a.term_down + c), t)
            : _mm512_setzero_ps();
    const __m512 grad = _mm512_sqrt_ps(
        _mm512_add_ps(_mm512_mul_ps(t1, t1), _mm512_mul_ps(t2, t2)));
    const __m512 denom = _mm512_add_ps(onev, _mm512_mul_ps(stepv, grad));
    const __m512 px_old = _mm512_maskz_loadu_ps(m, a.px + c);
    const __m512 py_old = _mm512_maskz_loadu_ps(m, a.py + c);
    const __m512 px_new =
        _mm512_div_ps(_mm512_add_ps(px_old, _mm512_mul_ps(stepv, t1)), denom);
    const __m512 py_new =
        _mm512_div_ps(_mm512_add_ps(py_old, _mm512_mul_ps(stepv, t2)), denom);
    _mm512_mask_storeu_ps(a.px + c, m, px_new);
    _mm512_mask_storeu_ps(a.py + c, m, py_new);
  }
}

void update_row_impl(const UpdateRowArgs& a) {
  a.term_down != nullptr ? update_row_t<true>(a) : update_row_t<false>(a);
}

const KernelOps kOps = {"avx512", kLanes, &term_row_impl, &update_row_impl,
                        &recover_row_impl};

}  // namespace

const KernelOps* avx512_ops() { return &kOps; }

}  // namespace chambolle::kernels

#else  // !__AVX512F__

namespace chambolle::kernels {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace chambolle::kernels

#endif
