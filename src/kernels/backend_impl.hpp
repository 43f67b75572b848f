// backend_impl.hpp — the generic row-primitive implementation, shared by
// every backend TU.
//
// Each backend translation unit defines a vector traits struct V (lane
// count, loads/stores, IEEE add/sub/mul/div/sqrt, sign-flip negation) and
// instantiates make_ops<V>().  The scalar backend is the same template with
// a 1-lane traits struct, so scalar and SIMD share one control structure by
// construction.
//
// Interior/border split: each row is emitted as
//     [c == 0]  [vector interior c in 1 .. cols-2]  [scalar tail]  [c == cols-1]
// so the vector loop carries NO border predicates at all.  The scalar border
// cells and the tail use kernels::div_p / kernels::dual_update — the same
// inline functions the merged cone walker uses — and the vector lanes apply
// the identical IEEE operations in the identical order, which keeps every
// backend bit-exact with the seed solver (the repo compiles with
// -ffp-contract=off; nothing here may introduce an FMA or a reciprocal
// approximation).
#pragma once

#include <cmath>

#include "kernels/kernel.hpp"
#include "kernels/scalar_ops.hpp"

namespace chambolle::kernels::detail {

// Emits div p for one row through two callbacks: emit_v(c, vec) covers
// V::kLanes interior cells starting at c, emit_s(c, div) one border/tail
// cell.  kBottom/kHaveUp hoist the row-uniform dy mode out of the loop:
//   dy = kBottom ? -up : py[c] - up,   up = kHaveUp ? py_up[c] : 0.
template <class V, bool kBottom, bool kHaveUp, class EmitV, class EmitS>
inline void div_sweep(const float* px, const float* py, const float* py_up,
                      int cols, bool at_left, bool at_right, EmitV&& emit_v,
                      EmitS&& emit_s) {
  const auto dy_s = [&](int c) {
    const float up = kHaveUp ? py_up[c] : 0.f;
    return kBottom ? -up : py[c] - up;
  };
  // c == 0: the west neighbor is outside the buffer.  The frame-left rule
  // (dx = px) and the halo rule (dx = px - 0) agree bitwise, so the only
  // distinct case is a 1-column window pinned to the frame's right border,
  // where the right rule negates the missing neighbor: dx = -(0.f).
  const float dx0 = (!at_left && at_right && cols == 1) ? -0.f : px[0];
  emit_s(0, dx0 + dy_s(0));
  if (cols == 1) return;
  const int last = cols - 1;
  int c = 1;
  for (; c + V::kLanes <= last; c += V::kLanes) {
    const auto dx = V::sub(V::loadu(px + c), V::loadu(px + c - 1));
    const auto up = kHaveUp ? V::loadu(py_up + c) : V::zero();
    const auto dy = kBottom ? V::neg(up) : V::sub(V::loadu(py + c), up);
    emit_v(c, V::add(dx, dy));
  }
  for (; c < last; ++c) emit_s(c, (px[c] - px[c - 1]) + dy_s(c));
  const float dx_last = at_right ? -px[last - 1] : px[last] - px[last - 1];
  emit_s(last, dx_last + dy_s(last));
}

template <class V, bool kBottom, bool kHaveUp>
void term_row_t(const TermRowArgs& a) {
  const auto vt = V::set1(a.inv_theta);
  const float* v = a.v;
  float* term = a.term;
  div_sweep<V, kBottom, kHaveUp>(
      a.px, a.py, a.py_up, a.cols, a.at_left, a.at_right,
      [&](int c, typename V::reg d) {
        V::storeu(term + c, V::sub(d, V::mul(V::loadu(v + c), vt)));
      },
      [&](int c, float d) { term[c] = d - v[c] * a.inv_theta; });
}

template <class V>
void term_row_impl(const TermRowArgs& a) {
  // Bottom-border rule only when the row is not ALSO the frame top (1-row
  // frame): top precedence, seed branch order.
  const bool bottom = a.at_bottom && !a.at_top;
  if (bottom)
    a.py_up != nullptr ? term_row_t<V, true, true>(a)
                       : term_row_t<V, true, false>(a);
  else
    a.py_up != nullptr ? term_row_t<V, false, true>(a)
                       : term_row_t<V, false, false>(a);
}

template <class V, bool kBottom, bool kHaveUp>
void recover_row_t(const RecoverRowArgs& a) {
  const auto th = V::set1(a.theta);
  const float* v = a.v;
  float* u = a.u;
  div_sweep<V, kBottom, kHaveUp>(
      a.px, a.py, a.py_up, a.cols, a.at_left, a.at_right,
      [&](int c, typename V::reg d) {
        V::storeu(u + c, V::sub(V::loadu(v + c), V::mul(th, d)));
      },
      [&](int c, float d) { u[c] = v[c] - a.theta * d; });
}

template <class V>
void recover_row_impl(const RecoverRowArgs& a) {
  const bool bottom = a.at_bottom && !a.at_top;
  if (bottom)
    a.py_up != nullptr ? recover_row_t<V, true, true>(a)
                       : recover_row_t<V, true, false>(a);
  else
    a.py_up != nullptr ? recover_row_t<V, false, true>(a)
                       : recover_row_t<V, false, false>(a);
}

template <class V, bool kHaveDown>
void update_row_t(const UpdateRowArgs& a) {
  const int last = a.cols - 1;
  float* px = a.px;
  float* py = a.py;
  const float* term = a.term;
  const float* down = a.term_down;
  const auto stepv = V::set1(a.step);
  const auto onev = V::set1(1.f);
  int c = 0;
  for (; c + V::kLanes <= last; c += V::kLanes) {
    const auto t = V::loadu(term + c);
    const auto t1 = V::sub(V::loadu(term + c + 1), t);
    const auto t2 = kHaveDown ? V::sub(V::loadu(down + c), t) : V::zero();
    const auto grad = V::sqrt(V::add(V::mul(t1, t1), V::mul(t2, t2)));
    const auto denom = V::add(onev, V::mul(stepv, grad));
    V::storeu(px + c,
              V::div(V::add(V::loadu(px + c), V::mul(stepv, t1)), denom));
    V::storeu(py + c,
              V::div(V::add(V::loadu(py + c), V::mul(stepv, t2)), denom));
  }
  for (; c < last; ++c) {
    const DualUpdate u =
        dual_update(px[c], py[c], term[c], term[c + 1],
                    kHaveDown ? down[c] : 0.f, false, !kHaveDown, a.step);
    px[c] = u.px;
    py[c] = u.py;
  }
  // c == last: ForwardX is 0 (buffer edge == frame right border here).
  const DualUpdate u =
      dual_update(px[last], py[last], term[last], 0.f,
                  kHaveDown ? down[last] : 0.f, true, !kHaveDown, a.step);
  px[last] = u.px;
  py[last] = u.py;
}

template <class V>
void update_row_impl(const UpdateRowArgs& a) {
  a.term_down != nullptr ? update_row_t<V, true>(a)
                         : update_row_t<V, false>(a);
}

template <class V>
constexpr KernelOps make_ops(const char* name) {
  return KernelOps{name, V::kLanes, &term_row_impl<V>, &update_row_impl<V>,
                   &recover_row_impl<V>};
}

}  // namespace chambolle::kernels::detail
