// kernel_sse2.cpp — 4-lane SSE2 backend.
//
// SSE2 is the x86-64 baseline ISA, so this backend exists on every x86-64
// build; sqrtps/divps are IEEE correctly rounded, which keeps the lanes
// bit-exact with the scalar path.  Negation is a sign-bit XOR, matching the
// scalar unary minus exactly (including on zeros).
#include "kernels/backend_impl.hpp"
#include "kernels/backend_registry.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace chambolle::kernels {
namespace {

struct Sse2V {
  static constexpr int kLanes = 4;
  using reg = __m128;
  static reg loadu(const float* p) { return _mm_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm_storeu_ps(p, v); }
  static reg set1(float x) { return _mm_set1_ps(x); }
  static reg zero() { return _mm_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm_div_ps(a, b); }
  static reg sqrt(reg a) { return _mm_sqrt_ps(a); }
  static reg neg(reg a) { return _mm_xor_ps(a, _mm_set1_ps(-0.f)); }
};

const KernelOps kOps = detail::make_ops<Sse2V>("sse2");

}  // namespace

const KernelOps* sse2_ops() { return &kOps; }

}  // namespace chambolle::kernels

#else  // !__SSE2__

namespace chambolle::kernels {
const KernelOps* sse2_ops() { return nullptr; }
}  // namespace chambolle::kernels

#endif
