// kernel_avx2.cpp — 8-lane AVX2 backend.
//
// Compiled with -mavx2 (CMake adds the flag when the compiler accepts it);
// when the flag is absent this TU degrades to a nullptr stub and the
// dispatcher never offers the backend.  Only vsqrtps/vdivps — both IEEE
// correctly rounded — touch the data, never rcpps/rsqrtps approximations
// and never FMA, so the 8 lanes are bit-exact with the scalar path.
#include "kernels/backend_impl.hpp"
#include "kernels/backend_registry.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace chambolle::kernels {
namespace {

struct Avx2V {
  static constexpr int kLanes = 8;
  using reg = __m256;
  static reg loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg set1(float x) { return _mm256_set1_ps(x); }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_ps(a, b); }
  static reg sqrt(reg a) { return _mm256_sqrt_ps(a); }
  static reg neg(reg a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.f)); }
};

const KernelOps kOps = detail::make_ops<Avx2V>("avx2");

}  // namespace

const KernelOps* avx2_ops() { return &kOps; }

}  // namespace chambolle::kernels

#else  // !__AVX2__

namespace chambolle::kernels {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace chambolle::kernels

#endif
