// kernel_neon.cpp — 4-lane NEON backend (AArch64 only).
//
// Gated on AArch64 because only A64 provides IEEE vector sqrt/div
// (vsqrtq_f32 / vdivq_f32); 32-bit NEON offers reciprocal *estimates*
// only, which would break the bit-exactness contract, so armv7 falls back
// to the scalar backend instead.
#include "kernels/backend_impl.hpp"
#include "kernels/backend_registry.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace chambolle::kernels {
namespace {

struct NeonV {
  static constexpr int kLanes = 4;
  using reg = float32x4_t;
  static reg loadu(const float* p) { return vld1q_f32(p); }
  static void storeu(float* p, reg v) { vst1q_f32(p, v); }
  static reg set1(float x) { return vdupq_n_f32(x); }
  static reg zero() { return vdupq_n_f32(0.f); }
  static reg add(reg a, reg b) { return vaddq_f32(a, b); }
  static reg sub(reg a, reg b) { return vsubq_f32(a, b); }
  static reg mul(reg a, reg b) { return vmulq_f32(a, b); }
  static reg div(reg a, reg b) { return vdivq_f32(a, b); }
  static reg sqrt(reg a) { return vsqrtq_f32(a); }
  static reg neg(reg a) { return vnegq_f32(a); }
};

const KernelOps kOps = detail::make_ops<NeonV>("neon");

}  // namespace

const KernelOps* neon_ops() { return &kOps; }

}  // namespace chambolle::kernels

#else  // !AArch64 NEON

namespace chambolle::kernels {
const KernelOps* neon_ops() { return nullptr; }
}  // namespace chambolle::kernels

#endif
