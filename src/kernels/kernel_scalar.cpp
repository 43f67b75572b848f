// kernel_scalar.cpp — portable 1-lane backend.
//
// The same generic implementation as the SIMD backends, instantiated with a
// scalar "vector" of one float.  This is the reference the equivalence
// tests pin every other backend against, and the fallback on CPUs (or
// builds) without a usable SIMD ISA.
#include <cmath>

#include "kernels/backend_impl.hpp"
#include "kernels/backend_registry.hpp"

namespace chambolle::kernels {
namespace {

struct ScalarV {
  static constexpr int kLanes = 1;
  using reg = float;
  static reg loadu(const float* p) { return *p; }
  static void storeu(float* p, reg v) { *p = v; }
  static reg set1(float x) { return x; }
  static reg zero() { return 0.f; }
  static reg add(reg a, reg b) { return a + b; }
  static reg sub(reg a, reg b) { return a - b; }
  static reg mul(reg a, reg b) { return a * b; }
  static reg div(reg a, reg b) { return a / b; }
  static reg sqrt(reg a) { return std::sqrt(a); }
  static reg neg(reg a) { return -a; }
};

constexpr KernelOps kOps = detail::make_ops<ScalarV>("scalar");

}  // namespace

const KernelOps* scalar_ops() { return &kOps; }

}  // namespace chambolle::kernels
