// kernel.cpp — runtime CPU dispatch and the fused region drivers.
//
// Dispatch: the backend is resolved once (then cached) from, in priority
// order, a programmatic force_backend() override, the CHAMBOLLE_KERNEL
// environment variable, and CPU feature detection — __builtin_cpu_supports
// (cpuid) on x86, getauxval(AT_HWCAP) on AArch64 Linux.  The resolved
// choice is exported as the `kernel.backend` gauge (enum ordinal) plus a
// one-shot `kernel.dispatch.<name>` counter.
//
// Fusion: iterate_region_fused() runs the Term pass and the dual-update
// pass as ONE sweep with a rolling two-row Term window.  Term row r+1 is
// produced immediately BEFORE row r's dual update consumes it — and before
// the update overwrites py row r, which Term row r+1 reads — so the
// schedule is exactly the seed's Jacobi two-pass, minus the full-frame
// Term materialization and the second traversal.
#include "kernels/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/stopwatch.hpp"
#include "kernels/backend_registry.hpp"
#include "telemetry/metrics.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace chambolle::kernels {
namespace {

const KernelOps* compiled_ops(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return scalar_ops();
    case Backend::kSse2:
      return sse2_ops();
    case Backend::kNeon:
      return neon_ops();
    case Backend::kAvx2:
      return avx2_ops();
    case Backend::kAvx512:
      return avx512_ops();
  }
  return nullptr;
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__) && defined(__linux__)
      return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
      return true;  // ASIMD is mandatory in AArch64
#else
      return false;
#endif
  }
  return false;
}

// -1 = unresolved; otherwise the Backend ordinal.  Resolution is idempotent
// so a benign race on first use resolves to the same value on every thread.
std::atomic<int> g_backend{-1};

void export_choice(Backend b) {
  telemetry::registry().gauge("kernel.backend").set(static_cast<double>(b));
  telemetry::registry()
      .counter(std::string("kernel.dispatch.") + backend_name(b))
      .add(1);
}

// "scalar, sse2, avx2" — the backends this build + machine can actually
// run, for the hard-reject diagnostics below.
std::string available_backend_list() {
  std::string out;
  for (Backend b : available_backends()) {
    if (!out.empty()) out += ", ";
    out += backend_name(b);
  }
  return out;
}

// Parses a backend name with the hard-reject contract: unknown or
// unavailable names throw std::invalid_argument naming the offender and
// listing what this build + machine offers instead.  Shared by the
// CHAMBOLLE_KERNEL override and force_backend(name) — a typo'd request
// must never silently run a different backend.
Backend parse_backend_checked(std::string_view name, const char* what) {
  const std::optional<Backend> req = parse_backend(name);
  if (!req.has_value())
    throw std::invalid_argument(std::string("kernels: ") + what + "=" +
                                std::string(name) +
                                " is not a known backend (available: " +
                                available_backend_list() + ", or auto)");
  if (!backend_available(*req))
    throw std::invalid_argument(std::string("kernels: ") + what + "=" +
                                std::string(name) +
                                " is not available on this machine "
                                "(available: " +
                                available_backend_list() + ", or auto)");
  return *req;
}

Backend resolve_backend() {
  // Environment override first.
  if (const char* env = std::getenv("CHAMBOLLE_KERNEL");
      env != nullptr && *env != '\0' && std::string_view(env) != "auto")
    return parse_backend_checked(env, "CHAMBOLLE_KERNEL");
  // CPU dispatch, best first.
  for (Backend b : {Backend::kAvx512, Backend::kAvx2, Backend::kNeon,
                    Backend::kSse2, Backend::kScalar})
    if (backend_available(b)) return b;
  return Backend::kScalar;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kNeon:
      return "neon";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "sse2") return Backend::kSse2;
  if (name == "neon") return Backend::kNeon;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  return std::nullopt;
}

bool backend_available(Backend b) {
  return compiled_ops(b) != nullptr && cpu_supports(b);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kAvx512, Backend::kAvx2, Backend::kNeon,
                    Backend::kSse2, Backend::kScalar})
    if (backend_available(b)) out.push_back(b);
  return out;
}

Backend active_backend() {
  int cur = g_backend.load(std::memory_order_acquire);
  if (cur < 0) {
    const Backend resolved = resolve_backend();
    cur = static_cast<int>(resolved);
    int expected = -1;
    if (g_backend.compare_exchange_strong(expected, cur,
                                          std::memory_order_acq_rel))
      export_choice(resolved);
    else
      cur = expected;
  }
  return static_cast<Backend>(cur);
}

const KernelOps& ops() { return *compiled_ops(active_backend()); }

const KernelOps& ops_for(Backend b) {
  if (!backend_available(b))
    throw std::invalid_argument(std::string("kernels: backend ") +
                                backend_name(b) +
                                " is not available on this machine");
  return *compiled_ops(b);
}

void force_backend(Backend b) {
  (void)ops_for(b);  // throws when unavailable
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  export_choice(b);
}

void force_backend(std::string_view name) {
  force_backend(parse_backend_checked(name, "backend"));
}

void reset_backend() { g_backend.store(-1, std::memory_order_release); }

void iterate_region_fused(Matrix<float>& px, Matrix<float>& py,
                          const Matrix<float>& v, const RegionGeometry& geom,
                          float inv_theta, float step, int iterations,
                          Matrix<float>& term_rows) {
  const int rows = v.rows(), cols = v.cols();
  if (rows == 0 || cols == 0 || iterations == 0) return;
  if (term_rows.rows() != 2 || term_rows.cols() != cols)
    term_rows.resize(2, cols);
  const KernelOps& k = ops();
  const bool at_left = geom.col0 == 0;
  const bool at_right = geom.col0 + cols == geom.frame_cols;
  const Stopwatch clock;

  float* t_cur = &term_rows(0, 0);
  float* t_next = &term_rows(1, 0);
  TermRowArgs term{};
  term.v = nullptr;
  term.cols = cols;
  term.inv_theta = inv_theta;
  term.at_left = at_left;
  term.at_right = at_right;
  UpdateRowArgs upd{};
  upd.cols = cols;
  upd.step = step;

  const auto fill_term_row = [&](int r, float* out) {
    term.px = &px(r, 0);
    term.py = &py(r, 0);
    term.py_up = r > 0 ? &py(r - 1, 0) : nullptr;
    term.v = &v(r, 0);
    term.term = out;
    const int ar = geom.row0 + r;
    term.at_top = ar == 0;
    term.at_bottom = ar == geom.frame_rows - 1;
    k.term_row(term);
  };

  for (int it = 0; it < iterations; ++it) {
    fill_term_row(0, t_cur);
    for (int r = 0; r < rows; ++r) {
      // Term row r+1 must be produced before the update writes py row r
      // (its north-neighbor input) — and a bottom-border buffer row never
      // has a successor, so term_down == nullptr exactly when ForwardY
      // vanishes in the seed arithmetic.
      const bool have_down = r + 1 < rows;
      if (have_down) fill_term_row(r + 1, t_next);
      upd.px = &px(r, 0);
      upd.py = &py(r, 0);
      upd.term = t_cur;
      upd.term_down = have_down ? t_next : nullptr;
      k.update_row(upd);
      std::swap(t_cur, t_next);
    }
  }

  static telemetry::Counter& cells = telemetry::registry().counter(
      "kernel.cells");
  static telemetry::Gauge& cps =
      telemetry::registry().gauge("kernel.cells_per_second");
  const double n = static_cast<double>(rows) * cols * iterations;
  cells.add(static_cast<std::uint64_t>(n));
  const double secs = clock.seconds();
  if (secs > 0.0) cps.set(n / secs);
}

void recover_u_into(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, Matrix<float>& out) {
  if (!out.same_shape(v)) out.resize(v.rows(), v.cols());
  recover_u_rows(v, px, py, geom, theta, 0, v.rows(), out, 0);
}

void recover_u_rows(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, int r0, int rows, Matrix<float>& out,
                    int out_r0) {
  const int cols = v.cols();
  if (rows <= 0 || cols == 0) return;
  const KernelOps& k = ops();
  RecoverRowArgs a{};
  a.cols = cols;
  a.theta = theta;
  a.at_left = geom.col0 == 0;
  a.at_right = geom.col0 + cols == geom.frame_cols;
  for (int r = r0; r < r0 + rows; ++r) {
    a.px = &px(r, 0);
    a.py = &py(r, 0);
    a.py_up = r > 0 ? &py(r - 1, 0) : nullptr;
    a.v = &v(r, 0);
    a.u = &out(out_r0 + r - r0, 0);
    const int ar = geom.row0 + r;
    a.at_top = ar == 0;
    a.at_bottom = ar == geom.frame_rows - 1;
    k.recover_row(a);
  }
}

}  // namespace chambolle::kernels
