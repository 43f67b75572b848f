// kernel.hpp — the vectorized fused iteration kernel layer.
//
// This is the ONE hot path of the repo: every solver engine (reference,
// tiled sliding-window, row-parallel, TV-L1 inner solves) funnels its
// per-element Chambolle arithmetic through the row primitives declared
// here.  The layer provides three things the seed inner loop lacked:
//
//  * an interior/border split — all frame-border and halo predicates are
//    hoisted out of the per-element loop, so the interior runs branch-free;
//  * pass fusion — iterate_region_fused() keeps a rolling window of two
//    Term rows (current + next) instead of materializing a full Term frame,
//    one cache-friendly sweep per iteration (the software analogue of the
//    paper's BRAM-Term forwarding between the PE-T and PE-V stages);
//  * SIMD backends — AVX2, SSE2 and NEON intrinsics plus a portable scalar
//    fallback, selected once per process by runtime CPU dispatch
//    (cpuid / hwcaps) with a CHAMBOLLE_KERNEL environment override.
//
// All backends use IEEE-exact vector sqrt/div and the same operation order
// as the seed scalar loop, so every backend produces bit-identical px/py.
// See docs/kernels.md for the dispatch order and the fusion scheme.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/image.hpp"

namespace chambolle {

/// Geometry of a window into a frame: the buffer holds rows
/// [row0, row0+rows) x [col0, col0+cols) of a frame_rows x frame_cols frame.
/// Boundary special cases apply where the *absolute* coordinate touches the
/// frame border; buffer-internal edges that are not frame borders read
/// whatever halo data the buffer holds.  (Defined here with the kernel layer
/// that interprets it; chambolle/solver.hpp re-exports it unchanged.)
struct RegionGeometry {
  int row0 = 0;
  int col0 = 0;
  int frame_rows = 0;
  int frame_cols = 0;

  /// Geometry for a buffer that IS the whole frame.
  static RegionGeometry full_frame(int rows, int cols) {
    return {0, 0, rows, cols};
  }
};

namespace kernels {

/// The SIMD backends, in dispatch-preference order (highest wins).
enum class Backend { kScalar = 0, kSse2 = 1, kNeon = 2, kAvx2 = 3, kAvx512 = 4 };

/// Arguments of the Term-row primitive (Algorithm 1, lines 2-3):
///   term[c] = div p(r, c) - v[c] / theta        for one buffer row r.
/// Pointers address row r of the respective buffers; py_up is row r-1 of py
/// or nullptr (the missing halo neighbor reads as 0).  The at_* flags are
/// the raw frame-border facts of this row/window; border precedence (left
/// over right, top over bottom, matching the seed branch order) is resolved
/// inside the primitive.
struct TermRowArgs {
  const float* px = nullptr;
  const float* py = nullptr;
  const float* py_up = nullptr;  // nullptr => halo row of zeros
  const float* v = nullptr;
  float* term = nullptr;
  int cols = 0;
  float inv_theta = 0.f;
  bool at_left = false;    // absolute col of c==0 is 0
  bool at_right = false;   // absolute col of c==cols-1 is frame_cols-1
  bool at_top = false;     // absolute row is 0
  bool at_bottom = false;  // absolute row is frame_rows-1
};

/// Arguments of the dual-update primitive (Algorithm 1, lines 4-8) for one
/// row: forward differences of Term, gradient magnitude, projected update.
/// term_down is Term row r+1 or nullptr (then ForwardY == 0, i.e. the row
/// is the last buffer row or the frame bottom).  ForwardX is 0 at the last
/// column unconditionally — the buffer edge and the frame right border
/// coincide there by construction.
struct UpdateRowArgs {
  float* px = nullptr;
  float* py = nullptr;
  const float* term = nullptr;       // Term row r
  const float* term_down = nullptr;  // Term row r+1, or nullptr => 0
  int cols = 0;
  float step = 0.f;  // tau / theta
};

/// Arguments of the primal-recovery primitive (Algorithm 1, line 9):
///   u[c] = v[c] - theta * div p(r, c)            for one buffer row r.
/// Same row/border conventions as TermRowArgs.
struct RecoverRowArgs {
  const float* px = nullptr;
  const float* py = nullptr;
  const float* py_up = nullptr;
  const float* v = nullptr;
  float* u = nullptr;
  int cols = 0;
  float theta = 0.f;
  bool at_left = false;
  bool at_right = false;
  bool at_top = false;
  bool at_bottom = false;
};

/// One backend's row primitives.  The function pointers are hot-loop-free to
/// call per row (a frame row is hundreds of cells); the region drivers below
/// add the per-row geometry bookkeeping.
struct KernelOps {
  const char* name = "";
  int lanes = 1;  // SIMD width in floats
  void (*term_row)(const TermRowArgs&) = nullptr;
  void (*update_row)(const UpdateRowArgs&) = nullptr;
  void (*recover_row)(const RecoverRowArgs&) = nullptr;
};

/// Human-readable backend name ("scalar", "sse2", "neon", "avx2", "avx512").
[[nodiscard]] const char* backend_name(Backend b);

/// Parses a backend name (as accepted by CHAMBOLLE_KERNEL and --kernel);
/// nullopt for unknown strings.  "auto" is not a backend and parses to
/// nullopt — callers treat it (and unset) as "use the dispatch order".
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// True when the backend is both compiled in and supported by this CPU
/// (cpuid on x86, hwcaps on AArch64).  kScalar is always available.
[[nodiscard]] bool backend_available(Backend b);

/// All available backends, dispatch-preference order (best first).
[[nodiscard]] std::vector<Backend> available_backends();

/// The backend the kernel layer currently runs on.  Resolution order:
/// programmatic force_backend() > CHAMBOLLE_KERNEL environment variable >
/// best available by CPU dispatch.  An unknown or unavailable
/// CHAMBOLLE_KERNEL value is a hard error (std::invalid_argument listing
/// the backends available on this machine) — a typo'd override must not
/// silently run a different backend than the operator asked for.  The
/// choice is exported as the `kernel.backend` gauge.
[[nodiscard]] Backend active_backend();

/// Row primitives of active_backend().
[[nodiscard]] const KernelOps& ops();

/// Row primitives of a specific backend; throws std::invalid_argument when
/// it is not available on this machine.
[[nodiscard]] const KernelOps& ops_for(Backend b);

/// Forces the active backend (tests, bench sweeps, --kernel CLI flag).
/// Throws std::invalid_argument when unavailable.
void force_backend(Backend b);

/// Name-taking convenience overload: parses and forces in one step, with
/// the same hard-reject contract as the CHAMBOLLE_KERNEL override — throws
/// std::invalid_argument naming the offender and listing the backends
/// available on this machine.
void force_backend(std::string_view name);

/// Clears a force_backend() override; the next ops() call re-resolves from
/// the environment + CPU dispatch.
void reset_backend();

/// Runs `iterations` fused Chambolle iterations in place on (px, py) over
/// the window described by `geom`.  One sweep per iteration: Term rows are
/// produced into a rolling two-row buffer and consumed by the dual update
/// one row behind, so the full Term frame never exists in memory.
/// `term_rows` is resized to 2 x cols as needed (pass a reused buffer to
/// avoid per-call allocation).  Updates the `kernel.cells` counter and the
/// `kernel.cells_per_second` gauge.
void iterate_region_fused(Matrix<float>& px, Matrix<float>& py,
                          const Matrix<float>& v, const RegionGeometry& geom,
                          float inv_theta, float step, int iterations,
                          Matrix<float>& term_rows);

/// u = v - theta * div p over a window, into a caller-provided output
/// (resized as needed — pass a preallocated matrix to avoid the per-frame
/// allocation the seed recover_u paid).
void recover_u_into(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, Matrix<float>& out);

/// recover_u_into restricted to the window rows [r0, r0 + rows) — a
/// strip's profitable rows inside its buffer — written to `out` from row
/// `out_r0`; `out` is as wide as the window.  The row above r0 is read as
/// its neighbor wherever the frame (geom) has one, so the window must hold
/// it (a strip buffer's halo rows do); with that row exact the output
/// equals the whole-frame recovery bit for bit.
void recover_u_rows(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, int r0, int rows, Matrix<float>& out,
                    int out_r0);

}  // namespace kernels
}  // namespace chambolle
