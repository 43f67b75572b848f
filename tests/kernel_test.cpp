// kernel_test.cpp — the SIMD kernel layer: backend dispatch, and the
// bit-exactness sweep of every available backend against the seed scalar
// implementation.
//
// The ground truth is a literal copy of the SEED solver's two-pass loop
// (full Term frame, per-element border branches, scalar sqrt/div) — the
// code the kernel layer replaced.  Every backend must reproduce its px/py
// and recover_u outputs bit-for-bit (memcmp, so even signed zeros must
// match) on degenerate and offset geometries: 1-pixel, 1-row, 1-column,
// non-multiple-of-8 widths, tile==frame, and halo windows pinned to each
// frame border.
#include "kernels/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chambolle/solver.hpp"
#include "common/rng.hpp"
#include "kernels/scalar_ops.hpp"

namespace chambolle {
namespace {

// ---------------------------------------------------------------------------
// Seed reference implementation (verbatim from the pre-kernel solver.cpp).

float seed_div_p_at(const Matrix<float>& px, const Matrix<float>& py, int r,
                    int c, const RegionGeometry& g) {
  const int ar = g.row0 + r;
  const int ac = g.col0 + c;
  float dx;
  if (ac == 0)
    dx = px(r, c);
  else if (ac == g.frame_cols - 1)
    dx = -(c > 0 ? px(r, c - 1) : 0.f);
  else
    dx = px(r, c) - (c > 0 ? px(r, c - 1) : 0.f);
  float dy;
  if (ar == 0)
    dy = py(r, c);
  else if (ar == g.frame_rows - 1)
    dy = -(r > 0 ? py(r - 1, c) : 0.f);
  else
    dy = py(r, c) - (r > 0 ? py(r - 1, c) : 0.f);
  return dx + dy;
}

void seed_iterate_region(Matrix<float>& px, Matrix<float>& py,
                         const Matrix<float>& v, const RegionGeometry& geom,
                         const ChambolleParams& params, int iterations) {
  const int rows = v.rows(), cols = v.cols();
  if (rows == 0 || cols == 0 || iterations == 0) return;
  Matrix<float> term_scratch(rows, cols);
  const float inv_theta = 1.f / params.theta;
  const float step = params.step();
  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        term_scratch(r, c) =
            seed_div_p_at(px, py, r, c, geom) - v(r, c) * inv_theta;
    for (int r = 0; r < rows; ++r) {
      const int ar = geom.row0 + r;
      for (int c = 0; c < cols; ++c) {
        const int ac = geom.col0 + c;
        const float t = term_scratch(r, c);
        const float term1 = (ac == geom.frame_cols - 1 || c + 1 >= cols)
                                ? 0.f
                                : term_scratch(r, c + 1) - t;
        const float term2 = (ar == geom.frame_rows - 1 || r + 1 >= rows)
                                ? 0.f
                                : term_scratch(r + 1, c) - t;
        const float grad = std::sqrt(term1 * term1 + term2 * term2);
        const float denom = 1.f + step * grad;
        px(r, c) = (px(r, c) + step * term1) / denom;
        py(r, c) = (py(r, c) + step * term2) / denom;
      }
    }
  }
}

Matrix<float> seed_recover_u(const Matrix<float>& v, const Matrix<float>& px,
                             const Matrix<float>& py,
                             const RegionGeometry& geom, float theta) {
  Matrix<float> u(v.rows(), v.cols());
  for (int r = 0; r < v.rows(); ++r)
    for (int c = 0; c < v.cols(); ++c)
      u(r, c) = v(r, c) - theta * seed_div_p_at(px, py, r, c, geom);
  return u;
}

// ---------------------------------------------------------------------------

::testing::AssertionResult bits_equal(const Matrix<float>& got,
                                      const Matrix<float>& want) {
  if (!got.same_shape(want))
    return ::testing::AssertionFailure() << "shape mismatch";
  if (std::memcmp(got.data().data(), want.data().data(),
                  got.size() * sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got.data()[i], &want.data()[i], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "first bit mismatch at flat index " << i << ": got "
             << got.data()[i] << ", want " << want.data()[i];
  return ::testing::AssertionFailure() << "memcmp/elementwise disagree";
}

// Restores auto-dispatch when a test forced a specific backend.
struct ScopedBackend {
  explicit ScopedBackend(kernels::Backend b) { kernels::force_backend(b); }
  ~ScopedBackend() { kernels::reset_backend(); }
};

struct Geometry {
  const char* name;
  int rows, cols;  // buffer shape
  RegionGeometry geom;
};

// Buffer shapes and windows chosen to hit every border/halo special case:
// degenerate 1-wide frames, widths around the 4- and 8-lane boundaries, and
// offset windows pinned to each frame border (the tiled solver's regime).
std::vector<Geometry> sweep_geometries() {
  return {
      {"pixel", 1, 1, RegionGeometry::full_frame(1, 1)},
      {"row", 1, 17, RegionGeometry::full_frame(1, 17)},
      {"column", 17, 1, RegionGeometry::full_frame(17, 1)},
      {"two_by_two", 2, 2, RegionGeometry::full_frame(2, 2)},
      {"lane_exact", 8, 8, RegionGeometry::full_frame(8, 8)},
      {"odd_width", 13, 19, RegionGeometry::full_frame(13, 19)},
      {"tile_equals_frame", 32, 32, RegionGeometry::full_frame(32, 32)},
      // Offset windows into a 32x45 frame.
      {"interior_halo", 16, 23, {5, 7, 32, 45}},
      {"top_left_tile", 16, 23, {0, 0, 32, 45}},
      {"bottom_right_tile", 16, 23, {16, 22, 32, 45}},
      {"right_edge_strip", 32, 9, {0, 36, 32, 45}},
      {"bottom_edge_strip", 9, 45, {23, 0, 32, 45}},
      // 1-wide windows pinned to the far borders: the (-0.f) halo cases.
      {"one_col_at_right", 10, 1, {3, 44, 32, 45}},
      {"one_row_at_bottom", 1, 10, {31, 3, 32, 45}},
      {"one_pixel_interior", 1, 1, {11, 13, 32, 45}},
      // Narrow tiles and widths straddling the 16-lane boundary: the rows
      // where the AVX-512 masked emission diverges most from the
      // interior/border split (an all-tail row for the other backends).
      {"narrow_tile_2x9", 2, 9, {5, 7, 32, 45}},
      {"narrow_tile_at_right", 2, 9, {5, 36, 32, 45}},
      {"width_15", 7, 15, RegionGeometry::full_frame(7, 15)},
      {"width_16", 7, 16, RegionGeometry::full_frame(7, 16)},
      {"width_17", 7, 17, RegionGeometry::full_frame(7, 17)},
      {"width_33", 5, 33, RegionGeometry::full_frame(5, 33)},
  };
}

struct Fields {
  Matrix<float> px, py, v;
};

Fields random_fields(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  Fields f;
  f.px = random_image(rng, rows, cols, -0.7f, 0.7f);
  f.py = random_image(rng, rows, cols, -0.7f, 0.7f);
  f.v = random_image(rng, rows, cols, -2.f, 2.f);
  return f;
}

TEST(KernelEquivalence, AllBackendsBitExactWithSeedIterate) {
  const ChambolleParams params;
  for (const kernels::Backend b : kernels::available_backends()) {
    const ScopedBackend scoped(b);
    for (const Geometry& g : sweep_geometries()) {
      const Fields f = random_fields(g.rows, g.cols, 1234);
      Matrix<float> ref_px = f.px, ref_py = f.py;
      seed_iterate_region(ref_px, ref_py, f.v, g.geom, params, 3);
      Matrix<float> px = f.px, py = f.py, scratch;
      iterate_region(px, py, f.v, g.geom, params, 3, scratch);
      EXPECT_TRUE(bits_equal(px, ref_px))
          << kernels::backend_name(b) << " px on " << g.name;
      EXPECT_TRUE(bits_equal(py, ref_py))
          << kernels::backend_name(b) << " py on " << g.name;
    }
  }
}

TEST(KernelEquivalence, AllBackendsBitExactWithSeedRecoverU) {
  const float theta = 0.25f;
  for (const kernels::Backend b : kernels::available_backends()) {
    const ScopedBackend scoped(b);
    for (const Geometry& g : sweep_geometries()) {
      const Fields f = random_fields(g.rows, g.cols, 99);
      const Matrix<float> want = seed_recover_u(f.v, f.px, f.py, g.geom, theta);
      const Matrix<float> got = recover_u(f.v, f.px, f.py, g.geom, theta);
      EXPECT_TRUE(bits_equal(got, want))
          << kernels::backend_name(b) << " on " << g.name;
    }
  }
}

TEST(KernelEquivalence, ManyIterationsStayBitExact) {
  // Longer runs compound any divergence; 50 iterations on an awkward width.
  const ChambolleParams params;
  const Fields f = random_fields(21, 37, 7);
  Matrix<float> ref_px = f.px, ref_py = f.py;
  const RegionGeometry geom = RegionGeometry::full_frame(21, 37);
  seed_iterate_region(ref_px, ref_py, f.v, geom, params, 50);
  for (const kernels::Backend b : kernels::available_backends()) {
    const ScopedBackend scoped(b);
    Matrix<float> px = f.px, py = f.py, scratch;
    iterate_region(px, py, f.v, geom, params, 50, scratch);
    EXPECT_TRUE(bits_equal(px, ref_px)) << kernels::backend_name(b);
    EXPECT_TRUE(bits_equal(py, ref_py)) << kernels::backend_name(b);
  }
}

TEST(KernelEquivalence, ScratchReuseAcrossShapesIsSafe) {
  // One scratch buffer threaded through solves of different widths — the
  // tiled solver's per-lane reuse pattern.
  const ChambolleParams params;
  Matrix<float> scratch;
  for (const Geometry& g : sweep_geometries()) {
    const Fields f = random_fields(g.rows, g.cols, 5);
    Matrix<float> ref_px = f.px, ref_py = f.py;
    seed_iterate_region(ref_px, ref_py, f.v, g.geom, params, 2);
    Matrix<float> px = f.px, py = f.py;
    iterate_region(px, py, f.v, g.geom, params, 2, scratch);
    EXPECT_TRUE(bits_equal(px, ref_px)) << g.name;
    EXPECT_TRUE(bits_equal(py, ref_py)) << g.name;
  }
}

TEST(KernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kernels::backend_available(kernels::Backend::kScalar));
  const std::vector<kernels::Backend> avail = kernels::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.back(), kernels::Backend::kScalar);
}

TEST(KernelDispatch, ActiveBackendIsAvailableAndOpsMatch) {
  const kernels::Backend b = kernels::active_backend();
  EXPECT_TRUE(kernels::backend_available(b));
  EXPECT_STREQ(kernels::ops().name, kernels::backend_name(b));
  EXPECT_GE(kernels::ops().lanes, 1);
}

TEST(KernelDispatch, ForceAndResetRoundTrip) {
  kernels::force_backend(kernels::Backend::kScalar);
  EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
  EXPECT_STREQ(kernels::ops().name, "scalar");
  kernels::reset_backend();
  // Re-resolved from environment + dispatch; must land on something usable.
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, UnavailableBackendThrows) {
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kNeon, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512}) {
    if (kernels::backend_available(b)) continue;
    EXPECT_THROW((void)kernels::ops_for(b), std::invalid_argument);
    EXPECT_THROW(kernels::force_backend(b), std::invalid_argument);
  }
}

TEST(KernelDispatch, ParseBackendNames) {
  using kernels::Backend;
  EXPECT_EQ(kernels::parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(kernels::parse_backend("sse2"), Backend::kSse2);
  EXPECT_EQ(kernels::parse_backend("neon"), Backend::kNeon);
  EXPECT_EQ(kernels::parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(kernels::parse_backend("avx512"), Backend::kAvx512);
  EXPECT_FALSE(kernels::parse_backend("auto").has_value());
  EXPECT_FALSE(kernels::parse_backend("avx-512").has_value());
  for (const kernels::Backend b :
       {Backend::kScalar, Backend::kSse2, Backend::kNeon, Backend::kAvx2,
        Backend::kAvx512})
    EXPECT_EQ(kernels::parse_backend(kernels::backend_name(b)), b);
}

TEST(KernelDispatch, Avx512PreferredOverAvx2WhenAvailable) {
  // The dispatch-preference contract: whenever both x86 wide backends are
  // usable, auto-dispatch must pick the 16-lane one.
  const std::vector<kernels::Backend> avail = kernels::available_backends();
  if (!kernels::backend_available(kernels::Backend::kAvx512)) GTEST_SKIP();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), kernels::Backend::kAvx512);
}

// Saves CHAMBOLLE_KERNEL around a test that mutates it (the scalar-pinned
// ctest job depends on the value surviving).
struct ScopedKernelEnv {
  ScopedKernelEnv() {
    const char* cur = std::getenv("CHAMBOLLE_KERNEL");
    saved = cur != nullptr ? std::optional<std::string>(cur) : std::nullopt;
  }
  ~ScopedKernelEnv() {
    if (saved.has_value())
      ::setenv("CHAMBOLLE_KERNEL", saved->c_str(), 1);
    else
      ::unsetenv("CHAMBOLLE_KERNEL");
    kernels::reset_backend();
  }
  std::optional<std::string> saved;
};

TEST(KernelDispatch, RejectsUnknownEnvironmentOverride) {
  // A typo'd CHAMBOLLE_KERNEL must be a hard error naming the usable
  // backends, never a silent fall-through to dispatch.
  const ScopedKernelEnv guard;
  ::setenv("CHAMBOLLE_KERNEL", "avx1024", 1);
  kernels::reset_backend();
  try {
    (void)kernels::active_backend();
    FAIL() << "unknown CHAMBOLLE_KERNEL did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("avx1024"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos)
        << "error must list available backends: " << msg;
  }
  // The failed resolution must not be cached: restoring the environment
  // (the guard) must make the next resolution succeed.
}

TEST(KernelDispatch, RejectsUnavailableEnvironmentOverride) {
  // A known-but-unusable name (neon on x86, avx512 on an old core) is the
  // same hard error, with a distinguishable message.
  kernels::Backend missing;
  if (!kernels::backend_available(kernels::Backend::kNeon))
    missing = kernels::Backend::kNeon;
  else if (!kernels::backend_available(kernels::Backend::kAvx512))
    missing = kernels::Backend::kAvx512;
  else
    GTEST_SKIP() << "every named backend is available here";
  const ScopedKernelEnv guard;
  ::setenv("CHAMBOLLE_KERNEL", kernels::backend_name(missing), 1);
  kernels::reset_backend();
  try {
    (void)kernels::active_backend();
    FAIL() << "unavailable CHAMBOLLE_KERNEL did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not available"), std::string::npos)
        << e.what();
  }
}

TEST(KernelDispatch, ForceBackendByName) {
  kernels::force_backend("scalar");
  EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
  kernels::reset_backend();
  EXPECT_THROW(kernels::force_backend("vax512"), std::invalid_argument);
  // "auto" is not a backend; resetting is the API for auto-dispatch.
  EXPECT_THROW(kernels::force_backend("auto"), std::invalid_argument);
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, HonorsEnvironmentOverride) {
  // Meaningful under the CHAMBOLLE_KERNEL=scalar ctest job; a no-op
  // assertion otherwise.
  const char* env = std::getenv("CHAMBOLLE_KERNEL");
  if (env == nullptr || std::string(env) == "auto") GTEST_SKIP();
  const auto want = kernels::parse_backend(env);
  ASSERT_TRUE(want.has_value()) << "unparsable CHAMBOLLE_KERNEL: " << env;
  if (!kernels::backend_available(*want)) GTEST_SKIP();
  kernels::reset_backend();
  EXPECT_EQ(kernels::active_backend(), *want);
}

TEST(KernelScalarOps, DivPMatchesSeedBranchOrder) {
  // Left (top) rule wins over right (bottom) on 1-wide frames.
  EXPECT_EQ(kernels::div_p(2.f, 9.f, 3.f, 9.f, true, true, true, true), 5.f);
  // Interior: forward-looking one-sided differences.
  EXPECT_EQ(kernels::div_p(2.f, 0.5f, 3.f, 1.f, false, false, false, false),
            3.5f);
  // Far borders negate the west/north neighbor.
  EXPECT_EQ(kernels::div_p(2.f, 0.5f, 3.f, 1.f, false, true, false, true),
            -1.5f);
}

TEST(KernelAllocationReuse, RecoverUIntoReusesCorrectlyShapedOutput) {
  const Fields f = random_fields(12, 18, 3);
  const RegionGeometry geom = RegionGeometry::full_frame(12, 18);
  Matrix<float> out(12, 18);
  const float* before = out.data().data();
  recover_u_into(f.v, f.px, f.py, geom, 0.25f, out);
  EXPECT_EQ(out.data().data(), before) << "reallocated a matching buffer";
  EXPECT_TRUE(bits_equal(out, seed_recover_u(f.v, f.px, f.py, geom, 0.25f)));
  // Wrong shape: resized, still correct.
  Matrix<float> wrong(3, 4);
  recover_u_into(f.v, f.px, f.py, geom, 0.25f, wrong);
  EXPECT_TRUE(bits_equal(wrong, seed_recover_u(f.v, f.px, f.py, geom, 0.25f)));
}

TEST(KernelAllocationReuse, SolveIntoReusesBuffersAndMatchesSolve) {
  Rng rng(17);
  const Matrix<float> v = random_image(rng, 14, 22, -1.f, 1.f);
  ChambolleParams params;
  params.iterations = 20;
  const ChambolleResult want = solve(v, params);
  ChambolleResult out;
  solve_into(v, params, out);
  EXPECT_TRUE(bits_equal(out.u, want.u));
  EXPECT_TRUE(bits_equal(out.p.px, want.p.px));
  EXPECT_TRUE(bits_equal(out.p.py, want.p.py));
  // Steady state: a second solve into the same result reuses every buffer.
  const float* u_buf = out.u.data().data();
  const float* px_buf = out.p.px.data().data();
  const float* py_buf = out.p.py.data().data();
  solve_into(v, params, out);
  EXPECT_EQ(out.u.data().data(), u_buf);
  EXPECT_EQ(out.p.px.data().data(), px_buf);
  EXPECT_EQ(out.p.py.data().data(), py_buf);
  EXPECT_TRUE(bits_equal(out.u, want.u));
}

}  // namespace
}  // namespace chambolle
