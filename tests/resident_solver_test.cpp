#include "chambolle/resident_tiled.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

// The strongest form of the equality claim: raw-memory comparison, not
// float-tolerant.  operator== on Matrix is elementwise; memcmp additionally
// rules out representation games (e.g. -0.0 vs 0.0).
void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

// Bit-exactness of the resident halo-exchange engine against the sequential
// reference, across the geometry/edge-case matrix: frame smaller than one
// strip, strips exactly 3 * halo rows, non-divisible frame/strip ratios,
// tall and flat frames, degenerate 1x1 frames — at several thread counts,
// so the point-to-point scheduler's orderings are exercised.  Every case
// runs on full-width strips of tile_rows buffer rows and on the engine's
// own plan (plan_tiling).  tile_cols is unread, as strips span the frame;
// it stays so each case keeps its parameter bytes, which name it in ctest.
struct ResidentCase {
  int rows, cols, tile_rows, tile_cols, merge, iterations, threads;
};

class ResidentEqualsReference : public ::testing::TestWithParam<ResidentCase> {
};

TEST_P(ResidentEqualsReference, BitExactOnAllElements) {
  const ResidentCase& tc = GetParam();
  const Matrix<float> v = random_v(tc.rows, tc.cols, 4000 + tc.rows);
  const ChambolleParams params = params_with(tc.iterations);

  const ChambolleResult ref = solve(v, params);

  TiledSolverOptions opt;
  opt.tile_rows = tc.tile_rows;
  opt.tile_cols = tc.tile_cols;
  opt.merge_iterations = tc.merge;
  opt.num_threads = tc.threads;
  for (const bool planned : {false, true}) {
    SCOPED_TRACE(planned ? "planned" : "strips");
    ResidentTiledStats stats;
    const ChambolleResult res =
        planned ? solve_resident(v, params, opt, &stats)
                : Peer::solve_strips(v, tc.tile_rows, params, opt, &stats);

    expect_memcmp_eq(res.u, ref.u, "u");
    expect_memcmp_eq(res.p.px, ref.p.px, "px");
    expect_memcmp_eq(res.p.py, ref.p.py, "py");
    EXPECT_EQ(stats.passes, (tc.iterations + tc.merge - 1) / tc.merge);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResidentEqualsReference,
    ::testing::Values(
        // Frame smaller than one strip: single resident strip, no exchange.
        ResidentCase{32, 32, 88, 92, 4, 20, 1},
        // Strips exactly 3 * halo rows — the thinnest legal strip, whose
        // interior strips keep exactly halo profitable rows.
        ResidentCase{24, 24, 12, 9, 4, 12, 2},
        ResidentCase{20, 20, 3, 3, 1, 7, 2},
        // Multi-strip, several merge depths and thread counts.
        ResidentCase{64, 64, 24, 28, 4, 16, 1},
        ResidentCase{64, 64, 24, 28, 4, 16, 4},
        ResidentCase{64, 64, 24, 28, 1, 7, 2},
        ResidentCase{50, 70, 24, 22, 8, 24, 3},
        ResidentCase{97, 53, 30, 26, 5, 13, 2},  // iterations % merge != 0
        // Frame slightly taller than one strip (paper's window size).
        ResidentCase{90, 94, 88, 92, 4, 12, 2},
        // Tall and flat frames.
        ResidentCase{128, 16, 40, 16, 6, 18, 2},
        ResidentCase{16, 128, 16, 40, 6, 18, 2},
        // Degenerate frame: a single pixel, still a multi-threaded request.
        ResidentCase{1, 1, 88, 92, 2, 9, 2},
        // Non-divisible frame/strip ratios.
        ResidentCase{61, 45, 16, 16, 2, 10, 3},
        // Strip exactly equal to the frame.
        ResidentCase{40, 44, 40, 44, 3, 12, 2},
        // More strips than a typical lane count: scheduler pinning blocks.
        ResidentCase{96, 96, 20, 20, 3, 9, 4}));

// The engine's own plan at every pyramid level of the benchmark workloads,
// Table II's frame, lines and long thin strips, for 1-2 fields on 1-8
// lanes: every field is the sequential reference, bit for bit.  Each engine
// also solves with no iterations, cold and from explicit duals: the load
// and recovery epochs alone.  (The suite name matches the CI TSan filter.)
TEST(ResidentPlan, FixedPolicyMatchesReferenceOnEveryShape) {
  struct Shape {
    int rows, cols;
  };
  TiledSolverOptions opt;
  opt.merge_iterations = 4;
  for (const Shape shape :
       {Shape{252, 316}, Shape{126, 158}, Shape{63, 79}, Shape{32, 40},
        Shape{768, 1024}, Shape{128, 128}, Shape{192, 256}, Shape{120, 160},
        Shape{60, 80}, Shape{1, 4096}, Shape{4096, 1}, Shape{1, 1},
        Shape{9, 9}, Shape{9, 4096}, Shape{4096, 9}, Shape{17, 1060},
       Shape{20, 1000}}) {
    const Matrix<float> a = random_v(shape.rows, shape.cols, 4100);
    const Matrix<float> b = random_v(shape.rows, shape.cols, 4101);
    const Matrix<float>* const fields[] = {&a, &b};
    // Warm-start duals for the zero-iteration case: any dual field will do.
    DualField warm_a, warm_b;
    warm_a.px = random_v(shape.rows, shape.cols, 4102);
    warm_a.py = random_v(shape.rows, shape.cols, 4103);
    warm_b.px = random_v(shape.rows, shape.cols, 4104);
    warm_b.py = random_v(shape.rows, shape.cols, 4105);
    const DualField* const warm[] = {&warm_a, &warm_b};
    for (const int iterations : {6, 0}) {
      const ChambolleParams params = params_with(iterations);
      const ChambolleResult cold_ref[] = {solve(a, params), solve(b, params)};
      const ChambolleResult warm_ref[] = {solve(a, params, &warm_a),
                                          solve(b, params, &warm_b)};
      for (int k = 1; k <= 2; ++k) {
        for (int lanes = 1; lanes <= 8; ++lanes) {
          opt.num_threads = lanes;
          ResidentTiledEngine engine(shape.rows, shape.cols, k, params, opt);
          EXPECT_EQ(engine.stats().tiles,
                    static_cast<std::size_t>(k) * engine.plan().tiles.size());
          // Iterations run cold only; no iterations run cold and warm.
          for (const bool warm_start : {false, true}) {
            if (warm_start && iterations > 0) continue;
            SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                         std::to_string(shape.cols) + " fields " +
                         std::to_string(k) + " lanes " +
                         std::to_string(lanes) + " iterations " +
                         std::to_string(iterations) +
                         (warm_start ? " warm" : " cold"));
            ChambolleResult got[2];
            Matrix<float>* const us[] = {&got[0].u, &got[1].u};
            DualField* const ps[] = {&got[0].p, &got[1].p};
            const auto n = static_cast<std::size_t>(k);
            engine.solve(ResidentTiledEngine::Fields(fields, n),
                         warm_start ? ResidentTiledEngine::DualFields(warm, n)
                                    : ResidentTiledEngine::DualFields(),
                         {us, n}, {ps, n});
            const ChambolleResult* ref = warm_start ? warm_ref : cold_ref;
            for (int f = 0; f < k; ++f) {
              expect_memcmp_eq(got[f].u, ref[f].u, "u");
              expect_memcmp_eq(got[f].p.px, ref[f].p.px, "px");
              expect_memcmp_eq(got[f].p.py, ref[f].p.py, "py");
            }
          }
        }
      }
    }
  }
}

TEST(ResidentSolver, MatchesReloadEngineBitExactly) {
  const Matrix<float> v = random_v(80, 60, 21);
  const ChambolleParams params = params_with(14);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 3;
  opt.num_threads = 2;

  const ChambolleResult reload = solve_tiled(v, params, opt);
  const ChambolleResult res = Peer::solve_strips(v, opt.tile_rows, params, opt);
  expect_memcmp_eq(res.p.px, reload.p.px, "px");
  expect_memcmp_eq(res.p.py, reload.p.py, "py");
  expect_memcmp_eq(res.u, reload.u, "u");
}

TEST(ResidentSolver, WarmStartFromInitialDuals) {
  const Matrix<float> v = random_v(44, 36, 24);
  const ChambolleParams first = params_with(6);
  const ChambolleResult stage1 = solve(v, first);

  TiledSolverOptions opt;
  opt.tile_rows = 16;
  opt.tile_cols = 16;
  opt.merge_iterations = 2;
  opt.num_threads = 2;
  ResidentTiledStats stats;
  const ChambolleResult warm =
      Peer::solve_strips(v, opt.tile_rows, params_with(5), opt, &stats,
                         &stage1.p);
  const ChambolleResult ref = solve(v, params_with(5), &stage1.p);
  expect_memcmp_eq(warm.p.px, ref.p.px, "px");
  expect_memcmp_eq(warm.p.py, ref.p.py, "py");
  expect_memcmp_eq(warm.u, ref.u, "u");
}

// A reused engine restarted from explicit zero duals is a cold start: the
// epoch-0 load overwrites every buffer cell of the previous solve.
TEST(ResidentSolver, ResetVWithInitialColdRestarts) {
  const Matrix<float> v1 = random_v(30, 30, 27);
  const Matrix<float> v2 = random_v(30, 30, 28);
  TiledSolverOptions opt;
  opt.tile_rows = 14;
  opt.tile_cols = 14;
  opt.merge_iterations = 2;
  opt.num_threads = 1;

  ResidentTiledEngine engine =
      Peer::strips(30, 30, opt.tile_rows, 1, params_with(6), opt);
  ChambolleResult first, second;
  engine.solve(v1, nullptr, first.u, &first.p);
  const DualField zeros(30, 30);
  engine.solve(v2, &zeros, second.u, &second.p);
  const ChambolleResult ref = solve(v2, params_with(6));
  expect_memcmp_eq(second.p.px, ref.p.px, "px");
  expect_memcmp_eq(second.u, ref.u, "u");
}

TEST(ResidentSolver, StatsReportHaloTrafficFarBelowFrameReload) {
  const Matrix<float> v = random_v(128, 128, 29);
  TiledSolverOptions opt;
  opt.tile_rows = 40;
  opt.tile_cols = 40;
  opt.merge_iterations = 4;
  opt.num_threads = 1;
  ResidentTiledStats stats;
  (void)Peer::solve_strips(v, opt.tile_rows, params_with(16), opt, &stats);

  EXPECT_EQ(stats.passes, 4);
  EXPECT_GT(stats.tiles, 1u);
  EXPECT_GT(stats.halo_elements_per_pass, 0u);
  // The whole point: per-pass mailbox traffic is halo-perimeter scale, a
  // small fraction of the reload engine's 4 floats/cell frame round-trip.
  EXPECT_LT(stats.halo_elements_per_pass, 4u * 128u * 128u / 4u);
  EXPECT_EQ(stats.halo_bytes_exchanged,
            stats.halo_elements_per_pass * sizeof(float) * 4u);
  EXPECT_GT(stats.element_iterations, 128u * 128u * 16u);
}

TEST(ResidentSolver, SingleTileExchangesNothing) {
  const Matrix<float> v = random_v(32, 32, 30);
  TiledSolverOptions opt;  // 32x32 is below one strip's cell floor
  ResidentTiledStats stats;
  const ChambolleResult res =
      solve_resident(v, params_with(8), opt, &stats);
  EXPECT_EQ(stats.tiles, 1u);
  EXPECT_EQ(stats.halo_elements_per_pass, 0u);
  EXPECT_EQ(stats.halo_bytes_exchanged, 0u);
  const ChambolleResult ref = solve(v, params_with(8));
  expect_memcmp_eq(res.p.px, ref.p.px, "px");
}

TEST(ResidentSolver, ValidatesArguments) {
  const Matrix<float> v = random_v(32, 32, 31);
  TiledSolverOptions opt;
  opt.merge_iterations = 0;
  EXPECT_THROW(ResidentTiledEngine(32, 32, 1, params_with(4), opt),
               std::invalid_argument);
  opt = {};
  EXPECT_THROW(ResidentTiledEngine(32, 32, 0, params_with(4), opt),
               std::invalid_argument);
  ChambolleParams negative = params_with(4);
  negative.iterations = -1;
  EXPECT_THROW(ResidentTiledEngine(32, 32, 1, negative, opt),
               std::invalid_argument);
  ResidentTiledEngine engine(32, 32, 1, params_with(4), opt);
  Matrix<float> u;
  const DualField bad(8, 8);
  EXPECT_THROW(engine.solve(v, &bad, u), std::invalid_argument);
  const Matrix<float> wrong(16, 16);
  EXPECT_THROW(engine.solve(wrong, nullptr, u), std::invalid_argument);
}

// The engine runs full-width strips that trade halos with the strips above
// and below only: a 2-D window, and a strip cut so thin that a halo would
// reach past its neighbor, are plans it rejects.  3 * merge rows is the
// thinnest strip it takes.
TEST(ResidentSolver, RejectsWindowsAndStripsThinnerThanTheMergeDepth) {
  TiledSolverOptions opt;
  opt.merge_iterations = 4;
  const ChambolleParams params = params_with(8);
  EXPECT_THROW(
      (void)Peer::on_plan(1, params, opt, make_tiling(64, 64, 24, 28, 4)),
      std::invalid_argument);
  // 11-row buffers over a 30-row frame: profitable rows 7 + 3 + ..., the
  // second strip thinner than the 4-row halo.
  ASSERT_LT(make_tiling(30, 30, 11, 30, 4).tiles[1].prof_rows, 4);
  EXPECT_THROW((void)Peer::strips(30, 30, 11, 1, params, opt),
               std::invalid_argument);
  EXPECT_THROW((void)Peer::strips(30, 30, 11, 2, params, opt),
               std::invalid_argument);
  const Matrix<float> v = random_v(30, 30, 34);
  ResidentTiledEngine engine = Peer::strips(30, 30, 12, 1, params, opt);
  EXPECT_GT(engine.plan().tiles.size(), 2u);
  ChambolleResult got;
  engine.solve(v, nullptr, got.u, &got.p);
  const ChambolleResult ref = solve(v, params);
  expect_memcmp_eq(got.u, ref.u, "u");
  expect_memcmp_eq(got.p.px, ref.p.px, "px");
  expect_memcmp_eq(got.p.py, ref.p.py, "py");
}

// The engine reads neither tile_rows nor tile_cols, so the default 88x92
// window, which caps solve_tiled's merge depth at 43, must not cap it.
TEST(ResidentSolver, MergeDepthIsNotBoundByTheUnreadWindow) {
  const Matrix<float> v = random_v(200, 160, 33);
  TiledSolverOptions opt;
  opt.merge_iterations = 48;
  opt.num_threads = 2;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  const ChambolleParams params = params_with(100);
  ResidentTiledEngine engine(v.rows(), v.cols(), 1, params, opt);
  EXPECT_EQ(engine.plan().tiles.size(), 2u);
  ChambolleResult got;
  engine.solve(v, nullptr, got.u, &got.p);
  const ChambolleResult ref = solve(v, params);
  expect_memcmp_eq(got.u, ref.u, "u");
  expect_memcmp_eq(got.p.px, ref.p.px, "px");
  expect_memcmp_eq(got.p.py, ref.p.py, "py");
}

TEST(ResidentSolver, ThreadCountDoesNotChangeResult) {
  const Matrix<float> v = random_v(80, 60, 32);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 3;

  opt.num_threads = 1;
  const ChambolleResult a =
      Peer::solve_strips(v, opt.tile_rows, params_with(12), opt);
  opt.num_threads = 8;
  const ChambolleResult b =
      Peer::solve_strips(v, opt.tile_rows, params_with(12), opt);
  expect_memcmp_eq(a.u, b.u, "u");
  expect_memcmp_eq(a.p.px, b.p.px, "px");
}

}  // namespace
}  // namespace chambolle
