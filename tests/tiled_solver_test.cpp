#include "chambolle/tiled_solver.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace chambolle {
namespace {

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

// The paper's central correctness claim, machine-checked in its strongest
// form: the sliding-window solver is BIT-EXACT against the sequential
// full-frame solver, for every tile geometry and merge depth.
struct TiledCase {
  int rows, cols, tile_rows, tile_cols, merge, iterations, threads;
};

class TiledEqualsReference : public ::testing::TestWithParam<TiledCase> {};

TEST_P(TiledEqualsReference, BitExactOnProfitableElements) {
  const TiledCase& tc = GetParam();
  const Matrix<float> v = random_v(tc.rows, tc.cols, 1000 + tc.rows);
  const ChambolleParams params = params_with(tc.iterations);

  const ChambolleResult ref = solve(v, params);

  TiledSolverOptions opt;
  opt.tile_rows = tc.tile_rows;
  opt.tile_cols = tc.tile_cols;
  opt.merge_iterations = tc.merge;
  opt.num_threads = tc.threads;
  const ChambolleResult tiled = solve_tiled(v, params, opt);

  EXPECT_EQ(tiled.u, ref.u);
  EXPECT_EQ(tiled.p.px, ref.p.px);
  EXPECT_EQ(tiled.p.py, ref.p.py);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledEqualsReference,
    ::testing::Values(
        // Single tile degenerates to the reference.
        TiledCase{32, 32, 88, 92, 4, 20, 1},
        // Multi-tile, various merge depths and thread counts.
        TiledCase{64, 64, 24, 28, 4, 16, 1},
        TiledCase{64, 64, 24, 28, 4, 16, 4},
        TiledCase{64, 64, 24, 28, 1, 7, 2},
        TiledCase{50, 70, 20, 22, 8, 24, 3},
        TiledCase{97, 53, 30, 26, 5, 13, 2},  // iterations % merge != 0
        // The paper's window size on a frame slightly larger than one tile.
        TiledCase{90, 94, 88, 92, 4, 12, 2},
        // Tall/flat frames exercise the one-axis tiling paths.
        TiledCase{128, 16, 40, 16, 6, 18, 2},
        TiledCase{16, 128, 16, 40, 6, 18, 2},
        // Degenerate frame: a single pixel, still multi-threaded request.
        TiledCase{1, 1, 88, 92, 2, 9, 2},
        // Frame dimensions not divisible by the tile anywhere.
        TiledCase{61, 45, 16, 16, 2, 10, 3},
        // Tile dims exactly 2*halo+1: the smallest legal window, every
        // buffer cell is halo except a single profitable column/row.
        TiledCase{24, 24, 9, 9, 4, 12, 2},
        TiledCase{20, 20, 3, 3, 1, 7, 2},
        // Tile exactly equal to the frame (boundary of the single-tile path).
        TiledCase{40, 44, 40, 44, 3, 12, 2}));

TEST(TiledSolver, ExecutionEngineDoesNotChangeResult) {
  // The pool decides only who runs a tile, never its arithmetic: at any
  // lane count the solve is bit-identical to the reference.
  const Matrix<float> v = random_v(61, 45, 11);
  const ChambolleParams params = params_with(10);
  TiledSolverOptions opt;
  opt.tile_rows = 16;
  opt.tile_cols = 16;
  opt.merge_iterations = 2;

  const ChambolleResult ref = solve(v, params);
  for (const int threads : {1, 4}) {
    opt.num_threads = threads;
    const ChambolleResult pooled = solve_tiled(v, params, opt);
    EXPECT_EQ(pooled.u, ref.u) << threads << " threads";
    EXPECT_EQ(pooled.p.px, ref.p.px) << threads << " threads";
    EXPECT_EQ(pooled.p.py, ref.p.py) << threads << " threads";
  }
}

TEST(TiledSolver, RunsOnTheOptionsPool) {
  // Every merged pass is one region on TiledSolverOptions::pool; the shared
  // default pool sees none of them.
  const Matrix<float> v = random_v(64, 64, 12);
  parallel::ThreadPool pool(2);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 3;
  opt.pool = &pool;
  const std::uint64_t own0 = pool.tasks();
  const std::uint64_t shared0 = parallel::default_pool().tasks();
  TiledSolverStats stats;
  const ChambolleResult got = solve_tiled(v, params_with(10), opt, &stats);
  EXPECT_EQ(stats.passes, 4);
  EXPECT_EQ(pool.tasks() - own0, static_cast<std::uint64_t>(stats.passes));
  EXPECT_EQ(parallel::default_pool().tasks(), shared0);
  EXPECT_EQ(got.u, solve(v, params_with(10)).u);
}

TEST(TiledSolver, StatsAccountRedundantWork) {
  const Matrix<float> v = random_v(64, 64, 5);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 28;
  opt.merge_iterations = 4;
  opt.num_threads = 1;
  TiledSolverStats stats;
  (void)solve_tiled(v, params_with(16), opt, &stats);
  EXPECT_EQ(stats.passes, 4);
  EXPECT_GT(stats.tiles_per_pass, 1u);
  EXPECT_EQ(stats.useful_element_iterations, 64u * 64u * 16u);
  EXPECT_GT(stats.element_iterations, stats.useful_element_iterations);
  EXPECT_GT(stats.overhead(), 0.0);
}

TEST(TiledSolver, SingleTileHasZeroOverhead) {
  const Matrix<float> v = random_v(32, 32, 6);
  TiledSolverOptions opt;  // default 88x92 window covers the frame
  TiledSolverStats stats;
  (void)solve_tiled(v, params_with(8), opt, &stats);
  EXPECT_EQ(stats.tiles_per_pass, 1u);
  EXPECT_DOUBLE_EQ(stats.overhead(), 0.0);
}

TEST(TiledSolver, SmallerMergeDepthMeansMorePassesLessOverhead) {
  const Matrix<float> v = random_v(96, 96, 7);
  TiledSolverOptions opt;
  opt.tile_rows = 32;
  opt.tile_cols = 32;
  opt.num_threads = 1;

  TiledSolverStats s2, s8;
  opt.merge_iterations = 2;
  (void)solve_tiled(v, params_with(16), opt, &s2);
  opt.merge_iterations = 8;
  (void)solve_tiled(v, params_with(16), opt, &s8);

  EXPECT_GT(s2.passes, s8.passes);
  EXPECT_LT(s2.overhead(), s8.overhead());
}

TEST(TiledSolver, OptionValidation) {
  TiledSolverOptions opt;
  opt.merge_iterations = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.tile_rows = 8;
  opt.merge_iterations = 4;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  EXPECT_NO_THROW(opt.validate_schedule());  // the window is not read there
  opt = {};
  opt.num_threads = -2;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(TiledSolver, ThreadCountDoesNotChangeResult) {
  const Matrix<float> v = random_v(80, 60, 10);
  TiledSolverOptions opt;
  opt.tile_rows = 24;
  opt.tile_cols = 24;
  opt.merge_iterations = 3;

  opt.num_threads = 1;
  const ChambolleResult a = solve_tiled(v, params_with(12), opt);
  opt.num_threads = 8;
  const ChambolleResult b = solve_tiled(v, params_with(12), opt);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.p.px, b.p.px);
}

}  // namespace
}  // namespace chambolle
