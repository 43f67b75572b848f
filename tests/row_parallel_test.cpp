#include "chambolle/row_parallel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace chambolle {
namespace {

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

struct RpCase {
  int rows, cols, iterations, threads, strip;
};

class RowParallelEqualsReference : public ::testing::TestWithParam<RpCase> {};

TEST_P(RowParallelEqualsReference, BitExact) {
  const RpCase& rc = GetParam();
  Rng rng(static_cast<std::uint64_t>(rc.rows * 31 + rc.cols));
  const Matrix<float> v = random_image(rng, rc.rows, rc.cols, -3.f, 3.f);
  const ChambolleParams params = params_with(rc.iterations);

  const ChambolleResult ref = solve(v, params);
  RowParallelOptions opt;
  opt.num_threads = rc.threads;
  opt.rows_per_strip = rc.strip;
  const ChambolleResult rp = solve_row_parallel(v, params, opt);

  EXPECT_EQ(rp.u, ref.u);
  EXPECT_EQ(rp.p.px, ref.p.px);
  EXPECT_EQ(rp.p.py, ref.p.py);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowParallelEqualsReference,
    ::testing::Values(RpCase{32, 32, 10, 1, 8}, RpCase{32, 32, 10, 4, 8},
                      RpCase{33, 47, 13, 3, 5}, RpCase{64, 16, 8, 2, 64},
                      RpCase{7, 7, 20, 2, 2}, RpCase{1, 40, 6, 2, 1},
                      // Single pixel; strip taller than the frame; rows not
                      // divisible by the strip height (partial last strip).
                      RpCase{1, 1, 8, 2, 1}, RpCase{16, 24, 10, 3, 64},
                      RpCase{45, 33, 9, 3, 7}));

TEST(RowParallel, ExecutionEngineDoesNotChangeResult) {
  Rng rng(77);
  const Matrix<float> v = random_image(rng, 45, 33, -3.f, 3.f);
  const ChambolleParams params = params_with(9);
  const ChambolleResult ref = solve(v, params);

  // The pooled team and the single-lane inline path are bit-identical to
  // the reference.
  RowParallelOptions opt;
  opt.rows_per_strip = 7;
  for (const int threads : {1, 3}) {
    opt.num_threads = threads;
    const ChambolleResult res = solve_row_parallel(v, params, opt);
    EXPECT_EQ(res.u, ref.u) << threads << " threads";
    EXPECT_EQ(res.p.px, ref.p.px) << threads << " threads";
    EXPECT_EQ(res.p.py, ref.p.py) << threads << " threads";
  }
}

TEST(RowParallel, BarrierAccounting) {
  Rng rng(1);
  const Matrix<float> v = random_image(rng, 40, 40, -1.f, 1.f);
  RowParallelOptions opt;
  opt.num_threads = 2;
  opt.rows_per_strip = 10;
  RowParallelStats stats;
  (void)solve_row_parallel(v, params_with(12), opt, &stats);
  EXPECT_EQ(stats.barriers, 24);  // two per iteration
  EXPECT_EQ(stats.strips, 4u);
}

TEST(RowParallel, OptionValidation) {
  RowParallelOptions opt;
  opt.num_threads = -1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.rows_per_strip = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(RowParallel, SynchronizationCountDwarfsTiledSolver) {
  // The design argument: per 200 iterations the row-parallel schedule needs
  // 400 global barriers, while the sliding-window schedule with merge depth
  // K only synchronizes 200/K times.
  const int iterations = 200, merge = 4;
  const int row_parallel_barriers = 2 * iterations;
  const int tiled_passes = iterations / merge;
  EXPECT_GT(row_parallel_barriers, 4 * tiled_passes);
}

}  // namespace
}  // namespace chambolle
