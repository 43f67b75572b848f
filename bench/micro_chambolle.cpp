// micro_chambolle — google-benchmark microbenchmarks of the solver backends
// (experiment E9): sequential float reference, tiled parallel solver at
// several merge depths and thread counts, the persistent-pool engine
// scaling, and the fixed-point datapath model.
// Throughput is reported in pixel-iterations/second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "chambolle/chambolle_pock.hpp"
#include "chambolle/fixed_solver.hpp"
#include "chambolle/merged.hpp"
#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/rng.hpp"
#include "kernels/kernel.hpp"

namespace {

using namespace chambolle;

// The paper's Table-2 software-comparison frame (316 x 252, i.e. width x
// height), used by the engine-scaling sections below.
constexpr int kTable2Rows = 252;
constexpr int kTable2Cols = 316;

Matrix<float> bench_field2(int rows, int cols) {
  Rng rng(static_cast<std::uint64_t>(rows) * 1000 + cols);
  return random_image(rng, rows, cols, -2.f, 2.f);
}

Matrix<float> bench_field(int n) {
  Rng rng(static_cast<std::uint64_t>(n));
  return random_image(rng, n, n, -2.f, 2.f);
}

ChambolleParams bench_params(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

void set_throughput(benchmark::State& state, int n, int iterations) {
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * iterations);
}

void BM_ScalarSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(10);
  for (auto _ : state) benchmark::DoNotOptimize(solve(v, params).u.data());
  set_throughput(state, n, 10);
}
BENCHMARK(BM_ScalarSolver)->Arg(64)->Arg(128)->Arg(256);

void BM_TiledSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(16);
  TiledSolverOptions opt;
  opt.merge_iterations = 4;
  opt.num_threads = threads;
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_tiled(v, params, opt).u.data());
  set_throughput(state, n, 16);
}
BENCHMARK(BM_TiledSolver)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 4});

void BM_ResidentSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(16);
  TiledSolverOptions opt;
  opt.merge_iterations = 4;
  opt.num_threads = threads;
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_resident(v, params, opt).u.data());
  set_throughput(state, n, 16);
}
BENCHMARK(BM_ResidentSolver)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 4});

void BM_TiledSolverMergeDepth(benchmark::State& state) {
  const int merge = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(192);
  const ChambolleParams params = bench_params(16);
  TiledSolverOptions opt;
  opt.tile_rows = 64;
  opt.tile_cols = 64;
  opt.merge_iterations = merge;
  opt.num_threads = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_tiled(v, params, opt).u.data());
  set_throughput(state, 192, 16);
}
BENCHMARK(BM_TiledSolverMergeDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Pooled engine scaling on the Table-2 frame: 20 iterations merged 5 at a
// time, so a solve is 4 passes — the many-small-passes regime where the
// resident workers pay off.
void BM_TiledEngine(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field2(kTable2Rows, kTable2Cols);
  const ChambolleParams params = bench_params(20);
  TiledSolverOptions opt;
  opt.tile_rows = 88;
  opt.tile_cols = 92;
  opt.merge_iterations = 5;
  opt.num_threads = threads;
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_tiled(v, params, opt).u.data());
  state.SetItemsProcessed(state.iterations() * kTable2Rows * kTable2Cols * 20);
}
BENCHMARK(BM_TiledEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FixedSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(10);
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_fixed(v, params).u.data());
  set_throughput(state, n, 10);
}
BENCHMARK(BM_FixedSolver)->Arg(64)->Arg(128);

void BM_ChambollePock(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  ChambollePockParams params;
  params.iterations = 10;
  for (auto _ : state)
    benchmark::DoNotOptimize(solve_chambolle_pock(v, params).u.data());
  set_throughput(state, n, 10);
}
BENCHMARK(BM_ChambollePock)->Arg(64)->Arg(128);

void BM_MergedUpdateKernel(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int n = 64;
  const Matrix<float> v = bench_field(n);
  Matrix<float> px(n, n), py(n, n);
  const ChambolleParams params = bench_params(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        merged_update(px, py, v, n / 2, n / 2, 4, 4, depth, params).px.data());
  state.SetItemsProcessed(state.iterations() * 16 * depth);
}
BENCHMARK(BM_MergedUpdateKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SingleIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(1);
  Matrix<float> px(n, n), py(n, n), scratch;
  const RegionGeometry geom = RegionGeometry::full_frame(n, n);
  for (auto _ : state) {
    iterate_region(px, py, v, geom, params, 1, scratch);
    benchmark::DoNotOptimize(px.data());
  }
  set_throughput(state, n, 1);
}
BENCHMARK(BM_SingleIteration)->Arg(128)->Arg(512);

// The seed solver's single iteration (two passes over a full Term frame,
// border branches per element), kept as an in-binary baseline so the fused
// kernel's speedup is measured directly rather than against a remembered
// number.  Full-frame geometry only, matching BM_SingleIteration.
void seed_iterate_full(Matrix<float>& px, Matrix<float>& py,
                       const Matrix<float>& v, const ChambolleParams& params,
                       Matrix<float>& term) {
  const int rows = v.rows(), cols = v.cols();
  term.resize(rows, cols);
  const float inv_theta = 1.f / params.theta;
  const float step = params.step();
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const float dx = c == 0           ? px(r, c)
                       : c == cols - 1  ? -px(r, c - 1)
                                        : px(r, c) - px(r, c - 1);
      const float dy = r == 0           ? py(r, c)
                       : r == rows - 1  ? -py(r - 1, c)
                                        : py(r, c) - py(r - 1, c);
      term(r, c) = dx + dy - v(r, c) * inv_theta;
    }
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const float t = term(r, c);
      const float term1 = c == cols - 1 ? 0.f : term(r, c + 1) - t;
      const float term2 = r == rows - 1 ? 0.f : term(r + 1, c) - t;
      const float grad = std::sqrt(term1 * term1 + term2 * term2);
      const float denom = 1.f + step * grad;
      px(r, c) = (px(r, c) + step * term1) / denom;
      py(r, c) = (py(r, c) + step * term2) / denom;
    }
}

void BM_SeedSingleIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(1);
  Matrix<float> px(n, n), py(n, n), term;
  for (auto _ : state) {
    seed_iterate_full(px, py, v, params, term);
    benchmark::DoNotOptimize(px.data());
  }
  set_throughput(state, n, 1);
}
BENCHMARK(BM_SeedSingleIteration)->Arg(128)->Arg(512);

// Single iteration with the kernel backend pinned.  Registered dynamically
// in main() for exactly the backends this machine can run.
void BM_SingleIterationBackend(benchmark::State& state,
                               kernels::Backend backend) {
  kernels::force_backend(backend);
  const int n = static_cast<int>(state.range(0));
  const Matrix<float> v = bench_field(n);
  const ChambolleParams params = bench_params(1);
  Matrix<float> px(n, n), py(n, n), scratch;
  const RegionGeometry geom = RegionGeometry::full_frame(n, n);
  for (auto _ : state) {
    iterate_region(px, py, v, geom, params, 1, scratch);
    benchmark::DoNotOptimize(px.data());
  }
  kernels::reset_backend();
  set_throughput(state, n, 1);
}

void register_backend_benchmarks() {
  for (const kernels::Backend b : kernels::available_backends()) {
    const std::string name = std::string("BM_SingleIterationBackend/") +
                             kernels::backend_name(b);
    benchmark::RegisterBenchmark(name.c_str(), BM_SingleIterationBackend, b)
        ->Arg(512);
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the per-backend kernel cases are
// registered at run time, for the backends this machine can run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_backend_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
