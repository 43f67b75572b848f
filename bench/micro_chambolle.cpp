// micro_chambolle — google-benchmark microbenchmarks of the solver backends
// (experiment E9): sequential float reference, tiled parallel solver at
// several merge depths and thread counts, the persistent-pool engine
// scaling, and the fixed-point datapath model.
// Throughput is reported in pixel-iterations/second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "chambolle/chambolle_pock.hpp"
#include "chambolle/fixed_solver.hpp"
#include "chambolle/merged.hpp"
#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "kernels/kernel.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

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

// Direct stopwatch measurements for the BENCH json (the perf trajectories
// CI tracks), independent of google-benchmark's own output.  Each figure is
// a median-of-N with min/max alongside, so a noisy run is visible as spread
// instead of silently biasing a single number.
constexpr int kTrajectoryRepeats = 7;

template <typename SolveFn>
telemetry::RepeatStats repeat_ms_of(const SolveFn& fn, int repeats) {
  Stopwatch clock;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    clock.lap();
    fn();
    samples.push_back(1e3 * clock.lap());
  }
  return telemetry::repeat_stats(std::move(samples));
}

telemetry::RepeatStats measure_tiled_engine(int threads) {
  const Matrix<float> v = bench_field2(kTable2Rows, kTable2Cols);
  const ChambolleParams params = bench_params(20);
  TiledSolverOptions opt;
  // Merge depth 1 = halo exchange every iteration, the paper's per-iteration
  // sliding-window sync regime: one pool region per pass.
  opt.merge_iterations = 1;
  opt.num_threads = threads;
  (void)solve_tiled(v, params, opt);  // warm up the resident workers
  return repeat_ms_of([&] { (void)solve_tiled(v, params, opt); },
                      kTrajectoryRepeats);
}

// Kernel trajectory for the BENCH json: seed two-pass vs fused kernel per
// backend, single thread on the Table-2 frame — the perf number the kernel
// layer is accountable for.
struct KernelTrajectory {
  telemetry::RepeatStats seed_ms;
  std::vector<std::pair<std::string, telemetry::RepeatStats>> backend_ms;
};

KernelTrajectory measure_kernel_backends() {
  const Matrix<float> v = bench_field2(kTable2Rows, kTable2Cols);
  const ChambolleParams params = bench_params(1);
  constexpr int kIters = 20;
  KernelTrajectory out;
  {
    Matrix<float> px(kTable2Rows, kTable2Cols), py(kTable2Rows, kTable2Cols),
        term;
    out.seed_ms = repeat_ms_of(
        [&] {
          for (int i = 0; i < kIters; ++i)
            seed_iterate_full(px, py, v, params, term);
        },
        kTrajectoryRepeats);
  }
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::force_backend(b);
    Matrix<float> px(kTable2Rows, kTable2Cols), py(kTable2Rows, kTable2Cols),
        scratch;
    const RegionGeometry geom =
        RegionGeometry::full_frame(kTable2Rows, kTable2Cols);
    const telemetry::RepeatStats ms = repeat_ms_of(
        [&] { iterate_region(px, py, v, geom, params, kIters, scratch); },
        kTrajectoryRepeats);
    out.backend_ms.emplace_back(kernels::backend_name(b), ms);
  }
  kernels::reset_backend();
  return out;
}

// Resident-tile engine vs the reload-per-pass tiled solver on the paper's
// 1024 x 768 frame (the acceptance figure of the halo-exchange engine).
// `one_shot` includes engine construction per solve; `steady` reuses the
// engine across solves (the TV-L1 warp regime, only duals re-zeroed).
struct ResidentComparison {
  telemetry::RepeatStats reload_ms;
  telemetry::RepeatStats one_shot_ms;
  telemetry::RepeatStats steady_ms;
  ResidentTiledStats stats;  // of the last one-shot solve
  [[nodiscard]] double speedup() const {
    return one_shot_ms.median > 0.0 ? reload_ms.median / one_shot_ms.median
                                    : 0.0;
  }
  [[nodiscard]] double steady_speedup() const {
    return steady_ms.median > 0.0 ? reload_ms.median / steady_ms.median : 0.0;
  }
};

ResidentComparison measure_resident_vs_reload(int threads) {
  constexpr int kRows = 768, kCols = 1024;
  const Matrix<float> v = bench_field2(kRows, kCols);
  const ChambolleParams params = bench_params(20);
  // solve_tiled on the paper's 88 x 92 window, the resident engine on its
  // own plan; merge depth 4 for both.
  TiledSolverOptions opt;
  opt.num_threads = threads;
  ResidentComparison out;
  (void)solve_tiled(v, params, opt);  // warm up pool + page in the frame
  out.reload_ms = repeat_ms_of([&] { (void)solve_tiled(v, params, opt); },
                               kTrajectoryRepeats);
  out.one_shot_ms = repeat_ms_of(
      [&] { (void)solve_resident(v, params, opt, &out.stats); },
      kTrajectoryRepeats);
  ResidentTiledEngine engine(v, params, opt);
  engine.run(params.iterations);  // warm the resident buffers
  out.steady_ms = repeat_ms_of(
      [&] {
        engine.reset_duals();
        engine.run(params.iterations);
      },
      kTrajectoryRepeats);
  return out;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): identical run semantics, plus a
// machine-readable BENCH_micro_chambolle.json artifact after the run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_backend_benchmarks();
  const chambolle::Stopwatch clock;
  benchmark::RunSpecifiedBenchmarks();

  // Engine trajectory: the pooled engines on the Table-2 frame at 8 threads.
  const auto fmt = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", x);
    return std::string(buf);
  };
  const chambolle::telemetry::RepeatStats tiled_ms = measure_tiled_engine(8);
  std::printf(
      "\nengine trajectory (316x252, 20 iterations, 8 threads, median of "
      "%d):\n"
      "  tiled        : %.3f ms\n",
      kTrajectoryRepeats, tiled_ms.median);
  const auto& pool = chambolle::parallel::default_pool();
  std::printf("  pool lifetime: %llu tasks, %llu threads created\n",
              static_cast<unsigned long long>(pool.tasks()),
              static_cast<unsigned long long>(pool.threads_created()));

  // Kernel trajectory: seed two-pass vs fused kernel, per backend.
  const KernelTrajectory kt = measure_kernel_backends();
  std::printf(
      "\nkernel trajectory (316x252, 20 iterations, 1 thread, median of "
      "%d):\n"
      "  seed two-pass : %.3f ms\n",
      kTrajectoryRepeats, kt.seed_ms.median);
  for (const auto& [name, ms] : kt.backend_ms)
    std::printf("  %-13s : %.3f ms -> %.2fx vs seed\n", name.c_str(),
                ms.median, kt.seed_ms.median / ms.median);

  // Resident-vs-reload trajectory (the halo-exchange acceptance figure).
  // Telemetry goes on here so the report's metrics snapshot carries the
  // tiles.* counters (halo bytes, passes, stall time) of these solves.
  chambolle::telemetry::set_enabled(true);
  const ResidentComparison res = measure_resident_vs_reload(4);
  std::printf(
      "\nresident trajectory (1024x768, 20 iterations, 4 threads, median of "
      "%d):\n"
      "  reload tiled   : %.3f ms\n"
      "  resident       : %.3f ms -> %.2fx\n"
      "  resident steady: %.3f ms -> %.2fx (engine reused, TV-L1 regime)\n"
      "  halo traffic   : %zu floats/pass vs %zu floats/pass reloaded\n",
      kTrajectoryRepeats, res.reload_ms.median, res.one_shot_ms.median,
      res.speedup(), res.steady_ms.median, res.steady_speedup(),
      res.stats.halo_elements_per_pass,
      static_cast<std::size_t>(4) * 768 * 1024);

  // Lane utilization of one profiled resident solve — the measurement the
  // profiler exists for: how much of each lane's wall time the epoch-graph
  // schedule converts into kernel work on this machine.
  namespace tel = chambolle::telemetry;
  tel::UtilizationReport profile;
  {
    constexpr int kProfRows = 768, kProfCols = 1024, kProfThreads = 4;
    const chambolle::Matrix<float> v = bench_field2(kProfRows, kProfCols);
    const chambolle::ChambolleParams params = bench_params(20);
    chambolle::TiledSolverOptions opt;
    opt.num_threads = kProfThreads;
    tel::Profiler::instance().begin(kProfThreads);
    (void)chambolle::solve_resident(v, params, opt);
    profile = tel::Profiler::instance().end();
  }
  std::printf("\nresident lane utilization (1024x768, 4 threads, profiled):\n");
  std::fputs(profile.to_table().c_str(), stdout);

  chambolle::telemetry::BenchParams report{
      {"suite", "google-benchmark"},
      {"benchmarks",
       "scalar/tiled/resident/engine-scaling/merge-depth/fixed/"
       "chambolle-pock/merged-kernel/single-iteration/kernel-backends"},
      {"engine_frame", "316x252"},
      {"engine_threads", "8"},
      {"trajectory_repeats", std::to_string(kTrajectoryRepeats)},
      {"tiled_pool_ms", fmt(tiled_ms.median)},
      {"pool_threads_created", std::to_string(pool.threads_created())},
      {"kernel_backend_auto",
       chambolle::kernels::backend_name(chambolle::kernels::active_backend())},
      {"kernel_seed_ms", fmt(kt.seed_ms.median)}};
  chambolle::telemetry::append_repeat_stats(report, "tiled_pool_ms",
                                            tiled_ms);
  chambolle::telemetry::append_repeat_stats(report, "kernel_seed_ms",
                                            kt.seed_ms);
  for (const auto& [name, ms] : kt.backend_ms) {
    report.emplace_back("kernel_" + name + "_ms", fmt(ms.median));
    report.emplace_back("kernel_" + name + "_speedup_vs_seed",
                        fmt(kt.seed_ms.median / ms.median));
    chambolle::telemetry::append_repeat_stats(report, "kernel_" + name + "_ms",
                                              ms);
  }
  // The resident-engine acceptance block: 1024 x 768, 4 threads, paper
  // window.  halo_fraction_of_reload = per-pass mailbox floats over the
  // reload engine's ~4 floats/cell frame round-trip.
  report.emplace_back("resident_frame", "1024x768");
  report.emplace_back("resident_threads", "4");
  chambolle::telemetry::append_repeat_stats(report, "resident_reload_ms",
                                            res.reload_ms);
  chambolle::telemetry::append_repeat_stats(report, "resident_ms",
                                            res.one_shot_ms);
  chambolle::telemetry::append_repeat_stats(report, "resident_steady_ms",
                                            res.steady_ms);
  report.emplace_back("resident_speedup_vs_reload", fmt(res.speedup()));
  report.emplace_back("resident_steady_speedup_vs_reload",
                      fmt(res.steady_speedup()));
  report.emplace_back("resident_halo_floats_per_pass",
                      std::to_string(res.stats.halo_elements_per_pass));
  report.emplace_back(
      "resident_halo_fraction_of_reload",
      fmt(static_cast<double>(res.stats.halo_elements_per_pass) /
          (4.0 * 768.0 * 1024.0)));
  report.emplace_back("resident_busy_fraction", fmt(profile.busy_fraction()));
  report.emplace_back("resident_imbalance_ratio",
                      fmt(profile.imbalance_ratio()));
  report.emplace_back(
      "resident_epoch_wait_seconds",
      fmt(profile.total_seconds(tel::LaneCause::kEpochWait)));
  report.emplace_back("resident_mailbox_seconds",
                      fmt(profile.total_seconds(tel::LaneCause::kMailbox)));

  const double wall_ms = clock.milliseconds();
  benchmark::Shutdown();
  chambolle::telemetry::write_bench_report("micro_chambolle", report, wall_ms);
  return 0;
}
