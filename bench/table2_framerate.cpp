// table2_framerate — regenerates Table II: "Comparison w.r.t. state-of-the-
// art implementations" (experiments E2 + E8).
//
// Three kinds of rows:
//   * published GPU baselines, transcribed from [13]/[14] exactly as the
//     paper itself did;
//   * the proposed FPGA approach: OUR measured value comes from the
//     cycle-accurate simulator of the architecture (221 MHz Virtex-5 clock),
//     printed next to the paper's reported number;
//   * a live CPU software baseline measured on this host.
//
// The asserted reproduction target is the SHAPE of the comparison (FPGA
// beats every GPU baseline by an order of magnitude at 512x512 and scales to
// 1024x768); see EXPERIMENTS.md for the absolute-number discussion.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "baseline/cpu_baseline.hpp"
#include "baseline/published.hpp"
#include "common/stopwatch.hpp"
#include "common/text_table.hpp"
#include "hw/accelerator.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace chambolle;

  // Populate the BENCH_*.json metrics snapshot unless the env explicitly
  // opts out (this is a table printer, not a precision microbenchmark).
  if (std::getenv("CHAMBOLLE_TELEMETRY") == nullptr)
    telemetry::set_enabled(true);
  const Stopwatch wall;
  hw::ChambolleAccelerator accel{hw::ArchConfig{}};

  std::printf("TABLE II — COMPARISON W.R.T. STATE-OF-THE-ART IMPLEMENTATIONS\n\n");
  TextTable table({"Ref.", "Device", "Iterations", "Resolution",
                   "Frame Rate (fps)"});
  for (const auto& r : baseline::published_baselines()) {
    std::string fps = TextTable::num(r.fps, 1);
    if (!r.note.empty()) fps += "  (" + r.note + ")";
    table.add_row({r.reference, r.device, std::to_string(r.iterations),
                   std::to_string(r.width) + "x" + std::to_string(r.height),
                   fps});
  }

  // Our accelerator rows (the paper's two configurations).
  struct OurRow {
    int width, height, iterations;
    double paper_fps;
  };
  const OurRow ours[] = {{512, 512, 200, 99.1}, {1024, 768, 200, 38.1}};
  double our_fps_512 = 0.0;
  double our_pyr_512 = 0.0, our_pyr_768p = 0.0;
  for (const OurRow& r : ours) {
    const double fps = accel.estimate_fps(r.height, r.width, r.iterations);
    const double pyr =
        accel.estimate_pyramid_fps(r.height, r.width, r.iterations);
    if (r.width == 512) {
      our_fps_512 = fps;
      our_pyr_512 = pyr;
    } else {
      our_pyr_768p = pyr;
    }
    table.add_row({"this", "Virtex-5 sim (measured cycles)",
                   std::to_string(r.iterations),
                   std::to_string(r.width) + "x" + std::to_string(r.height),
                   TextTable::num(fps, 1) + " flat / " + TextTable::num(pyr, 1) +
                       " pyramid  (paper reports " +
                       TextTable::num(r.paper_fps, 1) + ")"});
  }

  // Live software baseline on this host (scaled-down measurement: the
  // per-pixel-iteration cost is measured at 256x256 and extrapolated).
  const auto cpu = baseline::measure_scalar_chambolle(256, 256, 50, 2);
  const double cpu_fps_512 =
      cpu.fps * (256.0 * 256.0 * 50.0) / (512.0 * 512.0 * 200.0);
  table.add_row({"this", "CPU scalar (this host, extrapolated)", "200",
                 "512x512", TextTable::num(cpu_fps_512, 2)});
  std::cout << table.to_string();

  // Speedup arithmetic (E8).  "flat" counts 200 full-resolution iterations;
  // "pyramid" spreads the 200-iteration budget across a 4-level TV-L1
  // pyramid, the scheme the GPU baselines actually run — the interpretation
  // under which the paper's absolute figures are reachable (EXPERIMENTS.md).
  const auto rows512 = baseline::baselines_for(512, 512, 0);
  const auto range = baseline::fps_range(rows512);
  std::printf("\nSpeedup at 512x512 vs published GPUs:\n");
  std::printf("  flat-iteration count   : %.1fx - %.1fx\n",
              our_fps_512 / range.max_fps, our_fps_512 / range.min_fps);
  std::printf("  pyramid-distributed    : %.1fx - %.1fx\n",
              our_pyr_512 / range.max_fps, our_pyr_512 / range.min_fps);
  std::printf("Paper reports 16.5x - 76x using its 99.1 fps figure "
              "(99.1/6 = 16.5, 99.1/1.3 = 76.2).\n");
  std::printf("Speedup vs this host's scalar CPU implementation: %.0fx flat\n",
              our_fps_512 / cpu_fps_512);

  // Shape assertions: who wins, and by how much.
  bool shape_holds = true;
  for (const auto& r : rows512)
    if (our_fps_512 <= r.fps) shape_holds = false;
  std::printf("\nShape check — FPGA beats every published 512x512 baseline "
              "even with flat counting: %s\n",
              shape_holds ? "yes" : "NO");
  std::printf("Shape check — order-of-magnitude speedup vs slowest baseline: %s "
              "(%.1fx flat, %.1fx pyramid)\n",
              our_fps_512 / range.min_fps >= 10.0 ? "yes" : "NO",
              our_fps_512 / range.min_fps, our_pyr_512 / range.min_fps);
  std::printf("Shape check — real-time-class rate at 1024x768 (paper: 38.1): "
              "%s (%.1f fps pyramid, %.1f fps flat)\n",
              our_pyr_768p > 24.0 ? "yes" : "NO", our_pyr_768p,
              accel.estimate_fps(768, 1024, 200));

  // Live CPU thread-scaling section (the paper's software point of
  // comparison ran on a multithreaded x86): the tiled solver on the Table-2
  // software frame (316x252, 50 iterations, merge 5) on the resident worker
  // pool.  The fps per thread count is the perf trajectory the BENCH json
  // tracks.
  std::printf("\nCPU tiled solver thread scaling (316x252, 50 iterations):\n");
  TextTable scaling({"Threads", "ms/frame", "fps"});
  telemetry::BenchParams scaling_params;
  for (const int threads : {1, 2, 4, 8}) {
    TiledSolverOptions opt;
    opt.merge_iterations = 5;
    opt.num_threads = threads;
    const auto pooled = baseline::measure_tiled_chambolle(252, 316, 50, opt, 3);
    scaling.add_row({std::to_string(threads),
                     TextTable::num(1e3 * pooled.seconds_per_frame, 2),
                     TextTable::num(pooled.fps, 1)});
    scaling_params.emplace_back("cpu_tiled_pool_fps_" + std::to_string(threads) +
                                    "t",
                                TextTable::num(pooled.fps, 2));
  }
  std::cout << scaling.to_string();
  std::printf("pool lifetime: %llu tasks, %llu threads created\n",
              static_cast<unsigned long long>(
                  parallel::default_pool().tasks()),
              static_cast<unsigned long long>(
                  parallel::default_pool().threads_created()));

  telemetry::BenchParams report{
      {"iterations", "200"},
      {"resolutions", "512x512,1024x768"},
      {"fps_512_flat", TextTable::num(our_fps_512, 2)},
      {"fps_512_pyramid", TextTable::num(our_pyr_512, 2)},
      {"fps_768p_pyramid", TextTable::num(our_pyr_768p, 2)},
      {"cpu_fps_512_extrapolated", TextTable::num(cpu_fps_512, 3)},
      {"cpu_scaling_frame", "316x252"},
      {"shape_holds", shape_holds ? "yes" : "no"}};
  report.insert(report.end(), scaling_params.begin(), scaling_params.end());
  telemetry::write_bench_report("table2_framerate", report,
                                wall.milliseconds());
  return shape_holds ? 0 : 1;
}
