// hw_accelerator — drives the cycle-level FPGA simulator on one Chambolle
// solve, checks it against the software fixed-point solver, and prints the
// per-frame cycle budget, memory traffic and the projected frame rate at the
// paper's 221 MHz clock, together with the resource footprint (Table I).
//
// Usage: hw_accelerator [frame_size] [iterations]   (defaults: 128 50;
// frame_size 8..1024, iterations 1..10000)
#include <cstdio>
#include <iostream>
#include <optional>

#include "chambolle/fixed_solver.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/text_table.hpp"
#include "hw/accelerator.hpp"
#include "hw/datasheet.hpp"
#include "hw/resource_model.hpp"
#include "hw/schedule.hpp"

int main(int argc, char** argv) {
  using namespace chambolle;
  // 1024 is Table II's largest frame side.
  const std::optional<int> size_arg =
      argc > 1 ? parse_int(argv[1], 8, 1024) : 128;
  const std::optional<int> iterations_arg =
      argc > 2 ? parse_int(argv[2], 1, 10000) : 50;
  if (!size_arg || !iterations_arg) {
    std::fprintf(stderr,
                 "usage: hw_accelerator [frame_size 8..1024] "
                 "[iterations 1..10000]\n");
    return 2;
  }
  const int n = *size_arg;
  const int iterations = *iterations_arg;

  Rng rng(7);
  FlowField v(n, n);
  v.u1 = random_image(rng, n, n, -2.f, 2.f);
  v.u2 = random_image(rng, n, n, -2.f, 2.f);

  ChambolleParams params;
  params.iterations = iterations;

  const hw::ArchConfig cfg;  // the paper's configuration
  hw::ChambolleAccelerator accel(cfg);
  const auto result = accel.solve(v, params);

  // Cross-check against the plain software fixed-point solver.
  const ChambolleResult ref = solve_fixed(v.u1, params);
  const bool exact = result.u.u1 == ref.u;

  std::printf("Chambolle accelerator simulation (%dx%d, %d iterations)\n", n,
              n, iterations);
  std::printf("  architecture     : %d sliding windows, %d PE lanes, tile %dx%d, merge %d\n",
              cfg.num_sliding_windows, cfg.pe_lanes, cfg.tile_rows,
              cfg.tile_cols, cfg.merge_iterations);
  std::printf("  matches software fixed-point solver: %s\n",
              exact ? "bit-exact" : "MISMATCH — BUG");
  std::printf("  passes x tiles   : %d x %zu  (redundancy %.1f%%)\n",
              result.stats.passes, result.stats.tiles_per_pass,
              100.0 * result.stats.tiling_redundancy);
  std::printf("  total cycles     : %llu\n",
              static_cast<unsigned long long>(result.stats.total_cycles));
  std::printf("  BRAM word reads  : %llu   writes: %llu\n",
              static_cast<unsigned long long>(result.stats.bram_word_reads),
              static_cast<unsigned long long>(result.stats.bram_word_writes));
  std::printf("  frame time       : %.3f ms @ %.0f MHz  ->  %.1f fps\n",
              1e3 * result.stats.seconds(cfg.clock_mhz), cfg.clock_mhz,
              result.fps);

  const hw::ResourceReport area = hw::estimate_resources(cfg);
  const hw::Virtex5Spec device;
  TextTable table({"Module", "Inst", "FF", "LUT", "BRAM", "DSP"});
  for (const auto& m : area.modules)
    table.add_row({m.name, std::to_string(m.instances),
                   std::to_string(m.instances * m.flipflops_each),
                   std::to_string(m.instances * m.luts_each),
                   std::to_string(m.instances * m.brams_each),
                   std::to_string(m.instances * m.dsps_each)});
  table.add_row({"TOTAL", "", std::to_string(area.flipflops),
                 std::to_string(area.luts), std::to_string(area.brams),
                 std::to_string(area.dsps)});
  std::printf("\nResource footprint on the XC5VLX110T (%.0f%% FF, %.0f%% LUT, "
              "%.0f%% BRAM, %.1f%% DSP):\n",
              area.flipflop_pct(device), area.lut_pct(device),
              area.bram_pct(device), area.dsp_pct(device));
  std::cout << table.to_string();

  std::printf("\nLadder schedule, first 40 cycles of an interior region "
              "(R read, W write, B both ports — dual-port BRAMs):\n");
  std::cout << hw::render_timeline(hw::schedule_region(cfg, 7, 7, 40), 40);

  std::printf("\n%s", hw::make_datasheet(cfg).to_string().c_str());

  return exact ? 0 : 1;
}
