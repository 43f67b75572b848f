// flow_cli — file-based command-line tool: computes TV-L1 optical flow
// between two PGM images and writes a Middlebury-color PPM visualization
// (plus optionally the warped/compensated frame).  The tool a downstream
// user would actually run on their own data.
//
// Usage:
//   flow_cli [<frame0.pgm> <frame1.pgm> <flow_out.ppm>]
//            [--levels N] [--warps N] [--iters N] [--lambda X]
//            [--solver ref|tiled|resident|fixed|accel] [--threads N]
//            [--tile RxC] [--merge K] [--median]
//            [--kernel auto|scalar|sse2|neon|avx2|avx512|fixed-simd|fixed-scalar]
//            [--warp warped.pgm] [--trace trace.json] [--metrics metrics.json]
//            [--metrics-prom metrics.prom] [--profile profile.json]
//            [--flight-dump flight.json] [--no-flight]
//
// --threads N sizes the process-wide worker pool (and the tiled solver's
// team); 0 or omitted uses the hardware concurrency.
//
// --tile RxC sets the sliding window of the `tiled` solver (default: the
// paper's 88x92; dims must exceed 2*K).  The `resident` solver plans its own
// tiling — balanced full-width strips, about one per lane — and ignores it.
// --merge K sets the merge depth of both (default 4).
//
// --kernel pins the SIMD iteration-kernel backend (default: best the CPU
// supports, also overridable with CHAMBOLLE_KERNEL); every backend produces
// bit-identical output, so this is a measurement knob, not a quality one.
// The fixed-simd/fixed-scalar values pin the FIXED-POINT kernel instead
// (used by --solver fixed; also overridable with CHAMBOLLE_FIXED_KERNEL),
// which is likewise bit-identical across backends.  See docs/kernels.md.
//
// With no positional arguments, runs a self-demo on generated frames (an
// optional bare argument names the output directory, default /tmp).  The
// demo uses the `accel` solver so one run exercises the whole stack, from
// the TV-L1 pipeline down to the cycle-level FPGA simulator.
//
// --trace enables telemetry and writes a Chrome trace-event JSON (open in
// chrome://tracing or https://ui.perfetto.dev); --metrics writes the metric
// registry snapshot; --metrics-prom writes the same registry in the
// Prometheus text format; --profile brackets the flow computation in a
// profiling session and writes the per-lane utilization report (its text
// table also prints to stdout).  The crash flight recorder is always on:
// --flight-dump writes its timeline on success too (and names the crash
// dump file), --no-flight disables it.  See docs/observability.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/flow_color.hpp"
#include "common/image_io.hpp"
#include "common/parse.hpp"
#include "common/stopwatch.hpp"
#include "hw/accelerator.hpp"
#include "kernels/kernel.hpp"
#include "kernels/kernel_fixed_simd.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/accel_backend.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace chambolle;

int usage() {
  std::fprintf(
      stderr,
      "usage: flow_cli [<frame0.pgm> <frame1.pgm> <flow_out.ppm>]\n"
      "               [--levels N] [--warps N] [--iters N] [--lambda X]\n"
      "               [--solver ref|tiled|resident|fixed|accel] [--threads N]\n"
      "               [--tile RxC (tiled solver only)] [--merge K]\n"
      "               [--median] [--kernel auto|scalar|sse2|neon|avx2|avx512|\n"
      "                           fixed-simd|fixed-scalar]\n"
      "               [--warp out.pgm] [--trace trace.json]\n"
      "               [--metrics metrics.json] [--metrics-prom out.prom]\n"
      "               [--profile profile.json] [--flight-dump flight.json]\n"
      "               [--no-flight]\n"
      "With no positional arguments a self-demo runs on generated frames.\n");
  return 2;
}

// Flag-value parsers: reject garbage and out-of-range values with a concrete
// message instead of the old atoi behavior of silently computing with 0.
bool flag_int(const char* flag, const char* value, int min, int max,
              int& out) {
  if (const auto v = parse_int(value, min, max)) {
    out = *v;
    return true;
  }
  std::fprintf(stderr, "flow_cli: %s expects an integer in [%d, %d], got '%s'\n",
               flag, min, max, value);
  return false;
}

bool flag_float(const char* flag, const char* value, float min, float max,
                float& out) {
  if (const auto v = parse_float(value, min, max)) {
    out = *v;
    return true;
  }
  std::fprintf(stderr, "flow_cli: %s expects a number in [%g, %g], got '%s'\n",
               flag, static_cast<double>(min), static_cast<double>(max), value);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in0, in1, out_flow, out_warp, out_trace, out_metrics;
  std::string out_prom, out_profile, out_flight;
  bool no_flight = false;
  std::vector<std::string> positional;
  tvl1::Tvl1Params params;
  params.pyramid_levels = 4;
  params.warps = 5;
  params.chambolle.iterations = 50;
  bool use_accel = false;
  bool solver_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--levels") {
      const char* n = next();
      if (!n) return usage();
      if (!flag_int("--levels", n, 1, 16, params.pyramid_levels)) return 2;
    } else if (arg == "--warps") {
      const char* n = next();
      if (!n) return usage();
      if (!flag_int("--warps", n, 1, 1000, params.warps)) return 2;
    } else if (arg == "--iters") {
      const char* n = next();
      if (!n) return usage();
      if (!flag_int("--iters", n, 1, 1000000, params.chambolle.iterations))
        return 2;
    } else if (arg == "--lambda") {
      const char* n = next();
      if (!n) return usage();
      if (!flag_float("--lambda", n, 1e-6f, 1e6f, params.lambda)) return 2;
    } else if (arg == "--solver") {
      const char* n = next();
      if (!n) return usage();
      solver_given = true;
      if (std::strcmp(n, "ref") == 0)
        params.solver = tvl1::InnerSolver::kReference;
      else if (std::strcmp(n, "tiled") == 0)
        params.solver = tvl1::InnerSolver::kTiled;
      else if (std::strcmp(n, "resident") == 0)
        params.solver = tvl1::InnerSolver::kResident;
      else if (std::strcmp(n, "fixed") == 0)
        params.solver = tvl1::InnerSolver::kFixed;
      else if (std::strcmp(n, "accel") == 0)
        use_accel = true;
      else
        return usage();
    } else if (arg == "--tile") {
      const char* n = next();
      if (!n) return usage();
      // "RxC" split by hand so each half goes through the checked parser
      // (sscanf would accept "8x9garbage").
      const char* x = std::strchr(n, 'x');
      if (!x) {
        std::fprintf(stderr, "flow_cli: --tile expects RxC, got '%s'\n", n);
        return 2;
      }
      const std::string rows_str(n, x);
      if (!flag_int("--tile rows", rows_str.c_str(), 1, 1 << 15,
                    params.tiled.tile_rows) ||
          !flag_int("--tile cols", x + 1, 1, 1 << 15, params.tiled.tile_cols))
        return 2;
    } else if (arg == "--merge") {
      const char* n = next();
      if (!n) return usage();
      if (!flag_int("--merge", n, 1, 1 << 12, params.tiled.merge_iterations))
        return 2;
    } else if (arg == "--threads") {
      const char* n = next();
      if (!n) return usage();
      int threads = 0;
      if (!flag_int("--threads", n, 0, 1024, threads)) return 2;
      // Sizes the process-wide resident pool; the tiled solver inherits the
      // width through its num_threads = 0 (auto) default.
      parallel::set_default_pool_threads(threads);
    } else if (arg == "--kernel") {
      const char* n = next();
      if (!n) return usage();
      try {
        if (std::strcmp(n, "auto") == 0) {
          kernels::reset_backend();
          kernels::fixed::reset_backend();
        } else if (std::strcmp(n, "fixed-simd") == 0) {
          kernels::fixed::force_backend(kernels::fixed::Backend::kSimd);
        } else if (std::strcmp(n, "fixed-scalar") == 0) {
          kernels::fixed::force_backend(kernels::fixed::Backend::kScalar);
        } else {
          // Hard-rejects unknown or unavailable names with the list of
          // compiled-in backends.
          kernels::force_backend(std::string_view(n));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "flow_cli: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--median") {
      params.median_filtering = true;
    } else if (arg == "--warp") {
      const char* n = next();
      if (!n) return usage();
      out_warp = n;
    } else if (arg == "--trace") {
      const char* n = next();
      if (!n) return usage();
      out_trace = n;
    } else if (arg == "--metrics") {
      const char* n = next();
      if (!n) return usage();
      out_metrics = n;
    } else if (arg == "--metrics-prom") {
      const char* n = next();
      if (!n) return usage();
      out_prom = n;
    } else if (arg == "--profile") {
      const char* n = next();
      if (!n) return usage();
      out_profile = n;
    } else if (arg == "--flight-dump") {
      const char* n = next();
      if (!n) return usage();
      out_flight = n;
    } else if (arg == "--no-flight") {
      no_flight = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.size() <= 1) {
    // Self-demo: synthesize a frame pair and run on it; an optional single
    // positional names the output directory.
    const std::string dir = positional.size() == 1 ? positional[0] : "/tmp";
    std::printf("flow_cli: running the built-in demo (outputs in %s)\n",
                dir.c_str());
    if (!solver_given) use_accel = true;  // demo exercises the full stack
    const auto wl = workloads::translating_scene(96, 96, 2.f, -1.f);
    io::write_pgm(dir + "/flow_cli_f0.pgm", wl.frame0);
    io::write_pgm(dir + "/flow_cli_f1.pgm", wl.frame1);
    in0 = dir + "/flow_cli_f0.pgm";
    in1 = dir + "/flow_cli_f1.pgm";
    out_flow = dir + "/flow_cli_flow.ppm";
  } else if (positional.size() == 3) {
    in0 = positional[0];
    in1 = positional[1];
    out_flow = positional[2];
  } else {
    return usage();
  }

  // Asking for an observability artifact is the opt-in.
  if (!out_trace.empty() || !out_metrics.empty() || !out_prom.empty())
    telemetry::set_enabled(true);
  if (no_flight)
    telemetry::set_flight_recorder_enabled(false);
  else
    telemetry::install_crash_handler(out_flight.empty() ? nullptr
                                                        : out_flight.c_str());

  try {
    const Image f0 = io::read_pgm(in0);
    const Image f1 = io::read_pgm(in1);

    if (!out_profile.empty())
      telemetry::Profiler::instance().begin(
          parallel::default_pool().lanes_for(0));
    const Stopwatch clock;
    tvl1::Tvl1Stats stats;
    FlowField flow;
    if (use_accel) {
      hw::ChambolleAccelerator accel;
      tvl1::AccelTvl1Stats accel_stats;
      flow = tvl1::compute_flow_accelerated(f0, f1, params, accel,
                                            &accel_stats);
      stats.total_seconds = clock.seconds();
      std::printf(
          "flow_cli: accel backend, %d solves, %llu device cycles "
          "(%.1f ms projected at %.0f MHz)\n",
          accel_stats.solves,
          static_cast<unsigned long long>(accel_stats.device_cycles),
          1e3 * accel_stats.device_seconds(accel.config().clock_mhz),
          accel.config().clock_mhz);
    } else {
      flow = tvl1::compute_flow(f0, f1, params, &stats);
    }
    const double ms = clock.milliseconds();
    telemetry::UtilizationReport profile;
    if (!out_profile.empty()) profile = telemetry::Profiler::instance().end();

    io::write_ppm(out_flow, colorize_flow(flow));
    std::printf("flow_cli: %dx%d, %d levels, %d warps, %d inner iterations\n",
                f0.cols(), f0.rows(), params.pyramid_levels, params.warps,
                params.chambolle.iterations);
    if (use_accel)
      std::printf("  time            : %.1f ms (host wall clock)\n", ms);
    else
      std::printf("  time            : %.1f ms (%.0f%% in Chambolle)\n", ms,
                  100.0 * stats.chambolle_fraction());
    if (!use_accel && params.solver != tvl1::InnerSolver::kFixed)
      std::printf("  kernel backend  : %s\n",
                  kernels::backend_name(kernels::active_backend()));
    else if (!use_accel)
      std::printf("  kernel backend  : fixed-%s\n",
                  kernels::fixed::backend_name(
                      kernels::fixed::active_backend()));
    std::printf("  max |flow|      : %.2f px\n", max_flow_magnitude(flow));
    std::printf("  wrote           : %s\n", out_flow.c_str());

    if (!out_warp.empty()) {
      io::write_pgm(out_warp, tvl1::warp(f1, flow));
      std::printf("  wrote           : %s (frame1 warped onto frame0)\n",
                  out_warp.c_str());
    }
    if (!out_trace.empty()) {
      if (telemetry::write_chrome_trace(out_trace))
        std::printf("  wrote           : %s (Chrome trace, %zu spans)\n",
                    out_trace.c_str(), telemetry::trace_event_count());
      else
        std::fprintf(stderr, "flow_cli: failed to write %s\n",
                     out_trace.c_str());
    }
    if (!out_metrics.empty()) {
      if (telemetry::registry().write_json(out_metrics))
        std::printf("  wrote           : %s (metrics snapshot)\n",
                    out_metrics.c_str());
      else
        std::fprintf(stderr, "flow_cli: failed to write %s\n",
                     out_metrics.c_str());
    }
    if (!out_prom.empty()) {
      if (telemetry::write_prometheus(out_prom))
        std::printf("  wrote           : %s (Prometheus exposition)\n",
                    out_prom.c_str());
      else
        std::fprintf(stderr, "flow_cli: failed to write %s\n",
                     out_prom.c_str());
    }
    if (!out_profile.empty()) {
      std::fputs(profile.to_table().c_str(), stdout);
      if (telemetry::write_text_file(out_profile, profile.to_json()))
        std::printf("  wrote           : %s (utilization report)\n",
                    out_profile.c_str());
      else
        std::fprintf(stderr, "flow_cli: failed to write %s\n",
                     out_profile.c_str());
    }
    if (!out_flight.empty() && !no_flight) {
      if (telemetry::write_flight_record(out_flight))
        std::printf("  wrote           : %s (flight record, %zu events)\n",
                    out_flight.c_str(), telemetry::flight_event_count());
      else
        std::fprintf(stderr, "flow_cli: failed to write %s\n",
                     out_flight.c_str());
    }
  } catch (const std::exception& e) {
    telemetry::Profiler::instance().cancel();
    std::fprintf(stderr, "flow_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
