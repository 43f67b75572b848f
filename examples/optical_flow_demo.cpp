// optical_flow_demo — computes TV-L1 flow on three synthetic scenes
// (translation, rotation, zoom) with each inner-solver backend (the float
// reference, the resident-tile engine and the fixed-point accelerator model),
// writes Middlebury-style flow visualizations as PPM files, and prints an
// accuracy and timing summary.
//
// Usage: optical_flow_demo [output_dir]   (default: current directory)
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flow_color.hpp"
#include "common/image_io.hpp"
#include "common/stopwatch.hpp"
#include "common/text_table.hpp"
#include "hw/accelerator.hpp"
#include "tvl1/accel_backend.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/metrics.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace chambolle;

struct Scene {
  const char* name;
  workloads::FlowWorkload wl;
};

enum class Backend { kReference, kResident, kAccelerated };

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kReference: return "reference";
    case Backend::kResident: return "resident";
    case Backend::kAccelerated: return "fixed-point accel";
  }
  return "?";
}

FlowField compute(Backend b, const workloads::FlowWorkload& wl) {
  tvl1::Tvl1Params params;
  params.pyramid_levels = 3;
  params.warps = 5;
  params.chambolle.iterations = 30;
  params.tiled.merge_iterations = 5;
  if (b == Backend::kAccelerated) {
    hw::ChambolleAccelerator accel;
    return tvl1::compute_flow_accelerated(wl.frame0, wl.frame1, params, accel);
  }
  params.solver = b == Backend::kResident ? tvl1::InnerSolver::kResident
                                          : tvl1::InnerSolver::kReference;
  return tvl1::compute_flow(wl.frame0, wl.frame1, params);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const int N = 96;

  Scene scenes[] = {
      {"translate", workloads::translating_scene(N, N, 2.5f, -1.f)},
      {"rotate", workloads::rotating_scene(N, N, 0.04f)},
      {"zoom", workloads::zooming_scene(N, N, 1.05f)},
  };

  TextTable table({"Scene", "Solver", "AEE (px)", "AAE (deg)", "Time (ms)"});

  for (const Scene& scene : scenes) {
    for (const Backend backend :
         {Backend::kReference, Backend::kResident, Backend::kAccelerated}) {
      const Stopwatch clock;
      const FlowField flow = compute(backend, scene.wl);
      const double ms = clock.milliseconds();

      table.add_row({scene.name, backend_name(backend),
                     TextTable::num(workloads::interior_endpoint_error(
                                        flow, scene.wl.ground_truth, 8),
                                    3),
                     TextTable::num(workloads::average_angular_error_deg(
                                        flow, scene.wl.ground_truth),
                                    2),
                     TextTable::num(ms, 1)});

      if (backend == Backend::kReference) {
        const std::string path = out_dir + "/flow_" + scene.name + ".ppm";
        io::write_ppm(path, colorize_flow(flow));
        std::printf("wrote %s\n", path.c_str());
      }
    }
    const std::string truth_path =
        out_dir + "/flow_" + scene.name + "_truth.ppm";
    io::write_ppm(truth_path, colorize_flow(scene.wl.ground_truth));
  }

  std::printf("\nTV-L1 optical flow across scenes and solver backends\n");
  std::cout << table.to_string();
  return 0;
}
