#include "tvl1/accel_backend.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/outer_loop.hpp"

namespace chambolle::tvl1 {

FlowField compute_flow_accelerated(const Image& i0, const Image& i1,
                                   const Tvl1Params& params,
                                   hw::ChambolleAccelerator& accelerator,
                                   AccelTvl1Stats* stats) {
  params.validate();
  if (!i0.same_shape(i1))
    throw std::invalid_argument("compute_flow_accelerated: shape mismatch");
  if (i0.rows() < 2 || i0.cols() < 2)
    throw std::invalid_argument("compute_flow_accelerated: frames >= 2x2");

  const telemetry::TraceSpan flow_span("tvl1.compute_flow_accelerated");
  std::uint64_t device_cycles = 0;
  int solves = 0;

  const auto [p0, p1] =
      build_pyramids(i0, i1, params.pyramid_levels, pool_for(params));
  FlowField u = coarse_to_fine(
      p0, p1, params, [&](const FlowField& v, int, int, FlowField& flow) {
        auto result = [&] {
          const telemetry::TraceSpan span("tvl1.chambolle_inner");
          return accelerator.solve(v, params.chambolle);
        }();
        flow = std::move(result.u);
        device_cycles += result.stats.total_cycles;
        ++solves;
      });

  if (stats != nullptr) {
    stats->device_cycles = device_cycles;
    stats->solves = solves;
  }
  // hw.* per-solve counters are recorded inside ChambolleAccelerator::solve;
  // here we only account the pipeline-level aggregate.
  static telemetry::Counter& c_flows =
      telemetry::registry().counter("tvl1.accel.flows");
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tvl1.accel.solves");
  static telemetry::Counter& c_cycles =
      telemetry::registry().counter("tvl1.accel.device_cycles");
  c_flows.add(1);
  c_solves.add(static_cast<std::uint64_t>(solves));
  c_cycles.add(device_cycles);
  return u;
}

}  // namespace chambolle::tvl1
