// accel_backend.hpp — TV-L1 with the FPGA accelerator in the loop.
//
// The paper accelerates the inner Chambolle solver and leaves the outer
// TV-L1 loop (warping, thresholding) to the host.  This module wires the
// cycle-level accelerator simulator into the TV-L1 pipeline exactly that
// way: both flow components of every warp's Chambolle solve run through the
// two-window accelerator, and the device cycles are accumulated so the run
// reports the PROJECTED ON-DEVICE TIME of the full pipeline — the number a
// system integrator would quote.
#pragma once

#include <cstdint>

#include "hw/accelerator.hpp"
#include "tvl1/tvl1.hpp"

namespace chambolle::tvl1 {

struct AccelTvl1Stats {
  /// Accelerator cycles across all levels and warps of one flow computation.
  std::uint64_t device_cycles = 0;
  /// Chambolle solves dispatched to the accelerator (levels x warps).
  int solves = 0;
  /// Projected device time for the Chambolle work at the configured clock.
  [[nodiscard]] double device_seconds(double clock_mhz) const {
    return static_cast<double>(device_cycles) / (clock_mhz * 1e6);
  }
};

/// Computes TV-L1 optical flow using a ChambolleAccelerator for every inner
/// solve.  `params.solver` is ignored (the accelerator is the solver);
/// everything else (pyramid, warps, lambda, theta, iterations) applies.
/// Frames are screened like compute_flow's (same shape, at least 2x2, every
/// pixel finite).  Bit-identical to the outer loop with solve_fixed per
/// component: the accelerator runs the same fixed-point datapath (asserted
/// by tests).
[[nodiscard]] FlowField compute_flow_accelerated(
    const Image& i0, const Image& i1, const Tvl1Params& params,
    hw::ChambolleAccelerator& accelerator, AccelTvl1Stats* stats = nullptr);

}  // namespace chambolle::tvl1
