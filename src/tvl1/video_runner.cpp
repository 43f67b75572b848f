#include "tvl1/video_runner.hpp"

#include <stdexcept>
#include <utility>

#include "common/validation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/outer_loop.hpp"

namespace chambolle::tvl1 {
namespace {

struct DualPair {
  FlowField u1;  ///< (px, py) of component u1
  FlowField u2;
  bool valid = false;
};

}  // namespace

void VideoRunnerOptions::validate() const {
  tvl1.validate();
  arch.validate();
}

VideoRunnerResult run_video(const std::vector<Image>& frames,
                            const VideoRunnerOptions& options) {
  options.validate();
  if (frames.size() < 2)
    throw std::invalid_argument("run_video: need at least two frames");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Image& f = frames[i];
    if (!f.same_shape(frames.front()) || f.rows() < 2 || f.cols() < 2)
      throw std::invalid_argument("run_video: inconsistent frame shapes");
    // One bad capture would otherwise propagate NaN through every later
    // warm-started pair; name the frame so the producer can be found.
    require_finite(f, "run_video: frame " + std::to_string(i));
  }

  hw::ChambolleAccelerator accel(options.arch);
  VideoRunnerResult result;
  DualPair carry;  // finest-level dual state carried across warps and frames

  for (std::size_t pair = 0; pair + 1 < frames.size(); ++pair) {
    const telemetry::TraceSpan pair_span("video.frame_pair");
    // Both pyramids of the pair build concurrently on the resident pool —
    // per-frame host work must not spawn threads at video rate.
    const auto [p0, p1] =
        build_pyramids(frames[pair], frames[pair + 1],
                       options.tvl1.pyramid_levels, pool_for(options.tvl1));
    FlowField flow = coarse_to_fine(
        p0, p1, options.tvl1,
        [&](const FlowField& v, int level, int w, FlowField& u) {
          // Warm start: the FIRST finest-level solve of a pair reuses the
          // PREVIOUS pair's final dual state (temporal coherence); within a
          // pair the semantics stay identical to the cold pipeline.
          hw::AcceleratorInitialDual init;
          if (options.warm_start && level == 0 && w == 0 && carry.valid &&
              carry.u1.rows() == v.rows() && carry.u1.cols() == v.cols()) {
            init.u1_px = &carry.u1.u1;
            init.u1_py = &carry.u1.u2;
            init.u2_px = &carry.u2.u1;
            init.u2_py = &carry.u2.u2;
          }
          auto solved = [&] {
            const telemetry::TraceSpan span("tvl1.chambolle_inner");
            return accel.solve(v, options.tvl1.chambolle, init);
          }();
          u = std::move(solved.u);
          result.device_cycles += solved.stats.total_cycles;
          ++result.solves;

          if (level == 0 && w == options.tvl1.warps - 1) {
            carry.u1 = std::move(solved.dual_u1);
            carry.u2 = std::move(solved.dual_u2);
            carry.valid = true;
          }
        });
    result.flows.push_back(std::move(flow));
  }
  static telemetry::Counter& c_pairs =
      telemetry::registry().counter("video.frame_pairs");
  c_pairs.add(result.flows.size());
  return result;
}

}  // namespace chambolle::tvl1
