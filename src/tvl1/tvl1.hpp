// tvl1.hpp — the complete TV-L1 optical-flow pipeline (Zach et al. 2007),
// the numerical scheme whose inner Chambolle solver the paper accelerates.
//
// Structure: coarse-to-fine pyramid; per level, several warping iterations;
// per warp, a thresholding step producing the support field v followed by a
// Chambolle solve producing u from v (Section II-A).  The inner solver is
// pluggable: the sequential float reference, the tiled parallel solver
// (Section III), or the bit-accurate fixed-point model of the hardware.
#pragma once

#include <optional>

#include "chambolle/engine_cache.hpp"
#include "chambolle/params.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/image.hpp"
#include "tvl1/pyramid.hpp"

namespace chambolle::tvl1 {

enum class InnerSolver {
  kReference,  ///< sequential full-frame float solver
  kTiled,      ///< loop-decomposition + sliding-window parallel solver
  kResident,   ///< resident-tile engine with halo exchange (no reloads)
  kFixed,      ///< bit-accurate fixed-point model of the FPGA datapath
};

struct Tvl1Params {
  /// Data-term weight (images are normalized to [0,1] internally, so this is
  /// in the customary range of the literature).
  float lambda = 25.f;
  /// Pyramid depth; 1 disables coarse-to-fine.
  int pyramid_levels = 4;
  /// Warping (outer) iterations per pyramid level.
  int warps = 5;
  /// Inner Chambolle configuration (theta, tau, iterations per warp).
  ChambolleParams chambolle{0.25f, 0.0625f, 30};
  InnerSolver solver = InnerSolver::kReference;
  /// Tiled-solver options, used when solver == kTiled or kResident.
  TiledSolverOptions tiled{};
  /// Median-filter the flow between warps (Wedel et al. 2009 refinement;
  /// false reproduces the paper's pipeline).
  bool median_filtering = false;

  void validate() const;
};

/// Phase timing of one compute_flow call; reproduces the paper's profiling
/// observation that ~90% of TV-L1 time is spent inside Chambolle.
struct Tvl1Stats {
  double total_seconds = 0.0;
  double chambolle_seconds = 0.0;
  long long chambolle_inner_iterations = 0;  ///< summed over warps & levels
  int levels_processed = 0;

  [[nodiscard]] double chambolle_fraction() const {
    return total_seconds > 0.0 ? chambolle_seconds / total_seconds : 0.0;
  }
};

/// Estimates the optical flow from i0 to i1.  Images must share a shape with
/// at least 2x2 pixels; intensities are interpreted on [0, 255].
[[nodiscard]] FlowField compute_flow(const Image& i0, const Image& i1,
                                     const Tvl1Params& params,
                                     Tvl1Stats* stats = nullptr);

/// Pyramid-reusing form: identical numerics to compute_flow(i0, i1, ...)
/// when the pyramids were built from the NORMALIZED frames (intensities
/// divided by 255, as compute_flow does internally) with
/// params.pyramid_levels levels.  This is the streaming hot path: in a
/// video session every interior frame is frame1 of one pair and frame0 of
/// the next, so caching its pyramid halves the per-pair pyramid work —
/// FlowSession below does exactly that.
[[nodiscard]] FlowField compute_flow(const Pyramid& p0, const Pyramid& p1,
                                     const Tvl1Params& params,
                                     Tvl1Stats* stats = nullptr);

/// Per-stream flow state for a video session: feeds frames one at a time
/// and keeps the previous frame's pyramid cached across calls, so the
/// steady state builds one pyramid per frame instead of two per pair.
/// kResident solves take their per-level engines from an EngineCache, so
/// after the first flow a frame builds none.  This is the per-session
/// object the serving layer (src/serving/) checks out onto fleet slots.
class FlowSession {
 public:
  /// Validates and captures the parameters for the whole stream.
  explicit FlowSession(const Tvl1Params& params);

  /// Feeds the next frame.  The first frame primes the session (builds and
  /// caches its pyramid) and returns nullopt; every later frame returns the
  /// flow from the previous frame to this one.  Frames must keep one shape
  /// for the session's lifetime.  Bit-identical to running
  /// compute_flow(prev, frame, params) on each consecutive pair.  Solves
  /// on `engines` and its pool when given (a serving slot's cache, built
  /// from this session's chambolle and tiled parameters), else on the
  /// session's own cache.
  std::optional<FlowField> push_frame(const Image& frame,
                                      Tvl1Stats* stats = nullptr,
                                      EngineCache* engines = nullptr);

  /// Frames accepted so far (flows produced = max(0, frames() - 1)).
  [[nodiscard]] int frames() const { return frames_; }

  /// Drops the cached pyramid: the next frame primes a fresh stream (scene
  /// cut / seek).  Parameters are kept.
  void reset();

  [[nodiscard]] const Tvl1Params& params() const { return params_; }
  [[nodiscard]] const EngineCache& own_engines() const { return engines_; }

 private:
  Tvl1Params params_;
  EngineCache engines_;
  std::optional<Pyramid> prev_;  ///< previous frame's normalized pyramid
  int frames_ = 0;
};

}  // namespace chambolle::tvl1
