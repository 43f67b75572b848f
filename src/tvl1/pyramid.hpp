// pyramid.hpp — multi-scale image pyramid for the TV-L1 coarse-to-fine scheme.
//
// TV-L1 (Zach et al. 2007, ref [13] of the paper) linearizes the brightness
// constancy residual, which is only valid for small displacements; a
// coarse-to-fine pyramid extends it to large motions.  Levels are built by
// low-pass (2x2 box within a 2x subsample) reduction; flow fields are
// upsampled bilinearly with magnitudes doubled between levels.
#pragma once

#include <vector>

#include "common/image.hpp"

namespace chambolle::parallel {
class ThreadPool;
}  // namespace chambolle::parallel

namespace chambolle::tvl1 {

/// Scales [0, 255] intensities to [0, 1], the range every flow pipeline's
/// pyramid is built in.  Takes the frame by value: pass an rvalue to scale
/// in place.
[[nodiscard]] Image normalize_frame(Image frame);

/// Downsamples by 2 with 2x2 box averaging (odd trailing row/col handled by
/// clamping).  Result dims are ceil(dims/2).
[[nodiscard]] Image downsample2(const Image& img);

/// Bilinear upsampling to an exact target size.
[[nodiscard]] Image upsample_to(const Image& img, int rows, int cols);

/// Upsamples a flow field to the target size and scales vectors by the
/// resolution ratio (x2 for a standard pyramid step).
[[nodiscard]] FlowField upsample_flow(const FlowField& flow, int rows,
                                      int cols);

/// upsample_flow() into `out` (resized only on a shape change; must not
/// alias `flow`), both prolongations and the rescale fused in one
/// row-chunked pass over `lanes` lanes of `pool`.  Bit-identical to
/// upsample_flow().
void upsample_flow_into(const FlowField& flow, int rows, int cols,
                        FlowField& out, parallel::ThreadPool& pool, int lanes);

/// Image pyramid; level 0 is the finest (original) resolution.
class Pyramid {
 public:
  /// Builds at most `max_levels` levels, stopping early when either dimension
  /// would fall below `min_dim`.  The base becomes level 0: pass an rvalue
  /// to move it in instead of copying it.
  Pyramid(Image base, int max_levels, int min_dim = 16);

  [[nodiscard]] int levels() const { return static_cast<int>(levels_.size()); }
  [[nodiscard]] const Image& level(int i) const { return levels_.at(static_cast<std::size_t>(i)); }

 private:
  std::vector<Image> levels_;
};

}  // namespace chambolle::tvl1
