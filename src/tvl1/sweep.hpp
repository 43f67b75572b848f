// sweep.hpp — the fused warp -> threshold sweep of the TV-L1 outer loop.
//
// Per warp, TV-L1 warps I1 by the current flow u, samples I1's gradients at
// the warped positions, and thresholds the linearized residual into the
// support field v (warp.hpp, threshold.hpp).  Run as separate whole-frame
// stages that is three bilinear samplings per pixel through a dozen
// full-frame temporaries, serially.  The sweep does the same arithmetic in
// one pass: per pixel it computes the bilinear taps once, samples I1 and
// both source gradients with them, and thresholds straight into v.  Rows are
// independent, so the pass runs row-chunked on a pool, in chunks of at
// least parallel::kComputeChunkCells (4096) cells.
//
// Each chunk runs one of two row kernels (sweep_rows.hpp): 16-lane AVX-512F
// rows when the kernel layer dispatches to avx512, the scalar rows
// otherwise; both write the same bits.  A cell costs 4-6 ns on the AVX-512
// rows and 13-33 ns on the scalar ones (one lane; a 316 x 252 frame about
// 0.4 against 2.5 ms, EXPERIMENTS.md E19).
//
// At the threshold step the current estimate u IS the linearization point
// u0 (the loop re-linearizes every warp), so the residual's u - u0 term is
// exactly zero and the sweep needs no u0 copy.  The result is bit-identical
// to threshold_step(warp_with_gradients(i1, u)) with u0 == u.
#pragma once

#include "common/image.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::parallel {
class ThreadPool;
}  // namespace chambolle::parallel

namespace chambolle::tvl1 {

/// v = threshold(warp(i1, u), u) with the linearization at u.  `i1_grad` is
/// gradients(i1) — per pyramid level, not per warp.  `v` is resized only on
/// a shape change, so with `v` shaped the sweep allocates nothing.  Rows are
/// chunked over `lanes` lanes of `pool` (parallel_rows); a frame that fits
/// one chunk runs inline.  Throws std::invalid_argument on shape mismatch or
/// a non-positive lambda/theta.
void warp_threshold_into(const Image& i0, const Image& i1,
                         const Gradients& i1_grad, const FlowField& u,
                         float lambda, float theta, FlowField& v,
                         parallel::ThreadPool& pool, int lanes);

}  // namespace chambolle::tvl1
