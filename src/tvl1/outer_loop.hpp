// outer_loop.hpp — the coarse-to-fine TV-L1 outer loop shared by every flow
// pipeline (compute_flow / FlowSession, compute_flow_accelerated, run_video).
//
// The pipelines differ only in how they solve the inner Chambolle problem
// for a support field v; the loop around it — pyramid levels, flow
// upsampling, per-level source gradients, the fused warp -> threshold sweep,
// median filtering — is this one definition.  Every stage of it runs on the
// pipeline's pool (pool_for) with the pipeline's lane count, row-chunked
// (parallel::parallel_rows), so a coarse level that fits one chunk stays
// inline.  Trace spans: tvl1.level, tvl1.warp, tvl1.warp_gradients (the
// per-level gradients and the sweep), tvl1.median_filter; the inner solve
// traces itself.
#pragma once

#include <algorithm>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/median_filter.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/sweep.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::tvl1 {

/// Pool the pipeline's parallel regions run on.  The tiled options carry the
/// injection point (TiledSolverOptions::pool) because the inner solves are
/// where most of the parallel time goes; the outer-loop stages ride on the
/// same pool so a serving engine slot never touches the shared default pool.
[[nodiscard]] parallel::ThreadPool& pool_for(const Tvl1Params& params);

/// The normalized pyramids of a frame pair, built concurrently on `pool`.
[[nodiscard]] std::pair<Pyramid, Pyramid> build_pyramids(
    const Image& i0, const Image& i1, int levels, parallel::ThreadPool& pool);

/// Runs the outer loop over the pyramids' common levels and returns the
/// finest-level flow.  Per warp, inner_solve(v, level, warp, u) must replace
/// u (same shape) with the inner solve's primal for the support field v.
template <typename InnerSolve>
[[nodiscard]] FlowField coarse_to_fine(const Pyramid& p0, const Pyramid& p1,
                                       const Tvl1Params& params,
                                       InnerSolve&& inner_solve) {
  parallel::ThreadPool& pool = pool_for(params);
  const int lanes = pool.lanes_for(params.tiled.num_threads);
  const int levels = std::min(p0.levels(), p1.levels());
  // Per-level storage, reshaped when the level changes: the flow, its
  // support field and I1's source gradients.
  FlowField u, v, coarse;
  Gradients grad;
  for (int level = levels - 1; level >= 0; --level) {
    const telemetry::TraceSpan level_span("tvl1.level");
    const Image& l0 = p0.level(level);
    const Image& l1 = p1.level(level);
    if (level == levels - 1) {
      u = FlowField(l0.rows(), l0.cols());
    } else {
      std::swap(coarse, u);
      upsample_flow_into(coarse, l0.rows(), l0.cols(), u, pool, lanes);
    }
    {
      const telemetry::TraceSpan span("tvl1.warp_gradients");
      gradients_into(l1, grad, pool, lanes);
    }
    for (int w = 0; w < params.warps; ++w) {
      const telemetry::TraceSpan warp_span("tvl1.warp");
      {
        const telemetry::TraceSpan span("tvl1.warp_gradients");
        warp_threshold_into(l0, l1, grad, u, params.lambda,
                            params.chambolle.theta, v, pool, lanes);
      }
      inner_solve(std::as_const(v), level, w, u);
      if (params.median_filtering) {
        const telemetry::TraceSpan span("tvl1.median_filter");
        u = median_filter_flow(u);
      }
    }
  }
  return u;
}

}  // namespace chambolle::tvl1
