#include "tvl1/tvl1.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "common/stopwatch.hpp"
#include "common/validation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/outer_loop.hpp"
#include "tvl1/pyramid.hpp"

namespace chambolle::tvl1 {
namespace {

// The coarse-to-fine loop shared by compute_flow and FlowSession; kResident
// solves take their engines from `engines`.  The caller owns `total_clock`,
// so compute_flow's stats cover its pyramid builds and FlowSession's cover
// only the flow (its pyramid is built before the clock starts).
FlowField flow_from_pyramids(const Pyramid& p0, const Pyramid& p1,
                             const Tvl1Params& params, EngineCache& engines,
                             Tvl1Stats* stats, Stopwatch& total_clock) {
  const int levels = std::min(p0.levels(), p1.levels());
  double chambolle_seconds = 0.0;
  long long inner_iters = 0;

  // Reused across every warp of every level: the reference inner solver's
  // dual state and primal output land in these buffers, so the steady state
  // of the pyramid loop stops allocating fresh frames per warp.
  ChambolleResult inner_scratch;
  FlowField u = coarse_to_fine(
      p0, p1, params, [&](const FlowField& v, FlowField& flow) {
        total_clock.lap();  // the outer-loop stages are not inner time
        {
          const telemetry::TraceSpan span("tvl1.chambolle_inner");
          if (params.solver == InnerSolver::kResident) {
            // u1 and u2 are two fields of one engine, so one solve advances
            // both and a lane blocked on one component's neighbor runs the
            // other's tiles.  `engines` keeps one engine per level shape, so
            // a warp only streams v in from cold duals and u out.
            const Matrix<float>* const fields[] = {&v.u1, &v.u2};
            Matrix<float>* const out[] = {&flow.u1, &flow.u2};
            engines.engine(v.rows(), v.cols(), 2).solve(fields, {}, out);
          } else {
            // Each swap hands the result out and keeps the previous output
            // buffer (same shape at this level) as the next solve's
            // recover_u_into destination.
            solve_into(v.u1, params.chambolle, inner_scratch);
            std::swap(flow.u1, inner_scratch.u);
            solve_into(v.u2, params.chambolle, inner_scratch);
            std::swap(flow.u2, inner_scratch.u);
          }
        }
        inner_iters += 2LL * params.chambolle.iterations;
        chambolle_seconds += total_clock.lap();
      });

  if (stats != nullptr) {
    stats->total_seconds = total_clock.seconds();
    stats->chambolle_seconds = chambolle_seconds;
    stats->chambolle_inner_iterations = inner_iters;
    stats->levels_processed = levels;
  }
  static telemetry::Counter& c_flows =
      telemetry::registry().counter("tvl1.flows");
  static telemetry::Counter& c_warps =
      telemetry::registry().counter("tvl1.warps");
  static telemetry::Counter& c_levels =
      telemetry::registry().counter("tvl1.levels");
  c_flows.add(1);
  c_warps.add(static_cast<std::uint64_t>(levels) *
              static_cast<std::uint64_t>(params.warps));
  c_levels.add(static_cast<std::uint64_t>(levels));
  return u;
}

}  // namespace

void Tvl1Params::validate() const {
  // NaN passes every <= comparison; screen it explicitly (see
  // ChambolleParams::validate).
  if (!std::isfinite(lambda))
    throw std::invalid_argument("Tvl1Params: non-finite lambda");
  if (lambda <= 0.f) throw std::invalid_argument("Tvl1Params: lambda <= 0");
  if (pyramid_levels < 1)
    throw std::invalid_argument("Tvl1Params: pyramid_levels < 1");
  if (warps < 1) throw std::invalid_argument("Tvl1Params: warps < 1");
  chambolle.validate();
  if (solver == InnerSolver::kResident) tiled.validate_schedule();
}

FlowField compute_flow(const Image& i0, const Image& i1,
                       const Tvl1Params& params, Tvl1Stats* stats) {
  params.validate();
  if (!i0.same_shape(i1))
    throw std::invalid_argument("compute_flow: frame shape mismatch");
  if (i0.rows() < 2 || i0.cols() < 2)
    throw std::invalid_argument("compute_flow: frames must be at least 2x2");
  require_finite(i0, "compute_flow: frame0");
  require_finite(i1, "compute_flow: frame1");

  const telemetry::TraceSpan flow_span("tvl1.compute_flow");
  // One stopwatch with lap() replaces the former per-warp throwaway
  // stopwatches; phase boundaries come from lap-to-lap deltas.
  Stopwatch total_clock;

  // The two pyramids are independent; build them concurrently on the
  // session's pool (frame-rate service work, not worth a spawn).
  const auto [p0, p1] =
      build_pyramids(i0, i1, params.pyramid_levels, pool_for(params));
  EngineCache engines(params.chambolle, params.tiled);
  return flow_from_pyramids(p0, p1, params, engines, stats, total_clock);
}

FlowSession::FlowSession(const Tvl1Params& params)
    : params_(params), engines_(params.chambolle, params.tiled) {
  params_.validate();
}

std::optional<FlowField> FlowSession::push_frame(const Image& frame,
                                                Tvl1Stats* stats,
                                                EngineCache* engines) {
  if (frame.rows() < 2 || frame.cols() < 2)
    throw std::invalid_argument("FlowSession: frames must be at least 2x2");
  require_finite(frame, "FlowSession: frame");
  if (prev_.has_value() && !frame.same_shape(prev_->level(0)))
    throw std::invalid_argument(
        "FlowSession: frame shape changed mid-session (reset() first)");

  Pyramid pyr = [&] {
    const telemetry::TraceSpan span("tvl1.pyramid");
    return Pyramid(normalize_frame(frame), params_.pyramid_levels);
  }();
  if (!prev_.has_value()) {
    prev_.emplace(std::move(pyr));
    frames_ = 1;
    if (stats != nullptr) *stats = Tvl1Stats{};
    return std::nullopt;
  }
  EngineCache& cache = engines != nullptr ? *engines : engines_;
  Tvl1Params params = params_;
  params.tiled.pool = cache.options().pool;  // the outer loop's pool too
  const telemetry::TraceSpan flow_span("tvl1.compute_flow");
  Stopwatch total_clock;
  FlowField flow =
      flow_from_pyramids(*prev_, pyr, params, cache, stats, total_clock);
  prev_.emplace(std::move(pyr));
  ++frames_;
  return flow;
}

void FlowSession::reset() {
  prev_.reset();
  frames_ = 0;
}

}  // namespace chambolle::tvl1
