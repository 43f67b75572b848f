#include "chambolle/row_parallel.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernels/kernel.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {

void RowParallelOptions::validate() const {
  if (num_threads < 0)
    throw std::invalid_argument("RowParallelOptions: negative num_threads");
  if (rows_per_strip <= 0)
    throw std::invalid_argument("RowParallelOptions: rows_per_strip <= 0");
}

ChambolleResult solve_row_parallel(const Matrix<float>& v,
                                   const ChambolleParams& params,
                                   const RowParallelOptions& options,
                                   RowParallelStats* stats) {
  params.validate();
  options.validate();
  const telemetry::TraceSpan span("chambolle.solve_row_parallel");
  const int rows = v.rows(), cols = v.cols();
  const int threads = parallel::default_pool().lanes_for(options.num_threads);
  const int strips =
      std::max((rows + options.rows_per_strip - 1) / options.rows_per_strip, 1);
  const float inv_theta = 1.f / params.theta;
  const float step = params.step();

  Matrix<float> px(rows, cols), py(rows, cols), term(rows, cols);
  int barriers = 0;

  const auto strip_range = [&](int s, int& r0, int& r1) {
    r0 = s * options.rows_per_strip;
    r1 = std::min(rows, r0 + options.rows_per_strip);
  };

  // Phase 1: Terms (reads p, writes term) through the shared SIMD kernel —
  // the same row primitive as the reference solver, so the result is
  // bit-exact.  The two-phase shape (vs. the sequential engine's fused
  // sweep) is what lets strips proceed in parallel: the Term frame is the
  // materialized rendezvous state between the barriers.
  const kernels::KernelOps& kern = kernels::ops();
  const auto phase1_strip = [&](int s) {
    int r0, r1;
    strip_range(s, r0, r1);
    kernels::TermRowArgs a{};
    a.cols = cols;
    a.inv_theta = inv_theta;
    a.at_left = true;
    a.at_right = true;
    for (int r = r0; r < r1; ++r) {
      a.px = &px(r, 0);
      a.py = &py(r, 0);
      a.py_up = r > 0 ? &py(r - 1, 0) : nullptr;
      a.v = &v(r, 0);
      a.term = &term(r, 0);
      a.at_top = r == 0;
      a.at_bottom = r == rows - 1;
      kern.term_row(a);
    }
  };

  // Phase 2: dual updates (reads term, writes p).
  const auto phase2_strip = [&](int s) {
    int r0, r1;
    strip_range(s, r0, r1);
    kernels::UpdateRowArgs a{};
    a.cols = cols;
    a.step = step;
    for (int r = r0; r < r1; ++r) {
      a.px = &px(r, 0);
      a.py = &py(r, 0);
      a.term = &term(r, 0);
      a.term_down = r + 1 < rows ? &term(r + 1, 0) : nullptr;
      kern.update_row(a);
    }
  };

  const int lanes = std::min(threads, strips);
  if (lanes <= 1) {
    // Degenerate width: the strips run inline, phase after phase.
    for (int it = 0; it < params.iterations; ++it) {
      for (int s = 0; s < strips; ++s) phase1_strip(s);
      ++barriers;
      for (int s = 0; s < strips; ++s) phase2_strip(s);
      ++barriers;
    }
  } else {
    // ONE resident team lives across every iteration; the phase boundaries
    // are barrier rendezvous, never joins.  Strips are assigned round-robin
    // per lane — any fixed assignment is bit-exact because the phases are
    // Jacobi sweeps over disjoint write sets.
    parallel::default_pool().run_team(
        lanes, [&](int lane, int nlanes, parallel::Barrier& barrier) {
          for (int it = 0; it < params.iterations; ++it) {
            {
              const telemetry::ProfScope prof(telemetry::LaneCause::kKernel);
              for (int s = lane; s < strips; s += nlanes) phase1_strip(s);
            }
            barrier.arrive_and_wait();
            {
              const telemetry::ProfScope prof(telemetry::LaneCause::kKernel);
              for (int s = lane; s < strips; s += nlanes) phase2_strip(s);
            }
            barrier.arrive_and_wait();
          }
        });
    barriers = 2 * params.iterations;
  }

  if (stats != nullptr) {
    stats->barriers = barriers;
    stats->strips = static_cast<std::size_t>(strips);
  }
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("chambolle.row_parallel.solves");
  static telemetry::Counter& c_barriers =
      telemetry::registry().counter("chambolle.row_parallel.barriers");
  c_solves.add(1);
  c_barriers.add(static_cast<std::uint64_t>(barriers));

  ChambolleResult out;
  out.u = recover_u(v, px, py, RegionGeometry::full_frame(rows, cols),
                    params.theta);
  out.p.px = std::move(px);
  out.p.py = std::move(py);
  return out;
}

}  // namespace chambolle
