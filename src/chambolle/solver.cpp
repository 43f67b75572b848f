#include "chambolle/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "chambolle/energy.hpp"
#include "common/validation.hpp"
#include "kernels/kernel.hpp"
#include "telemetry/convergence.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {
namespace {

void check_shapes(const Matrix<float>& px, const Matrix<float>& py,
                  const Matrix<float>& v, const RegionGeometry& geom) {
  if (!px.same_shape(py) || !px.same_shape(v))
    throw std::invalid_argument("iterate_region: buffer shape mismatch");
  if (geom.row0 < 0 || geom.col0 < 0 ||
      geom.row0 + px.rows() > geom.frame_rows ||
      geom.col0 + px.cols() > geom.frame_cols)
    throw std::invalid_argument("iterate_region: window exceeds frame");
}

}  // namespace

void iterate_region(Matrix<float>& px, Matrix<float>& py,
                    const Matrix<float>& v, const RegionGeometry& geom,
                    const ChambolleParams& params, int iterations,
                    Matrix<float>& term_scratch) {
  params.validate();
  check_shapes(px, py, v, geom);
  // The per-element arithmetic lives in the kernel layer (fused single-pass
  // sweep, SIMD interior, scalar borders); the solver owns validation only.
  kernels::iterate_region_fused(px, py, v, geom, 1.f / params.theta,
                                params.step(), iterations, term_scratch);
}

void recover_u_into(const Matrix<float>& v, const Matrix<float>& px,
                    const Matrix<float>& py, const RegionGeometry& geom,
                    float theta, Matrix<float>& out) {
  kernels::recover_u_into(v, px, py, geom, theta, out);
}

Matrix<float> recover_u(const Matrix<float>& v, const Matrix<float>& px,
                        const Matrix<float>& py, const RegionGeometry& geom,
                        float theta) {
  Matrix<float> u;
  kernels::recover_u_into(v, px, py, geom, theta, u);
  return u;
}

namespace {

// Largest per-cell dual change between two states (both components).
double max_abs_diff(const DualField& a, const Matrix<float>& px,
                    const Matrix<float>& py) {
  double m = 0;
  for (std::size_t i = 0; i < px.size(); ++i) {
    m = std::max(m, static_cast<double>(
                        std::fabs(px.data()[i] - a.px.data()[i])));
    m = std::max(m, static_cast<double>(
                        std::fabs(py.data()[i] - a.py.data()[i])));
  }
  return m;
}

}  // namespace

void solve_into(const Matrix<float>& v, const ChambolleParams& params,
                ChambolleResult& out, const DualField* initial,
                telemetry::ConvergenceTrace* convergence) {
  params.validate();
  // A single NaN in v poisons the whole dual field within a few sweeps and
  // comes out looking like a solver bug; reject it at the door.  The O(n)
  // scan is noise next to the iterations * n solve that follows.
  require_finite(v, "chambolle::solve: v");
  const telemetry::TraceSpan span("chambolle.solve");
  telemetry::flight_mark("solve", static_cast<double>(params.iterations));
  // Validate the warm start BEFORE adopting it, and check both components:
  // a py of the wrong shape would otherwise be copied into the result and
  // read out of bounds by the iteration.
  if (initial != nullptr &&
      (!initial->px.same_shape(v) || !initial->py.same_shape(v)))
    throw std::invalid_argument("solve: initial dual shape mismatch");
  if (initial != nullptr) {
    out.p = *initial;
  } else {
    // resize() keeps the existing allocation when the shape already
    // matches, so a reused ChambolleResult allocates nothing here.
    out.p.px.resize(v.rows(), v.cols());
    out.p.py.resize(v.rows(), v.cols());
  }
  const RegionGeometry geom = RegionGeometry::full_frame(v.rows(), v.cols());
  Matrix<float> scratch;
  if (convergence == nullptr) {
    iterate_region(out.p.px, out.p.py, v, geom, params, params.iterations,
                   scratch);
  } else {
    DualField prev = out.p;
    Matrix<float> u;
    for (int it = 0; it < params.iterations; ++it) {
      iterate_region(out.p.px, out.p.py, v, geom, params, 1, scratch);
      const double delta = max_abs_diff(prev, out.p.px, out.p.py);
      recover_u_into(v, out.p.px, out.p.py, geom, params.theta, u);
      convergence->record(it + 1, delta, rof_energy(u, v, params.theta));
      prev = out.p;
    }
  }
  recover_u_into(v, out.p.px, out.p.py, geom, params.theta, out.u);

  static telemetry::Counter& solves =
      telemetry::registry().counter("chambolle.solver.solves");
  static telemetry::Counter& iterations =
      telemetry::registry().counter("chambolle.solver.iterations");
  static telemetry::Counter& pixel_iterations =
      telemetry::registry().counter("chambolle.solver.pixel_iterations");
  solves.add(1);
  iterations.add(static_cast<std::uint64_t>(params.iterations));
  pixel_iterations.add(static_cast<std::uint64_t>(params.iterations) *
                       static_cast<std::uint64_t>(v.size()));
}

ChambolleResult solve(const Matrix<float>& v, const ChambolleParams& params,
                      const DualField* initial,
                      telemetry::ConvergenceTrace* convergence) {
  ChambolleResult out;
  solve_into(v, params, out, initial, convergence);
  return out;
}

FlowField solve_flow(const FlowField& v, const ChambolleParams& params,
                     const DualField* initial_u1, const DualField* initial_u2,
                     DualField* final_u1, DualField* final_u2) {
  require_finite(v.u1, "solve_flow: v.u1");
  require_finite(v.u2, "solve_flow: v.u2");
  FlowField out;
  ChambolleResult r1 = solve(v.u1, params, initial_u1);
  ChambolleResult r2 = solve(v.u2, params, initial_u2);
  out.u1 = std::move(r1.u);
  out.u2 = std::move(r2.u);
  if (final_u1 != nullptr) *final_u1 = std::move(r1.p);
  if (final_u2 != nullptr) *final_u2 = std::move(r2.p);
  return out;
}

}  // namespace chambolle
