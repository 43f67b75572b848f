#include "testing/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "chambolle/fixed_solver.hpp"
#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "hw/accelerator.hpp"
#include "kernels/kernel.hpp"
#include "kernels/kernel_fixed_simd.hpp"
#include "telemetry/flight_recorder.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle::oracle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

// memcmp, not operator== — the bit-exactness claim must not be weakened by
// float comparison semantics (-0.0 == 0.0, NaN != NaN).
bool bits_equal(const Matrix<float>& a, const Matrix<float>& b) {
  if (!a.same_shape(b)) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

double diff_or_shape(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) ? max_abs_diff(a, b)
                         : std::numeric_limits<double>::infinity();
}

// Scores `got` against `want` under the engine's comparison policy and
// appends the outcome to the report.
void compare(OracleReport& report, const std::string& engine,
             const ChambolleResult& want, const ChambolleResult& got,
             bool exact, double tolerance = 0.0) {
  EngineOutcome out;
  out.engine = engine;
  out.exact_required = exact;
  out.max_diff_u = diff_or_shape(want.u, got.u);
  out.max_diff_px = diff_or_shape(want.p.px, got.p.px);
  out.max_diff_py = diff_or_shape(want.p.py, got.p.py);
  if (exact) {
    out.pass = bits_equal(want.u, got.u) && bits_equal(want.p.px, got.p.px) &&
               bits_equal(want.p.py, got.p.py);
    if (!out.pass) out.detail = "bits differ from the sequential reference";
  } else {
    out.pass = out.max_diff_u <= tolerance && out.max_diff_px <= tolerance &&
               out.max_diff_py <= tolerance;
    if (!out.pass) out.detail = "exceeds the quantization tolerance";
  }
  report.engines.push_back(std::move(out));
}

void record_failure(OracleReport& report, const std::string& engine,
                    const std::string& detail) {
  EngineOutcome out;
  out.engine = engine;
  out.pass = false;
  out.detail = detail;
  report.engines.push_back(std::move(out));
}

}  // namespace

bool OracleReport::pass() const {
  for (const EngineOutcome& e : engines)
    if (!e.pass) return false;
  return true;
}

std::string OracleReport::failure_report() const {
  if (pass()) return {};
  std::ostringstream os;
  os << "oracle: FAIL " << case_line << "\n";
  for (const EngineOutcome& e : engines) {
    if (e.pass) continue;
    os << "  engine " << e.engine << ": " << e.detail;
    if (e.max_diff_u > 0 || e.max_diff_px > 0 || e.max_diff_py > 0)
      os << " (max|du|=" << e.max_diff_u << " max|dpx|=" << e.max_diff_px
         << " max|dpy|=" << e.max_diff_py << ")";
    os << "\n";
  }
  os << "  repro: CHAMBOLLE_ORACLE_SEED=" << seed
     << " ./tests/chb_tests --gtest_filter='OracleRepro.*'"
     << " (see docs/testing.md)";
  return os.str();
}

OracleReport run_oracle(const OracleCase& c, const OracleOptions& options) {
  OracleReport report;
  report.seed = c.seed;
  report.case_line = c.describe();
  // Breadcrumb for the crash flight recorder: a postmortem dump names the
  // case that was in flight.
  telemetry::flight_mark("oracle.case", static_cast<double>(c.seed));

  const DualField* initial = c.warm_start ? &c.initial : nullptr;

  // The sequential reference under the ambient kernel backend is the truth
  // every other engine is scored against.
  const ChambolleResult ref = solve(c.v, c.params, initial);

  if (options.include_parallel) {
    // The reload-tiled engine has no warm-start entry point; it
    // participates on cold-start cases only.
    if (!c.warm_start) {
      try {
        compare(report, "tiled", ref, solve_tiled(c.v, c.params, c.tiled),
                /*exact=*/true);
      } catch (const std::exception& e) {
        record_failure(report, "tiled", std::string("threw: ") + e.what());
      }
    }
    try {
      // Strips of the case's tile rows, raised to the thinnest strip whose
      // halo the adjacent strips alone can fill.
      const int strip_rows =
          std::max(c.tiled.tile_rows, 3 * c.tiled.merge_iterations);
      compare(report, "resident", ref,
              Peer::solve_strips(c.v, strip_rows, c.params, c.tiled, nullptr,
                                 initial),
              /*exact=*/true);
    } catch (const std::exception& e) {
      record_failure(report, "resident", std::string("threw: ") + e.what());
    }
  }

  if (options.include_backends) {
    // One reference solve per available SIMD backend; every backend must
    // reproduce the ambient backend's bits.  reset_backend() afterwards
    // re-resolves the ambient choice (environment override included).
    for (const kernels::Backend b : kernels::available_backends()) {
      const std::string name =
          std::string("kernel_") + kernels::backend_name(b);
      try {
        kernels::force_backend(b);
        compare(report, name, ref, solve(c.v, c.params, initial),
                /*exact=*/true);
      } catch (const std::exception& e) {
        record_failure(report, name, std::string("threw: ") + e.what());
      }
      kernels::reset_backend();
    }
  }

  if (options.include_fixedpoint && c.default_params && !c.warm_start) {
    // Quantized engines: tolerance against the float reference, and the
    // accelerator bit-exact against the fixed-point software model (the
    // absorbed hw_fuzz_test claim), cycle-exact against the analytic model.
    ChambolleResult fixed1;
    bool have_fixed = false;
    try {
      fixed1 = solve_fixed(c.v, c.params);
      have_fixed = true;
      compare(report, "fixed", ref, fixed1, /*exact=*/false,
              kFixedPointTolerance);
    } catch (const std::exception& e) {
      record_failure(report, "fixed", std::string("threw: ") + e.what());
    }
    if (have_fixed && kernels::fixed::backend_available(
                          kernels::fixed::Backend::kSimd)) {
      // The vectorized fixed-point kernel must reproduce the scalar fixed
      // path bit for bit.  All fixed fields are small Q*.8 rationals, so the
      // dequantized floats are injective images of the raw words and
      // bits_equal is a faithful bit-equality check.
      try {
        kernels::fixed::force_backend(kernels::fixed::Backend::kScalar);
        const ChambolleResult fixed_scalar = solve_fixed(c.v, c.params);
        kernels::fixed::force_backend(kernels::fixed::Backend::kSimd);
        compare(report, "fixed_simd", fixed_scalar, solve_fixed(c.v, c.params),
                /*exact=*/true);
      } catch (const std::exception& e) {
        record_failure(report, "fixed_simd", std::string("threw: ") + e.what());
      }
      kernels::fixed::reset_backend();
    }
    if (have_fixed) {
      try {
        const ChambolleResult fixed2 = solve_fixed(c.v2, c.params);
        hw::ChambolleAccelerator accel(c.arch);
        FlowField vf;
        vf.u1 = c.v;
        vf.u2 = c.v2;
        const auto result = accel.solve(vf, c.params);
        EngineOutcome out;
        out.engine = "accel";
        out.exact_required = true;
        const bool bits = bits_equal(result.u.u1, fixed1.u) &&
                          bits_equal(result.u.u2, fixed2.u) &&
                          bits_equal(result.dual_u1.u1, fixed1.p.px) &&
                          bits_equal(result.dual_u1.u2, fixed1.p.py) &&
                          bits_equal(result.dual_u2.u1, fixed2.p.px) &&
                          bits_equal(result.dual_u2.u2, fixed2.p.py);
        const bool cycles =
            result.stats.total_cycles ==
            accel.estimate_frame_cycles(c.v.rows(), c.v.cols(),
                                        c.params.iterations);
        out.pass = bits && cycles;
        if (!bits) out.detail = "bits differ from the fixed-point solver";
        if (!cycles)
          out.detail += std::string(bits ? "" : "; ") +
                        "measured cycles differ from the analytic model";
        out.max_diff_u = diff_or_shape(result.u.u1, fixed1.u);
        report.engines.push_back(std::move(out));
      } catch (const std::exception& e) {
        record_failure(report, "accel", std::string("threw: ") + e.what());
      }
      // Functional mode short-circuits the cycle ladder through the
      // (SIMD-dispatched) fixed kernel; its bits AND its cycle count must be
      // indistinguishable from cycle mode.
      try {
        const ChambolleResult fixed2 = solve_fixed(c.v2, c.params);
        hw::ArchConfig arch_func = c.arch;
        arch_func.functional_mode = true;
        hw::ChambolleAccelerator accel(arch_func);
        FlowField vf;
        vf.u1 = c.v;
        vf.u2 = c.v2;
        const auto result = accel.solve(vf, c.params);
        EngineOutcome out;
        out.engine = "accel_functional";
        out.exact_required = true;
        const bool bits = bits_equal(result.u.u1, fixed1.u) &&
                          bits_equal(result.u.u2, fixed2.u) &&
                          bits_equal(result.dual_u1.u1, fixed1.p.px) &&
                          bits_equal(result.dual_u1.u2, fixed1.p.py) &&
                          bits_equal(result.dual_u2.u1, fixed2.p.px) &&
                          bits_equal(result.dual_u2.u2, fixed2.p.py);
        const bool cycles =
            result.stats.total_cycles ==
            accel.estimate_frame_cycles(c.v.rows(), c.v.cols(),
                                        c.params.iterations);
        out.pass = bits && cycles;
        if (!bits) out.detail = "bits differ from the fixed-point solver";
        if (!cycles)
          out.detail += std::string(bits ? "" : "; ") +
                        "functional-mode cycles differ from the analytic model";
        out.max_diff_u = diff_or_shape(result.u.u1, fixed1.u);
        report.engines.push_back(std::move(out));
      } catch (const std::exception& e) {
        record_failure(report, "accel_functional",
                       std::string("threw: ") + e.what());
      }
    }
  }

  return report;
}

}  // namespace chambolle::oracle
