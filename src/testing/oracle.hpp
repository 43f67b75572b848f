// oracle.hpp — the cross-engine differential-testing oracle.
//
// The repository has four ways to run one Chambolle iteration stream —
// sequential reference, reload-tiled, resident-tiled, and the per-backend
// SIMD kernels — plus the quantized fixed-point solver and the cycle-level
// accelerator simulator.  The first four claim BIT-EXACT
// equality; the quantized pair claims a format-bounded tolerance against
// the float reference and bit-exactness against each other.  run_oracle()
// executes one OracleCase through every engine that applies and enforces
// exactly that comparison policy, producing a report whose failure_report()
// is a compact, copy-pasteable reproducer (seed + geometry + rerun line).
//
// This is the correctness backstop future engines plug into: add a lambda
// to the engine table in oracle.cpp and every seeded sweep, sanitizer job
// and fuzz run covers it.
#pragma once

#include <string>
#include <vector>

#include "testing/generators.hpp"

namespace chambolle::oracle {

/// Selects which engine families a run covers.  The sanitizer smoke runs
/// keep everything on; single-purpose callers can narrow.
struct OracleOptions {
  bool include_parallel = true;     ///< reload-tiled / resident
  bool include_backends = true;     ///< one reference solve per SIMD backend
  bool include_fixedpoint = true;   ///< fixed-point solver + accelerator
};

/// Outcome of one engine on one case.
struct EngineOutcome {
  std::string engine;
  bool exact_required = true;  ///< memcmp policy; false => tolerance policy
  bool pass = false;
  double max_diff_u = 0.0;
  double max_diff_px = 0.0;
  double max_diff_py = 0.0;
  std::string detail;  ///< what differed, set on failure
};

/// Aggregate result of one case across all engines.
struct OracleReport {
  std::uint64_t seed = 0;
  std::string case_line;  ///< OracleCase::describe() of the case
  std::vector<EngineOutcome> engines;

  [[nodiscard]] bool pass() const;
  /// Multi-line failure reproducer: the case line, one line per failing
  /// engine, and the environment-variable rerun recipe.  Empty when pass().
  [[nodiscard]] std::string failure_report() const;
};

/// Max |difference| the quantized engines (Q*.8 fixed point, LUT sqrt) may
/// accumulate against the float reference over the generator's iteration
/// and input ranges; calibrated against the fixed-solver accuracy tests.
inline constexpr double kFixedPointTolerance = 0.25;

/// Runs every applicable engine on the case and compares against the
/// sequential reference.  Engines are executed one after another in the
/// calling thread (each may use its own worker team internally).
[[nodiscard]] OracleReport run_oracle(const OracleCase& c,
                                      const OracleOptions& options = {});

}  // namespace chambolle::oracle
