// generators.hpp — seeded random-case generation for the differential oracle.
//
// Every randomized test in the repository used to roll its own geometry and
// parameter distributions (tiled_fuzz_test, hw_fuzz_test); this module is
// the single generator they were absorbed into.  One uint64 seed determines
// an entire OracleCase — frame geometry, input field, Chambolle parameters,
// tile/merge/thread configuration, warm-start duals and the accelerator
// architecture — so any failure the oracle prints reproduces from its seed
// alone, on any machine.
#pragma once

#include <cstdint>
#include <string>

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/image.hpp"
#include "hw/device.hpp"

namespace chambolle::oracle {

/// Bounds of the case distribution.  The defaults keep a single case cheap
/// enough that hundreds run inside one ctest invocation (and under TSan).
struct CaseLimits {
  int min_rows = 5;
  int max_rows = 64;
  int min_cols = 5;
  int max_cols = 64;
  int min_iterations = 1;
  int max_iterations = 8;
  /// Merge depth K; tile dims are drawn from (2K, 2K + tile_span].
  int max_merge = 5;
  int tile_span = 40;
  int max_threads = 4;
  /// Input range; kept inside the fixed-point Q5.8 span so the quantized
  /// engines stay comparable.
  float v_lo = -3.f;
  float v_hi = 3.f;
  /// Draw a random warm-start dual state for ~1/4 of the cases.
  bool allow_warm_start = true;
  /// Draw non-default (theta, tau) on the stability bound for ~1/2 of the
  /// cases.  Non-default parameters disable the quantized engines, whose
  /// error bound is calibrated for the default parameter point.
  bool allow_param_variation = true;
};

/// One fully-determined differential-test case.
struct OracleCase {
  std::uint64_t seed = 0;
  Matrix<float> v;   ///< the component every engine solves
  Matrix<float> v2;  ///< second component, for the two-array accelerator
  ChambolleParams params;
  TiledSolverOptions tiled;  ///< geometry + threads for tiled/resident
  bool warm_start = false;   ///< duals start from `initial` instead of zeros
  DualField initial;
  bool default_params = true;  ///< quantized engines apply only when true
  hw::ArchConfig arch;         ///< accelerator architecture for this case

  /// One-line human-readable description (the failure reproducer's header).
  [[nodiscard]] std::string describe() const;
};

/// Expands a seed into a case.  Deterministic: equal (seed, limits) yield
/// equal cases on every platform (std::mt19937_64 plus our own bounded-draw
/// helpers; no libstdc++-specific distributions).
[[nodiscard]] OracleCase make_case(std::uint64_t seed,
                                   const CaseLimits& limits = {});

}  // namespace chambolle::oracle
