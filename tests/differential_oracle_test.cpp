// differential_oracle_test.cpp — the cross-engine differential oracle.
//
// Every seed becomes one randomized solve executed through all engines
// (reference, reload-tiled, resident, every SIMD backend, and
// — on default-parameter cases — the fixed-point solver and the cycle-level
// accelerator) with the comparison policy of src/testing/oracle.hpp: float
// engines must match the reference bit for bit, quantized engines within
// kFixedPointTolerance.  This suite absorbs the former tiled_fuzz_test and
// hw_fuzz_test sweeps into one generator and one failure format.
//
// Reproduce a failure locally with the line failure_report() prints:
//   CHAMBOLLE_ORACLE_SEED=<seed> ./tests/chb_tests --gtest_filter='OracleRepro.*'
#include <cstdlib>

#include <gtest/gtest.h>

#include "kernels/kernel_fixed_simd.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"

namespace chambolle {
namespace {

class DifferentialOracle : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialOracle, AllEnginesAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const oracle::OracleCase c = oracle::make_case(seed);
  const oracle::OracleReport report = oracle::run_oracle(c);
  EXPECT_TRUE(report.pass()) << report.failure_report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOracle, ::testing::Range(0, 200));

// A slice of the same sweep small enough for the TSan CI job, which runs a
// curated filter (thread interleavings matter there, not case count).
class OracleSmoke : public ::testing::TestWithParam<int> {};

TEST_P(OracleSmoke, AllEnginesAgree) {
  // Offset the seed stream so this suite exercises cases the 200-seed sweep
  // does not; under TSan each case still spins up the threaded engines.
  const auto seed = static_cast<std::uint64_t>(1000 + GetParam());
  const oracle::OracleCase c = oracle::make_case(seed);
  const oracle::OracleReport report = oracle::run_oracle(c);
  EXPECT_TRUE(report.pass()) << report.failure_report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSmoke, ::testing::Range(0, 12));

// The quantized-engine roster must include the vectorized fixed kernel and
// the accelerator's functional mode: pin a case where they apply (default
// parameters, cold start) and assert both engines ran and passed.  This is
// the explicit fixed-simd-vs-scalar-fixed oracle case — the 200-seed sweep
// exercises the same engines, but only on the seeds that happen to draw
// default parameters.
TEST(DifferentialOracleCoverage, FixedSimdAndFunctionalEnginesScored) {
  oracle::CaseLimits limits;
  limits.allow_warm_start = false;
  limits.allow_param_variation = false;
  const oracle::OracleCase c = oracle::make_case(42, limits);
  ASSERT_TRUE(c.default_params);
  ASSERT_FALSE(c.warm_start);
  const oracle::OracleReport report = oracle::run_oracle(c);
  EXPECT_TRUE(report.pass()) << report.failure_report();
  bool saw_fixed_simd = false, saw_functional = false;
  for (const oracle::EngineOutcome& e : report.engines) {
    if (e.engine == "fixed_simd") saw_fixed_simd = true;
    if (e.engine == "accel_functional") saw_functional = true;
  }
  EXPECT_TRUE(saw_functional);
  if (kernels::fixed::backend_available(kernels::fixed::Backend::kSimd))
    EXPECT_TRUE(saw_fixed_simd);
  else
    EXPECT_FALSE(saw_fixed_simd);
}

// Replays exactly one case chosen through the environment — the repro hook
// referenced by OracleReport::failure_report().  Without the variable the
// test is a no-op so it can sit in the default ctest run.
TEST(OracleRepro, EnvSeed) {
  const char* env = std::getenv("CHAMBOLLE_ORACLE_SEED");
  if (env == nullptr || *env == '\0')
    GTEST_SKIP() << "set CHAMBOLLE_ORACLE_SEED=<seed> to replay a case";
  const auto seed = std::strtoull(env, nullptr, 10);
  const oracle::OracleCase c = oracle::make_case(seed);
  SCOPED_TRACE(c.describe());
  const oracle::OracleReport report = oracle::run_oracle(c);
  EXPECT_TRUE(report.pass()) << report.failure_report();
}

}  // namespace
}  // namespace chambolle
