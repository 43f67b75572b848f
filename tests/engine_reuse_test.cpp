// engine_reuse_test.cpp — the engine-reuse contract the serving fleet
// (src/serving) stands on: after reset_v()/reset_duals(), a reused
// ResidentTiledEngine must be INDISTINGUISHABLE from a freshly constructed
// one, no matter what ran on it before — fixed solves, adaptive solves
// whose retired tiles left frozen-pass markers and terminal mailbox
// states, or multilevel solves.
//
// The bug class this pins down: adaptive state (frozen_pass_ markers,
// retirement redirects, mailbox parities) leaking into the next solve.
// A retiring run's quiescent epilogue normally clears the markers, but an
// aborted run skips it, and before this fix neither load_duals() nor
// run() re-cleared them — a later gather could then redirect to a stale
// frozen halo slot.  No public API aborts a run mid-flight (kernel bodies
// don't throw), so these tests pin the whole reuse-equals-fresh invariant
// class; the explicit marker clears on reload and at every run's start
// harden the abort path, which tests/resident_fields_test.cpp drives
// through a test-only fault hook.
#include "chambolle/resident_tiled.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

// Full-state equality: primal recovery AND the resident duals.
void expect_same_state(ResidentTiledEngine& got,
                       ResidentTiledEngine& want, const char* what) {
  DualField dg, dw;
  got.snapshot(dg);
  want.snapshot(dw);
  expect_memcmp_eq(dg.px, dw.px, what);
  expect_memcmp_eq(dg.py, dw.py, what);
  expect_memcmp_eq(got.result().u, want.result().u, what);
}

ChambolleParams default_params(int iterations = 8) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

TiledSolverOptions small_tiles() {
  TiledSolverOptions o;
  o.tile_rows = 12;
  o.tile_cols = 14;
  o.merge_iterations = 3;
  o.num_threads = 3;
  return o;
}

// An adaptive policy whose huge tolerance retires every tile almost
// immediately — maximal frozen-marker / terminal-mailbox contamination.
ResidentRunPolicy retiring_adaptive() {
  ResidentRunPolicy a;
  a.tolerance = 10.f;
  a.patience = 1;
  return a;
}

// The budget of the retiring runs: 6 passes of small_tiles()' merge 3.
constexpr int kRetiringIterations = 18;

TEST(EngineReuse, FixedAfterAdaptiveMatchesFreshEngine) {
  const ChambolleParams params = default_params();
  const TiledSolverOptions opts = small_tiles();
  const Matrix<float> v1 = random_v(37, 41, 71001);
  const Matrix<float> v2 = random_v(37, 41, 71002);

  ResidentTiledEngine reused = Peer::windowed(v1, params, opts);
  const ResidentRunReport& rep =
      reused.run(kRetiringIterations, retiring_adaptive()).front();
  ASSERT_GT(rep.tiles_converged, 0u)
      << "precondition: the adaptive run must retire tiles (set frozen "
         "markers) for this test to cover the leak class";
  reused.reset_v(v2);
  reused.reset_duals();
  reused.run(params.iterations);

  ResidentTiledEngine fresh = Peer::windowed(v2, params, opts);
  fresh.run(params.iterations);
  expect_same_state(reused, fresh, "fixed solve after adaptive + reset");
}

TEST(EngineReuse, FixedAfterMultilevelMatchesFreshEngine) {
  const ChambolleParams params = default_params();
  const TiledSolverOptions opts = small_tiles();
  const Matrix<float> v1 = random_v(40, 36, 71011);
  const Matrix<float> v2 = random_v(40, 36, 71012);

  ResidentTiledEngine reused = Peer::windowed(v1, params, opts);
  ResidentRunPolicy mo = retiring_adaptive();
  mo.multilevel.period = 2;
  (void)reused.run(kRetiringIterations, mo);
  reused.reset_v(v2);
  reused.reset_duals();
  reused.run(params.iterations);

  ResidentTiledEngine fresh = Peer::windowed(v2, params, opts);
  fresh.run(params.iterations);
  expect_same_state(reused, fresh, "fixed solve after multilevel + reset");
}

TEST(EngineReuse, WarmReloadAfterAdaptiveMatchesFreshWithInitial) {
  const ChambolleParams params = default_params();
  const TiledSolverOptions opts = small_tiles();
  const Matrix<float> v1 = random_v(33, 45, 71021);
  const Matrix<float> v2 = random_v(33, 45, 71022);

  // A dual state to warm-start from: one fixed solve's snapshot.
  ResidentTiledEngine producer = Peer::windowed(v1, params, opts);
  producer.run(params.iterations);
  DualField warm;
  producer.snapshot(warm);

  ResidentTiledEngine reused = Peer::windowed(v1, params, opts);
  (void)reused.run(kRetiringIterations, retiring_adaptive());
  reused.reset_v(v2, &warm);  // dual reload clears the adaptive residue too
  reused.run(params.iterations);

  ResidentTiledEngine fresh = Peer::windowed(v2, params, opts, &warm);
  fresh.run(params.iterations);
  expect_same_state(reused, fresh, "warm reload after adaptive");
}

TEST(EngineReuse, AdaptiveAfterAdaptiveMatchesFreshAdaptive) {
  const ChambolleParams params = default_params();
  const TiledSolverOptions opts = small_tiles();
  const Matrix<float> v1 = random_v(44, 38, 71031);
  const Matrix<float> v2 = random_v(44, 38, 71032);
  // Second run with a tight tolerance: frozen markers from the FIRST
  // (everything-retires) run must not redirect this run's gathers.
  ResidentRunPolicy tight;
  tight.tolerance = 1e-6f;
  tight.patience = 2;
  const int tight_iterations = 12;  // 4 passes

  ResidentTiledEngine reused = Peer::windowed(v1, params, opts);
  (void)reused.run(kRetiringIterations, retiring_adaptive());
  reused.reset_v(v2);
  reused.reset_duals();
  const ResidentRunReport& got = reused.run(tight_iterations, tight).front();

  ResidentTiledEngine fresh = Peer::windowed(v2, params, opts);
  const ResidentRunReport& want = fresh.run(tight_iterations, tight).front();

  expect_same_state(reused, fresh, "adaptive solve after adaptive + reset");
  // The schedules must match too, not just the final state.
  EXPECT_EQ(got.total_tile_passes, want.total_tile_passes);
  EXPECT_EQ(got.total_iterations, want.total_iterations);
  EXPECT_EQ(got.tiles_converged, want.tiles_converged);
  EXPECT_EQ(got.tile_passes, want.tile_passes);
}

TEST(EngineReuse, MixedSolveSequenceMatchesFreshChain) {
  const ChambolleParams params = default_params(6);
  const TiledSolverOptions opts = small_tiles();
  // Interleave every run mode with resets; after each reset the reused
  // engine must track a fresh engine bit for bit.
  ResidentTiledEngine reused =
      Peer::windowed(random_v(30, 30, 71041), params, opts);
  for (int round = 0; round < 3; ++round) {
    const Matrix<float> v = random_v(30, 30, 71050 + round);
    if (round % 2 == 0)
      (void)reused.run(kRetiringIterations, retiring_adaptive());
    else
      reused.run(params.iterations);
    reused.reset_v(v);
    reused.reset_duals();
    reused.run(params.iterations);

    ResidentTiledEngine fresh = Peer::windowed(v, params, opts);
    fresh.run(params.iterations);
    expect_same_state(reused, fresh, "mixed sequence round");
  }
}

// Satellite 2 (pool injection): the solve must be bit-identical on a
// caller-provided pool — any lane count — to the default-pool solve, for
// both the fixed and the adaptive schedule.  This is what lets the
// serving fleet give every engine a private pool without changing
// results.
TEST(EngineReuse, InjectedPoolMatchesDefaultPool) {
  const ChambolleParams params = default_params();
  TiledSolverOptions opts = small_tiles();
  const Matrix<float> v = random_v(39, 43, 71061);

  ResidentTiledEngine on_default = Peer::windowed(v, params, opts);
  on_default.run(params.iterations);

  for (const int lanes : {1, 2, 5}) {
    parallel::ThreadPool pool(lanes);
    TiledSolverOptions with_pool = opts;
    with_pool.pool = &pool;
    ResidentTiledEngine on_private = Peer::windowed(v, params, with_pool);
    on_private.run(params.iterations);
    expect_same_state(on_private, on_default, "injected pool, fixed run");
  }
}

TEST(EngineReuse, InjectedPoolMatchesDefaultPoolAdaptive) {
  const ChambolleParams params = default_params();
  TiledSolverOptions opts = small_tiles();
  const Matrix<float> v = random_v(42, 34, 71071);
  ResidentRunPolicy ao;
  ao.tolerance = 1e-3f;
  ao.patience = 2;
  const int iterations = 15;  // 5 passes

  ResidentTiledEngine on_default = Peer::windowed(v, params, opts);
  const ResidentRunReport& want = on_default.run(iterations, ao).front();

  parallel::ThreadPool pool(2);
  TiledSolverOptions with_pool = opts;
  with_pool.pool = &pool;
  ResidentTiledEngine on_private = Peer::windowed(v, params, with_pool);
  const ResidentRunReport& got = on_private.run(iterations, ao).front();

  expect_same_state(on_private, on_default, "injected pool, adaptive run");
  EXPECT_EQ(got.tile_passes, want.tile_passes);
}

}  // namespace
}  // namespace chambolle
