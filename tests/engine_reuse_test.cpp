// engine_reuse_test.cpp — the engine-reuse contract the serving fleet
// (src/serving) stands on: after reset_v()/reset_duals(), a reused
// ResidentTiledEngine must be INDISTINGUISHABLE from a freshly constructed
// one, no matter what ran on it before — runs of any budget, leaving the
// mailboxes at either parity.  A reload restarts the pass/parity clock; the
// abort path (a run that throws mid-flight) is driven through a test-only
// fault hook in tests/resident_fields_test.cpp.
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

// A budget of 6 passes of small_tiles()' merge 3, run before a reload.
constexpr int kPriorIterations = 18;

TEST(EngineReuse, WarmReloadMatchesFreshWithInitial) {
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
  reused.run(kPriorIterations);
  reused.reset_v(v2, &warm);  // the dual reload restarts the clock
  reused.run(params.iterations);

  ResidentTiledEngine fresh = Peer::windowed(v2, params, opts, &warm);
  fresh.run(params.iterations);
  expect_same_state(reused, fresh, "warm reload after a run");
}

TEST(EngineReuse, MixedSolveSequenceMatchesFreshChain) {
  const ChambolleParams params = default_params(6);
  const TiledSolverOptions opts = small_tiles();
  // Interleave runs of different budgets with resets; after each reset the
  // reused engine must track a fresh engine bit for bit.
  ResidentTiledEngine reused =
      Peer::windowed(random_v(30, 30, 71041), params, opts);
  for (int round = 0; round < 3; ++round) {
    const Matrix<float> v = random_v(30, 30, 71050 + round);
    reused.run(round % 2 == 0 ? kPriorIterations : params.iterations);
    reused.reset_v(v);
    reused.reset_duals();
    reused.run(params.iterations);

    ResidentTiledEngine fresh = Peer::windowed(v, params, opts);
    fresh.run(params.iterations);
    expect_same_state(reused, fresh, "mixed sequence round");
  }
}

// Pool injection: the solve must be bit-identical on a caller-provided
// pool — any lane count — to the default-pool solve.  This is what lets the
// serving fleet give every engine a private pool without changing results.
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

}  // namespace
}  // namespace chambolle
