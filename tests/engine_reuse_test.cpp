// engine_reuse_test.cpp — the engine-reuse contract the serving fleet
// (src/serving) stands on: a reused ResidentTiledEngine must be
// INDISTINGUISHABLE from a freshly constructed one, no matter what solved
// on it before.  Every solve overwrites every buffer cell and reads only
// mailboxes it wrote, so this holds by construction; the abort path (a
// solve that throws mid-flight) is driven through a test-only fault hook
// in tests/resident_fields_test.cpp.
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

ChambolleParams default_params(int iterations = 8) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

// Full-width strips of tile_rows buffer rows: several per lane.
TiledSolverOptions thin_strips() {
  TiledSolverOptions o;
  o.tile_rows = 12;
  o.merge_iterations = 3;
  o.num_threads = 3;
  return o;
}

// One solve's full output: the primal and the final duals.
ChambolleResult solve_on(ResidentTiledEngine& engine, const Matrix<float>& v,
                         const DualField* initial = nullptr) {
  ChambolleResult out;
  engine.solve(v, initial, out.u, &out.p);
  return out;
}

void expect_same_result(const ChambolleResult& got,
                        const ChambolleResult& want, const char* what) {
  expect_memcmp_eq(got.p.px, want.p.px, what);
  expect_memcmp_eq(got.p.py, want.p.py, what);
  expect_memcmp_eq(got.u, want.u, what);
}

TEST(EngineReuse, WarmReloadMatchesFreshWithInitial) {
  const ChambolleParams params = default_params();
  const TiledSolverOptions opts = thin_strips();
  const Matrix<float> v1 = random_v(33, 45, 71021);
  const Matrix<float> v2 = random_v(33, 45, 71022);

  // A dual state to warm-start from: one fixed solve's final duals.
  const DualField warm =
      Peer::solve_strips(v1, opts.tile_rows, params, opts).p;

  ResidentTiledEngine reused =
      Peer::strips(33, 45, opts.tile_rows, 1, params, opts);
  (void)solve_on(reused, v1);  // a cold solve of other input first
  const ChambolleResult got = solve_on(reused, v2, &warm);

  const ChambolleResult fresh =
      Peer::solve_strips(v2, opts.tile_rows, params, opts, nullptr, &warm);
  expect_same_result(got, fresh, "warm solve after a solve");
}

TEST(EngineReuse, MixedSolveSequenceMatchesFreshChain) {
  const ChambolleParams params = default_params(6);
  const TiledSolverOptions opts = thin_strips();
  // Interleave cold and warm solves of different inputs on one engine; every
  // solve must track a fresh engine bit for bit.
  ResidentTiledEngine reused =
      Peer::strips(30, 30, opts.tile_rows, 1, params, opts);
  DualField duals;
  for (int round = 0; round < 4; ++round) {
    const Matrix<float> v = random_v(30, 30, 71050 + round);
    const DualField* initial = round % 2 == 1 ? &duals : nullptr;
    const ChambolleResult want =
        Peer::solve_strips(v, opts.tile_rows, params, opts, nullptr, initial);
    const ChambolleResult got = solve_on(reused, v, initial);
    expect_same_result(got, want, "mixed sequence round");
    duals = got.p;
  }
}

// Pool injection: the solve must be bit-identical on a caller-provided
// pool — any lane count — to the default-pool solve.  This is what lets the
// serving fleet give every engine a private pool without changing results.
TEST(EngineReuse, InjectedPoolMatchesDefaultPool) {
  const ChambolleParams params = default_params();
  TiledSolverOptions opts = thin_strips();
  const Matrix<float> v = random_v(39, 43, 71061);

  const ChambolleResult on_default =
      Peer::solve_strips(v, opts.tile_rows, params, opts);
  for (const int lanes : {1, 2, 5}) {
    parallel::ThreadPool pool(lanes);
    TiledSolverOptions with_pool = opts;
    with_pool.pool = &pool;
    expect_same_result(
        Peer::solve_strips(v, opts.tile_rows, params, with_pool), on_default,
                       "injected pool, fixed solve");
  }
}

}  // namespace
}  // namespace chambolle
