// engine_cache_test.cpp — the bounded engine cache both serving modes and
// FlowSession take their resident engines from: one engine per (rows, cols,
// fields), at most kCapacity of them, least recently used evicted first,
// and a reused engine's solve — warm or cold — equal to a fresh engine's.
#include "chambolle/engine_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle {
namespace {

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

ChambolleParams params() {
  ChambolleParams p;
  p.iterations = 7;
  return p;
}

TiledSolverOptions options(parallel::ThreadPool& pool) {
  TiledSolverOptions o;
  o.merge_iterations = 3;
  o.num_threads = 3;
  o.pool = &pool;
  return o;
}

TEST(EngineCache, KeysOnShapeAndFieldCount) {
  parallel::ThreadPool pool(3);
  EngineCache cache(params(), options(pool));
  ResidentTiledEngine& first = cache.engine(40, 48, 1);
  EXPECT_EQ(&cache.engine(40, 48, 1), &first);  // same shape: reused
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.engine(40, 48, 2).fields(), 2);  // two fields: built
  EXPECT_EQ(cache.engine(24, 48, 1).rows(), 24);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.engine(40, 48, 2).fields(), 2);
  EXPECT_EQ(cache.builds(), 3u);
}

// Warm and cold solves on a reused engine against fresh engines, after the
// engine solved other inputs: the reuse path changes no bits.
TEST(EngineCache, BoundEngineEqualsAFreshOne) {
  parallel::ThreadPool pool(3);
  const ChambolleParams p = params();
  const TiledSolverOptions o = options(pool);
  EngineCache cache(p, o);
  const Matrix<float> v0 = random_v(60, 52, 4), v1 = random_v(60, 52, 5);
  ResidentTiledEngine& first = cache.engine(60, 52, 1);
  Matrix<float> u;
  DualField warm;
  first.solve(v0, nullptr, u, &warm);

  ResidentTiledEngine& again = cache.engine(60, 52, 1);
  EXPECT_EQ(&again, &first);
  again.solve(v1, &warm, u);
  expect_memcmp_eq(u, solve_resident(v1, p, o, nullptr, &warm).u,
                   "warm solve");

  cache.engine(60, 52, 1).solve(v1, nullptr, u);
  expect_memcmp_eq(u, solve_resident(v1, p, o).u, "cold solve");
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(EngineCache, EvictsTheLeastRecentlyBoundAtCapacity) {
  parallel::ThreadPool pool(2);
  EngineCache cache(params(), options(pool));
  constexpr int kShapes = static_cast<int>(EngineCache::kCapacity);
  const auto use = [&](int k) { (void)cache.engine(8 + k, 10, 1); };
  for (int k = 0; k < kShapes; ++k) use(k);
  EXPECT_EQ(cache.size(), EngineCache::kCapacity);
  use(0);        // now the most recently used
  use(kShapes);  // full: evicts shape 1's engine
  EXPECT_EQ(cache.size(), EngineCache::kCapacity);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 1);
  EXPECT_EQ(cache.evictions(), 1u);
  use(0);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 1);
  use(1);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 2);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), cache.builds() - cache.evictions());
}

}  // namespace
}  // namespace chambolle
