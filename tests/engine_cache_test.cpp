// engine_cache_test.cpp — the bounded engine cache both serving modes and
// FlowSession bind their resident engines from: one engine per (rows, cols,
// fields), at most kCapacity of them, least recently bound evicted first,
// and a bound engine — warm or cold — equal to a freshly built one.
#include "chambolle/engine_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

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
  const Matrix<float> a = random_v(40, 48, 1), b = random_v(40, 48, 2);
  const Matrix<float> c = random_v(24, 48, 3);
  (void)cache.bind(a, nullptr);
  (void)cache.bind(b, nullptr);  // same shape: reused
  EXPECT_EQ(cache.builds(), 1u);
  const Matrix<float>* const both[] = {&a, &b};
  EXPECT_EQ(cache.bind(both).fields(), 2);  // same shape, two fields: built
  EXPECT_EQ(cache.bind(c, nullptr).rows(), 24);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.bind(both).fields(), 2);
  EXPECT_EQ(cache.builds(), 3u);
}

// Warm and cold binds of a reused engine against fresh engines, after the
// engine ran other inputs: the reuse path changes no bits.
TEST(EngineCache, BoundEngineEqualsAFreshOne) {
  parallel::ThreadPool pool(3);
  const ChambolleParams p = params();
  const TiledSolverOptions o = options(pool);
  EngineCache cache(p, o);
  const Matrix<float> v0 = random_v(60, 52, 4), v1 = random_v(60, 52, 5);
  ResidentTiledEngine& first = cache.bind(v0, nullptr);
  first.run(p.iterations);
  DualField warm;
  first.snapshot(warm);

  ResidentTiledEngine& again = cache.bind(v1, &warm);
  EXPECT_EQ(&again, &first);
  again.run(p.iterations);
  ResidentTiledEngine fresh_warm(v1, p, o, &warm);
  fresh_warm.run(p.iterations);
  expect_memcmp_eq(again.result().u, fresh_warm.result().u, "warm bind");

  ResidentTiledEngine& cold = cache.bind(v1, nullptr);
  cold.run(p.iterations);
  ResidentTiledEngine fresh_cold(v1, p, o);
  fresh_cold.run(p.iterations);
  expect_memcmp_eq(cold.result().u, fresh_cold.result().u, "cold bind");
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(EngineCache, EvictsTheLeastRecentlyBoundAtCapacity) {
  parallel::ThreadPool pool(2);
  EngineCache cache(params(), options(pool));
  constexpr int kShapes = static_cast<int>(EngineCache::kCapacity);
  std::vector<Matrix<float>> v;
  for (int k = 0; k <= kShapes; ++k) v.push_back(random_v(8 + k, 10, 10 + k));
  for (int k = 0; k < kShapes; ++k) (void)cache.bind(v[k], nullptr);
  EXPECT_EQ(cache.size(), EngineCache::kCapacity);
  (void)cache.bind(v[0], nullptr);       // now the most recently bound
  (void)cache.bind(v[kShapes], nullptr);  // full: evicts v[1]'s engine
  EXPECT_EQ(cache.size(), EngineCache::kCapacity);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 1);
  EXPECT_EQ(cache.evictions(), 1u);
  (void)cache.bind(v[0], nullptr);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 1);
  (void)cache.bind(v[1], nullptr);
  EXPECT_EQ(cache.builds(), EngineCache::kCapacity + 2);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), cache.builds() - cache.evictions());
}

}  // namespace
}  // namespace chambolle
