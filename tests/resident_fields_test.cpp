// resident_fields_test.cpp — a K-field ResidentTiledEngine (several
// same-shape fields co-scheduled on one EpochGraph) against one single-field
// engine per field.  Fields exchange no data, so every field's bits must
// equal its single-field solve at every lane count.  Also pins reuse after
// an aborted run and reset_v()'s exception safety.  The suite name matches
// the CI TSan filter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chambolle/resident_tiled.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

constexpr int kRows = 37;
constexpr int kCols = 45;

Matrix<float> random_v(std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, kRows, kCols, -3.f, 3.f);
}

ChambolleParams params_with(int iterations) {
  ChambolleParams p;
  p.iterations = iterations;
  return p;
}

// Many small tiles, so each field's graph has interior, edge and corner
// nodes and lanes really interleave the two fields.
TiledSolverOptions small_tiles(parallel::ThreadPool& pool, int lanes) {
  TiledSolverOptions o;
  o.tile_rows = 12;
  o.tile_cols = 14;
  o.merge_iterations = 3;
  o.num_threads = lanes;
  o.pool = &pool;
  return o;
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

// Field `field` of `pair` against the single-field engine `single`: the
// resident duals and the recovered primal, bit for bit.
void expect_field_eq(ResidentTiledEngine& pair, int field,
                     ResidentTiledEngine& single, const std::string& what) {
  DualField got, want;
  pair.snapshot(got, field);
  single.snapshot(want);
  const std::string tag = what + " field " + std::to_string(field);
  expect_memcmp_eq(got.px, want.px, tag + " px");
  expect_memcmp_eq(got.py, want.py, tag + " py");
  const ChambolleResult r = pair.result(field);
  expect_memcmp_eq(r.u, single.result().u, tag + " u");
  expect_memcmp_eq(r.p.px, want.px, tag + " result px");
}

// One K = 2 engine over (a, b) beside one single-field engine per field.
struct Trio {
  Trio(const Matrix<float>& a, const Matrix<float>& b,
       const ChambolleParams& params, const TiledSolverOptions& opts)
      : fields{&a, &b},
        pair(Peer::windowed(fields, params, opts)),
        one(Peer::windowed(a, params, opts)),
        two(Peer::windowed(b, params, opts)) {}

  void expect_eq(const std::string& what) {
    expect_field_eq(pair, 0, one, what);
    expect_field_eq(pair, 1, two, what);
  }

  const Matrix<float>* fields[2];
  ResidentTiledEngine pair;
  ResidentTiledEngine one, two;
};

TEST(ResidentFields, RunMatchesSingleFieldEngines) {
  const Matrix<float> a = random_v(9101), b = random_v(9102);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    const std::string tag = "lanes " + std::to_string(lanes);
    // run(a); run(b) on the pair against run(a + b) on each single engine;
    // 4 + 7 iterations split into remainder passes of the merge depth 3.
    Trio t(a, b, params_with(11), small_tiles(pool, lanes));
    t.pair.run(4);
    t.pair.run(7);
    t.one.run(11);
    t.two.run(11);
    t.expect_eq(tag + " run(4); run(7)");
    EXPECT_EQ(t.pair.fields(), 2);
    EXPECT_EQ(t.pair.stats().tiles, 2 * t.one.stats().tiles);
    EXPECT_EQ(t.pair.stats().halo_elements_per_pass,
              t.one.stats().halo_elements_per_pass +
                  t.two.stats().halo_elements_per_pass);
    EXPECT_EQ(t.pair.stats().passes, 5);  // 2 + 3 passes of merge depth 3
    EXPECT_EQ(t.pair.stats().halo_bytes_exchanged,
              t.pair.stats().halo_elements_per_pass * sizeof(float) * 5u);
    EXPECT_EQ(t.pair.stats().element_iterations,
              t.one.stats().element_iterations +
                  t.two.stats().element_iterations);

    // result_into() of both fields in one call, with and without the dual
    // write-back.
    Matrix<float> u0, u1;
    DualField p0, p1;
    Matrix<float>* const us[] = {&u0, &u1};
    DualField* const ps[] = {&p0, &p1};
    t.pair.result_into(us, ps);
    expect_memcmp_eq(u0, t.one.result().u, tag + " result_into u0");
    expect_memcmp_eq(u1, t.two.result().u, tag + " result_into u1");
    expect_memcmp_eq(p1.py, t.two.result().p.py, tag + " result_into p1");
    Matrix<float> v0, v1;
    Matrix<float>* const vs[] = {&v0, &v1};
    t.pair.result_into(vs);
    expect_memcmp_eq(v0, u0, tag + " u-only result_into");
    expect_memcmp_eq(v1, u1, tag + " u-only result_into");
  }
}

TEST(ResidentFields, WarmAndColdResetVMatchSingleFieldEngines) {
  const Matrix<float> a = random_v(9201), b = random_v(9202);
  const Matrix<float> a2 = random_v(9203), b2 = random_v(9204);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    const std::string tag = "lanes " + std::to_string(lanes);
    Trio t(a, b, params_with(9), small_tiles(pool, lanes));
    t.pair.run(9);
    t.one.run(9);
    t.two.run(9);

    // Warm: new inputs, resident duals kept.
    const Matrix<float>* const warm[] = {&a2, &b2};
    t.pair.reset_v(warm);
    t.one.reset_v(a2);
    t.two.reset_v(b2);
    t.pair.run(6);
    t.one.run(6);
    t.two.run(6);
    t.expect_eq(tag + " warm reset_v");

    // Cold: duals reloaded from explicit states (the fields swapped).
    DualField d0, d1;
    t.one.snapshot(d0);
    t.two.snapshot(d1);
    const DualField* const initial[] = {&d1, &d0};
    t.pair.reset_v(t.fields, initial);
    t.one.reset_v(a, &d1);
    t.two.reset_v(b, &d0);
    t.pair.run(5);
    t.one.run(5);
    t.two.run(5);
    t.expect_eq(tag + " cold reset_v");

    // Zeroed duals.
    t.pair.reset_duals();
    t.one.reset_duals();
    t.two.reset_duals();
    t.pair.run(7);
    t.one.run(7);
    t.two.run(7);
    t.expect_eq(tag + " reset_duals");
  }
}

TEST(ResidentFields, ReusedAfterABodyExceptionMatchesFreshEngines) {
  // A kernel burst that throws mid-run aborts the whole graph with tiles of
  // both fields at mixed epochs.  After a reload the engine must be
  // indistinguishable from fresh ones.
  const Matrix<float> a = random_v(9501), b = random_v(9502);
  const Matrix<float> a2 = random_v(9503), b2 = random_v(9504);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    const std::string tag = "lanes " + std::to_string(lanes);
    const TiledSolverOptions opts = small_tiles(pool, lanes);
    const Matrix<float>* const first[] = {&a, &b};
    ResidentTiledEngine reused = Peer::windowed(first, params_with(8), opts);
    std::atomic<int> bursts{0};
    Peer::set_fault_hook(reused, [&](int, int) {
      if (bursts.fetch_add(1) == 13) throw std::runtime_error("injected");
    });
    EXPECT_THROW(reused.run(30), std::runtime_error) << tag;
    Peer::set_fault_hook(reused, nullptr);

    const Matrix<float>* const next[] = {&a2, &b2};
    reused.reset_v(next);
    reused.reset_duals();
    reused.run(8);
    ResidentTiledEngine one = Peer::windowed(a2, params_with(8), opts);
    ResidentTiledEngine two = Peer::windowed(b2, params_with(8), opts);
    one.run(8);
    two.run(8);
    const std::string what = tag + " after fixed abort";
    expect_field_eq(reused, 0, one, what);
    expect_field_eq(reused, 1, two, what);
  }
}

TEST(ResidentFields, ThrowingResetVLeavesTheEngineUnchanged) {
  // reset_v validates every argument before it touches anything: a call
  // that throws must leave inputs, duals and the pass clock as they were.
  parallel::ThreadPool pool(3);
  const TiledSolverOptions opts = small_tiles(pool, 3);
  const Matrix<float> a = random_v(9601), b = random_v(9602);
  const Matrix<float> a2 = random_v(9603);
  const Matrix<float>* const fields[] = {&a, &b};
  ResidentTiledEngine pair = Peer::windowed(fields, params_with(7), opts);
  ResidentTiledEngine single = Peer::windowed(a, params_with(7), opts);
  pair.run(7);
  single.run(7);
  const ChambolleResult before0 = pair.result(0), before1 = pair.result(1);
  const ChambolleResult before = single.result();

  const DualField wrong_shape(kRows + 1, kCols);
  const DualField right_shape(kRows, kCols);
  EXPECT_THROW(single.reset_v(a2, &wrong_shape), std::invalid_argument);
  const Matrix<float> wrong_v(kRows, kCols + 2);
  EXPECT_THROW(single.reset_v(wrong_v), std::invalid_argument);
  const Matrix<float>* const one_field[] = {&a2};
  EXPECT_THROW(pair.reset_v(one_field), std::invalid_argument);
  const Matrix<float>* const with_bad[] = {&a2, &wrong_v};
  EXPECT_THROW(pair.reset_v(with_bad), std::invalid_argument);
  const Matrix<float>* const good[] = {&a2, &a2};
  const DualField* const bad_initial[] = {&right_shape, &wrong_shape};
  EXPECT_THROW(pair.reset_v(good, bad_initial), std::invalid_argument);

  const ChambolleResult after = single.result();
  expect_memcmp_eq(after.u, before.u, "single u");
  expect_memcmp_eq(after.p.px, before.p.px, "single px");
  expect_memcmp_eq(pair.result(0).u, before0.u, "pair u0");
  expect_memcmp_eq(pair.result(1).u, before1.u, "pair u1");
  // The pass clock and the resident v survived too: continuing matches a
  // solve that never saw the failed calls.
  single.run(5);
  ResidentTiledEngine fresh = Peer::windowed(a, params_with(12), opts);
  fresh.run(12);
  expect_memcmp_eq(single.result().u, fresh.result().u, "continued");
}

TEST(ResidentFields, ValidatesFieldsAndOutputs) {
  parallel::ThreadPool pool(2);
  const TiledSolverOptions opts = small_tiles(pool, 2);
  const Matrix<float> a = random_v(9701);
  const Matrix<float> other(kRows, kCols + 1);
  const Matrix<float>* const mismatched[] = {&a, &other};
  EXPECT_THROW(ResidentTiledEngine(mismatched, params_with(4), opts),
               std::invalid_argument);
  const Matrix<float>* const null_field[] = {&a, nullptr};
  EXPECT_THROW(ResidentTiledEngine(null_field, params_with(4), opts),
               std::invalid_argument);
  EXPECT_THROW(ResidentTiledEngine(ResidentTiledEngine::Fields(),
                                   params_with(4), opts),
               std::invalid_argument);

  const Matrix<float>* const fields[] = {&a, &a};
  ResidentTiledEngine pair = Peer::windowed(fields, params_with(4), opts);
  pair.run(4);
  Matrix<float> u;
  DualField p;
  EXPECT_THROW(pair.result_into(u, p), std::invalid_argument);  // K = 1 form
  Matrix<float>* const shared[] = {&u, &u};
  EXPECT_THROW(pair.result_into(shared), std::invalid_argument);
  EXPECT_THROW((void)pair.result(2), std::invalid_argument);
  DualField snap;
  EXPECT_THROW(pair.snapshot(snap, -1), std::invalid_argument);
}

}  // namespace
}  // namespace chambolle
