// resident_fields_test.cpp — a K-field ResidentTiledEngine (several
// same-shape fields co-scheduled on one EpochGraph) against one single-field
// engine per field.  Fields exchange no data, so every field's bits must
// equal its single-field solve at every lane count.  Also pins reuse after
// an aborted solve and solve()'s exception safety.  The suite name matches
// the CI TSan filter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
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

// Six thin strips (profitable rows 9 + 6 + 6 + 6 + 6 + 4), so each
// field's chain has interior and end nodes and lanes really interleave the
// two fields.
TiledSolverOptions thin_strips(parallel::ThreadPool& pool, int lanes) {
  TiledSolverOptions o;
  o.tile_rows = 12;
  o.merge_iterations = 3;
  o.num_threads = lanes;
  o.pool = &pool;
  return o;
}

// An engine, or one solve, on full-width strips of o.tile_rows buffer rows.
ResidentTiledEngine strips(int fields, const ChambolleParams& params,
                           const TiledSolverOptions& o) {
  return Peer::strips(kRows, kCols, o.tile_rows, fields, params, o);
}
ChambolleResult solve_strips(const Matrix<float>& v,
                             const ChambolleParams& params,
                             const TiledSolverOptions& o) {
  return Peer::solve_strips(v, o.tile_rows, params, o);
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

void expect_result_eq(const ChambolleResult& got, const ChambolleResult& want,
                      const std::string& what) {
  expect_memcmp_eq(got.u, want.u, what + " u");
  expect_memcmp_eq(got.p.px, want.p.px, what + " px");
  expect_memcmp_eq(got.p.py, want.p.py, what + " py");
}

// One K = 2 engine beside one single-field engine per field.
struct Trio {
  Trio(const ChambolleParams& params, const TiledSolverOptions& opts)
      : pair(strips(2, params, opts)),
        one(strips(1, params, opts)),
        two(strips(1, params, opts)) {}

  /// Solves (a, b) from `initial` (one state per field, or none) on the
  /// pair and on the single engines, and compares every output.
  void expect_eq(const Matrix<float>& a, const Matrix<float>& b,
                 const DualField* ia, const DualField* ib,
                 const std::string& what) {
    const Matrix<float>* const fields[] = {&a, &b};
    const DualField* const initial[] = {ia, ib};
    ChambolleResult got[2], want[2];
    Matrix<float>* const us[] = {&got[0].u, &got[1].u};
    DualField* const ps[] = {&got[0].p, &got[1].p};
    pair.solve(fields,
               ia != nullptr ? ResidentTiledEngine::DualFields(initial)
                             : ResidentTiledEngine::DualFields(),
               us, ps);
    one.solve(a, ia, want[0].u, &want[0].p);
    two.solve(b, ib, want[1].u, &want[1].p);
    expect_result_eq(got[0], want[0], what + " field 0");
    expect_result_eq(got[1], want[1], what + " field 1");
  }

  ResidentTiledEngine pair;
  ResidentTiledEngine one, two;
};

TEST(ResidentFields, RunMatchesSingleFieldEngines) {
  const Matrix<float> a = random_v(9101), b = random_v(9102);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    const std::string tag = "lanes " + std::to_string(lanes);
    // 11 iterations split into remainder passes of the merge depth 3.
    Trio t(params_with(11), thin_strips(pool, lanes));
    t.expect_eq(a, b, nullptr, nullptr, tag);
    EXPECT_EQ(t.pair.fields(), 2);
    EXPECT_EQ(t.pair.stats().tiles, 2 * t.one.stats().tiles);
    EXPECT_EQ(t.pair.stats().halo_elements_per_pass,
              t.one.stats().halo_elements_per_pass +
                  t.two.stats().halo_elements_per_pass);
    EXPECT_EQ(t.pair.stats().passes, 4);  // 3 + 3 + 3 + 2 iterations
    EXPECT_EQ(t.pair.stats().halo_bytes_exchanged,
              t.pair.stats().halo_elements_per_pass * sizeof(float) * 4u);
    EXPECT_EQ(t.pair.stats().element_iterations,
              t.one.stats().element_iterations +
                  t.two.stats().element_iterations);

    // The u-only solve of both fields: no dual write-back, same primal.
    const Matrix<float>* const fields[] = {&a, &b};
    Matrix<float> u0, u1, want0, want1;
    Matrix<float>* const us[] = {&u0, &u1};
    t.pair.solve(fields, {}, us);
    t.one.solve(a, nullptr, want0);
    t.two.solve(b, nullptr, want1);
    expect_memcmp_eq(u0, want0, tag + " u-only u0");
    expect_memcmp_eq(u1, want1, tag + " u-only u1");
  }
}

// The name predates solve(): it now checks warm and cold solves on reused
// engines, the two ways a solve starts.
TEST(ResidentFields, WarmAndColdResetVMatchSingleFieldEngines) {
  const Matrix<float> a = random_v(9201), b = random_v(9202);
  const Matrix<float> a2 = random_v(9203), b2 = random_v(9204);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    const std::string tag = "lanes " + std::to_string(lanes);
    Trio t(params_with(9), thin_strips(pool, lanes));
    t.expect_eq(a, b, nullptr, nullptr, tag + " cold");

    // Warm: duals from explicit states (two fresh solves', swapped).
    const ChambolleResult d0 = solve_strips(a, params_with(5),
                                                    thin_strips(pool, lanes));
    const ChambolleResult d1 = solve_strips(b, params_with(5),
                                                    thin_strips(pool, lanes));
    t.expect_eq(a2, b2, &d1.p, &d0.p, tag + " warm");

    // Cold again on the reused engines.
    t.expect_eq(a2, b, nullptr, nullptr, tag + " cold after warm");
  }
}

TEST(ResidentFields, ReusedAfterABodyExceptionMatchesFreshEngines) {
  // A kernel burst that throws mid-solve aborts the whole graph with tiles
  // of both fields at mixed epochs.  No output may change — not even with
  // the dual outputs aliasing the warm start — and the next solve must be
  // indistinguishable from fresh engines'.  Six thin strips on 1-4 lanes,
  // then a 3-strip plan on 3 lanes whose middle strip of field 0 throws in
  // its last burst: every other node may finish its bursts then, so only
  // the last epoch's join keeps field 1 from recovering.
  const Matrix<float> a = random_v(9501), b = random_v(9502);
  const Matrix<float> a2 = random_v(9503), b2 = random_v(9504);
  const ChambolleParams params = params_with(8);  // 3 passes of merge 3
  struct Case {
    int lanes;
    TiledSolverOptions opts;
    std::function<bool(int, int, int)> fail;  // (field, tile, burst count)
  };
  std::vector<Case> cases;
  std::vector<std::unique_ptr<parallel::ThreadPool>> pools;
  for (int lanes = 1; lanes <= 4; ++lanes) {
    pools.push_back(std::make_unique<parallel::ThreadPool>(lanes));
    cases.push_back({lanes, thin_strips(*pools.back(), lanes),
                     [](int, int, int n) { return n == 13; }});
  }
  pools.push_back(std::make_unique<parallel::ThreadPool>(3));
  TiledSolverOptions three = thin_strips(*pools.back(), 3);
  three.tile_rows = 17;  // 37 rows: profitable 14 + 11 + 12
  cases.push_back({3, three, [](int field, int tile, int n) {
                     return field == 0 && tile == 1 && n == 2;
                   }});

  for (const Case& c : cases) {
    const std::string tag =
        "lanes " + std::to_string(c.lanes) +
        (&c == &cases.back() ? " three strips" : " six strips");
    ResidentTiledEngine reused = strips(2, params, c.opts);
    ASSERT_EQ(reused.plan().tiles.size(), &c == &cases.back() ? 3u : 6u)
        << tag;

    // Shaped outputs with known contents, and duals that are both the warm
    // start and the write-back (the serving layer's aliasing).
    ChambolleResult out[2] = {solve_strips(a2, params, c.opts),
                              solve_strips(b2, params, c.opts)};
    const ChambolleResult before[2] = {out[0], out[1]};
    const Matrix<float>* const first[] = {&a, &b};
    const DualField* const initial[] = {&out[0].p, &out[1].p};
    Matrix<float>* const us[] = {&out[0].u, &out[1].u};
    DualField* const ps[] = {&out[0].p, &out[1].p};
    std::atomic<int> bursts{0}, middle{0};
    Peer::set_fault_hook(reused, [&](int field, int tile) {
      const int n = field == 0 && tile == 1 ? middle.fetch_add(1)
                                            : bursts.fetch_add(1);
      if (c.fail(field, tile, n)) throw std::runtime_error("injected");
    });
    EXPECT_THROW(reused.solve(first, initial, us, ps), std::runtime_error)
        << tag;
    Peer::set_fault_hook(reused, nullptr);
    expect_result_eq(out[0], before[0], tag + " untouched field 0");
    expect_result_eq(out[1], before[1], tag + " untouched field 1");

    const Matrix<float>* const next[] = {&a2, &b2};
    reused.solve(next, {}, us, ps);
    ResidentTiledEngine one = strips(1, params, c.opts);
    ResidentTiledEngine two = strips(1, params, c.opts);
    ChambolleResult want[2];
    one.solve(a2, nullptr, want[0].u, &want[0].p);
    two.solve(b2, nullptr, want[1].u, &want[1].p);
    expect_result_eq(out[0], want[0], tag + " after abort field 0");
    expect_result_eq(out[1], want[1], tag + " after abort field 1");
  }
}

// The name predates solve(): a solve that throws on a bad argument must
// leave its outputs and the engine as they were.
TEST(ResidentFields, ThrowingResetVLeavesTheEngineUnchanged) {
  parallel::ThreadPool pool(3);
  const TiledSolverOptions opts = thin_strips(pool, 3);
  const Matrix<float> a = random_v(9601), b = random_v(9602);
  const Matrix<float> a2 = random_v(9603);
  const ChambolleParams params = params_with(7);
  ResidentTiledEngine pair = strips(2, params, opts);
  ResidentTiledEngine single = strips(1, params, opts);
  ChambolleResult out = solve_strips(a, params, opts);
  const ChambolleResult before = out;

  const DualField wrong_shape(kRows + 1, kCols);
  const DualField right_shape(kRows, kCols);
  EXPECT_THROW(single.solve(a2, &wrong_shape, out.u, &out.p),
               std::invalid_argument);
  const Matrix<float> wrong_v(kRows, kCols + 2);
  EXPECT_THROW(single.solve(wrong_v, nullptr, out.u, &out.p),
               std::invalid_argument);
  Matrix<float> other_u = out.u;
  Matrix<float>* const us[] = {&out.u, &other_u};
  const Matrix<float>* const one_field[] = {&a2};
  EXPECT_THROW(pair.solve(one_field, {}, us), std::invalid_argument);
  const Matrix<float>* const with_bad[] = {&a2, &wrong_v};
  EXPECT_THROW(pair.solve(with_bad, {}, us), std::invalid_argument);
  const Matrix<float>* const good[] = {&a2, &a2};
  const DualField* const bad_initial[] = {&right_shape, &wrong_shape};
  EXPECT_THROW(pair.solve(good, bad_initial, us), std::invalid_argument);
  expect_result_eq(out, before, "outputs");
  expect_memcmp_eq(other_u, before.u, "second output");

  // The engines still solve like fresh ones.
  ChambolleResult got;
  single.solve(b, nullptr, got.u, &got.p);
  expect_result_eq(got, solve_strips(b, params, opts), "single");
  pair.solve(good, {}, us);
  expect_memcmp_eq(out.u, solve_strips(a2, params, opts).u, "pair");
}

TEST(ResidentFields, ValidatesFieldsAndOutputs) {
  parallel::ThreadPool pool(2);
  const TiledSolverOptions opts = thin_strips(pool, 2);
  EXPECT_THROW(ResidentTiledEngine(kRows, kCols, 0, params_with(4), opts),
               std::invalid_argument);
  const Matrix<float> a = random_v(9701);
  const Matrix<float> other(kRows, kCols + 1);
  ResidentTiledEngine pair = strips(2, params_with(4), opts);
  Matrix<float> u, w;
  DualField p, q;
  Matrix<float>* const us[] = {&u, &w};
  const Matrix<float>* const mismatched[] = {&a, &other};
  EXPECT_THROW(pair.solve(mismatched, {}, us), std::invalid_argument);
  const Matrix<float>* const null_field[] = {&a, nullptr};
  EXPECT_THROW(pair.solve(null_field, {}, us), std::invalid_argument);
  EXPECT_THROW(pair.solve(ResidentTiledEngine::Fields(), {}, us),
               std::invalid_argument);

  const Matrix<float>* const fields[] = {&a, &a};
  EXPECT_THROW(pair.solve(a, nullptr, u, &p), std::invalid_argument);  // K = 1
  Matrix<float>* const shared[] = {&u, &u};
  EXPECT_THROW(pair.solve(fields, {}, shared), std::invalid_argument);
  DualField* const shared_duals[] = {&p, &p};
  EXPECT_THROW(pair.solve(fields, {}, us, shared_duals),
               std::invalid_argument);
  DualField* const null_duals[] = {&p, nullptr};
  EXPECT_THROW(pair.solve(fields, {}, us, null_duals), std::invalid_argument);
  DualField* const ps[] = {&p, &q};
  pair.solve(fields, {}, us, ps);  // distinct outputs: fine
  expect_memcmp_eq(u, w, "same input, same output");
}

}  // namespace
}  // namespace chambolle
