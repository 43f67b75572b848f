// serving_test.cpp — the multi-stream flow service: stream isolation,
// batching, admission control (queue bound + latency SLO), drain, and the
// per-session metric scoping.
//
// The exactness claims lean on the engine contract pinned by
// engine_reuse_test.cpp: the service reuses pooled engines that other
// sessions ran on, and every reply must still be bit-identical to a
// serial fresh-engine replay of that session alone.
#include "serving/flow_service.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "chambolle/engine_cache.hpp"
#include "chambolle/resident_tiled.hpp"
#include "chambolle/tile.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "testing/concurrent_oracle.hpp"
#include "tvl1/tvl1.hpp"

namespace chambolle {
namespace {

using serving::FlowService;
using serving::FlowServiceOptions;
using serving::Reply;
using serving::ReplyStatus;

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

// Turns telemetry off for one test's scope and restores it after.
class TelemetryOff {
 public:
  TelemetryOff() : was_(telemetry::enabled()) { telemetry::set_enabled(false); }
  ~TelemetryOff() { telemetry::set_enabled(was_); }
  TelemetryOff(const TelemetryOff&) = delete;
  TelemetryOff& operator=(const TelemetryOff&) = delete;

 private:
  bool was_;
};

// Small, fast solver configuration for Chambolle-mode streams.  Its
// engines plan for 2 lanes, whatever the slot's width.
tvl1::Tvl1Params quick_params() {
  tvl1::Tvl1Params p;
  p.chambolle.iterations = 6;
  p.tiled.merge_iterations = 3;
  p.tiled.num_threads = 2;
  return p;
}

// Strips per field of the plan the service's Chambolle-mode engines build
// for a `rows` x `cols` frame under `p`.
std::size_t planned_strips(int rows, int cols, const tvl1::Tvl1Params& p) {
  return plan_tiling(rows, cols, 1, p.tiled.num_threads,
                     p.tiled.merge_iterations)
      .tiles.size();
}

// The serial truth for one Chambolle-mode stream: fresh engine per frame,
// duals chained from solve to solve, warm only while the resolution holds
// (a switch restarts cold) — exactly the Session::submit contract.  It
// runs on one lane, so one tile: a strip plan in the service is checked
// against a plan without halos.
std::vector<Matrix<float>> serial_chain(
    const std::vector<Matrix<float>>& frames, const tvl1::Tvl1Params& p) {
  TiledSolverOptions one_lane = p.tiled;
  one_lane.num_threads = 1;
  std::vector<Matrix<float>> out;
  DualField duals, next;
  bool has_duals = false;
  for (const Matrix<float>& v : frames) {
    const DualField* initial =
        has_duals && duals.px.same_shape(v) ? &duals : nullptr;
    ResidentTiledEngine engine(v.rows(), v.cols(), 1, p.chambolle, one_lane);
    out.emplace_back();
    engine.solve(v, initial, out.back(), &next);
    std::swap(duals, next);
    has_duals = true;
  }
  return out;
}

TEST(ServingSession, ChambolleStreamMatchesFreshEngineChain) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 2;
  opts.lanes_per_slot = 2;
  opts.queue_capacity = 16;
  FlowService service(opts);
  auto session = service.open_session();

  // Large enough to split: the reused engines exchange halos.
  ASSERT_GE(planned_strips(120, 104, opts.params), 2u);
  std::vector<Matrix<float>> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(random_v(120, 104, 9100 + f));
  const std::vector<Matrix<float>> want = serial_chain(frames, opts.params);

  std::vector<std::future<Reply>> futures;
  for (const auto& v : frames) futures.push_back(session->submit(v));
  for (std::size_t f = 0; f < frames.size(); ++f) {
    Reply r = futures[f].get();
    ASSERT_EQ(r.status, ReplyStatus::kOk) << "frame " << f;
    EXPECT_EQ(r.sequence, f);
    expect_memcmp_eq(r.u, want[f], "warm-start chain frame");
  }
  const serving::ServiceStats st = service.stats();
  EXPECT_EQ(st.admitted, frames.size());
  EXPECT_EQ(st.completed, frames.size());
  EXPECT_EQ(st.shed_queue_full + st.shed_deadline, 0u);
}

TEST(ServingSession, ResolutionSwitchRestartsColdAndStillMatches) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 1;
  opts.lanes_per_slot = 2;
  FlowService service(opts);
  auto session = service.open_session();

  // 120x104 -> 72x88 -> 120x104: the second 120x104 frame warm-starts
  // from the 72x88 snapshot's... nothing — shapes differ, so it restarts
  // cold, and the per-resolution engine cache must serve it stale-free.
  // The cache holds a two-strip and a one-strip engine.
  ASSERT_GE(planned_strips(120, 104, opts.params), 2u);
  ASSERT_EQ(planned_strips(72, 88, opts.params), 1u);
  std::vector<Matrix<float>> frames = {random_v(120, 104, 9200),
                                       random_v(72, 88, 9201),
                                       random_v(120, 104, 9202)};
  const std::vector<Matrix<float>> want = serial_chain(frames, opts.params);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    Reply r = session->submit(frames[f]).get();
    ASSERT_EQ(r.status, ReplyStatus::kOk);
    expect_memcmp_eq(r.u, want[f], "resolution-switch frame");
  }
}

// A client cycling through more resolutions than a slot's engine cache
// holds: the slot keeps at most EngineCache::kCapacity engines, evicting the
// least recently bound, and every reply still equals the fresh-engine chain.
TEST(ServingSession, CyclingResolutionsStaysWithinTheCacheBound) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 1;
  opts.lanes_per_slot = 2;
  FlowService service(opts);
  auto session = service.open_session();

  constexpr std::uint64_t kShapes = EngineCache::kCapacity + 3;
  std::vector<Matrix<float>> frames;
  for (int cycle = 0; cycle < 2; ++cycle)
    for (std::uint64_t k = 0; k < kShapes; ++k)
      for (int rep = 0; rep < 2; ++rep)  // the second frame starts warm
        frames.push_back(random_v(20 + 2 * static_cast<int>(k),
                                  24 + static_cast<int>(k),
                                  9400 + frames.size()));
  const std::vector<Matrix<float>> want = serial_chain(frames, opts.params);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    Reply r = session->submit(frames[f]).get();
    ASSERT_EQ(r.status, ReplyStatus::kOk) << "frame " << f;
    expect_memcmp_eq(r.u, want[f], "cycling-resolution frame");
  }
  // A cycle longer than the cache misses on every shape change.
  const serving::ServiceStats st = service.stats();
  EXPECT_EQ(st.engine_builds, 2 * kShapes);
  EXPECT_EQ(st.engine_evictions, 2 * kShapes - EngineCache::kCapacity);
  EXPECT_EQ(st.engine_builds - st.engine_evictions, EngineCache::kCapacity);
}

TEST(ServingFlow, FlowStreamMatchesComputeFlowPairs) {
  tvl1::Tvl1Params p;
  p.pyramid_levels = 2;
  p.warps = 1;
  p.chambolle.iterations = 4;
  FlowServiceOptions opts;
  opts.params = p;
  opts.slots = 2;
  opts.lanes_per_slot = 1;
  FlowService service(opts);
  auto session = service.open_session();

  Rng rng(9300);
  std::vector<Image> frames;
  for (int f = 0; f < 3; ++f) frames.push_back(random_image(rng, 28, 24));

  Reply primed = session->submit_frame(frames[0]).get();
  EXPECT_EQ(primed.status, ReplyStatus::kPrimed);
  for (int f = 1; f < 3; ++f) {
    Reply r = session->submit_frame(frames[f]).get();
    ASSERT_EQ(r.status, ReplyStatus::kOk);
    const FlowField want = tvl1::compute_flow(frames[f - 1], frames[f], p);
    expect_memcmp_eq(r.flow.u1, want.u1, "flow stream u1");
    expect_memcmp_eq(r.flow.u2, want.u2, "flow stream u2");
    EXPECT_GT(r.flow_stats.levels_processed, 0);
  }
  EXPECT_EQ(service.stats().primed, 1u);
}

// A flow session's first flow builds one engine per pyramid level in its
// slot's cache; later frames rebind them and build none.
TEST(ServingFlow, SteadyFlowSessionStopsBuildingEngines) {
  tvl1::Tvl1Params p;
  p.solver = tvl1::InnerSolver::kResident;
  p.pyramid_levels = 3;
  p.warps = 2;
  p.chambolle.iterations = 4;
  p.tiled.merge_iterations = 2;
  FlowServiceOptions opts;
  opts.params = p;
  opts.slots = 1;
  opts.lanes_per_slot = 2;
  FlowService service(opts);
  auto session = service.open_session();

  Rng rng(9500);
  std::vector<Image> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(random_image(rng, 64, 72));
  EXPECT_EQ(session->submit_frame(frames[0]).get().status,
            ReplyStatus::kPrimed);
  EXPECT_EQ(service.stats().engine_builds, 0u);
  for (int f = 1; f < 4; ++f) {
    Reply r = session->submit_frame(frames[f]).get();
    ASSERT_EQ(r.status, ReplyStatus::kOk);
    const FlowField want = tvl1::compute_flow(frames[f - 1], frames[f], p);
    expect_memcmp_eq(r.flow.u1, want.u1, "cached-engine flow u1");
    expect_memcmp_eq(r.flow.u2, want.u2, "cached-engine flow u2");
    ASSERT_EQ(r.flow_stats.levels_processed, 3);
    EXPECT_EQ(service.stats().engine_builds, 3u) << "frame " << f;
  }
}

// Deterministic queue-full shedding: one slot, its worker pinned down by a
// big solve from session A, so session B's queue fills at our pace.
TEST(ServingAdmission, QueueFullShedsAndStreamContinuesAsIfNeverSubmitted) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.params.chambolle.iterations = 60;  // the blocker's budget
  opts.slots = 1;
  opts.lanes_per_slot = 1;
  opts.queue_capacity = 1;
  opts.max_batch = 1;
  FlowService service(opts);
  auto blocker_session = service.open_session();
  auto session = service.open_session();

  auto blocker = blocker_session->submit(random_v(384, 384, 9400));
  // Wait until the worker has CLAIMED the blocker (queue empty again) so
  // the next submits provably queue behind a busy slot.
  while (service.stats().queue_depth != 0) std::this_thread::yield();

  std::vector<Matrix<float>> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(random_v(20, 20, 9410 + f));
  auto f0 = session->submit(frames[0]);  // queues (slot busy)
  auto f1 = session->submit(frames[1]);  // fifo at capacity: must shed NOW
  Reply shed = f1.get();
  EXPECT_EQ(shed.status, ReplyStatus::kShedQueueFull);
  EXPECT_EQ(shed.sequence, 1u);

  ASSERT_EQ(blocker.get().status, ReplyStatus::kOk);
  ASSERT_EQ(f0.get().status, ReplyStatus::kOk);
  Reply r2 = session->submit(frames[2]).get();
  Reply r3 = session->submit(frames[3]).get();
  ASSERT_EQ(r2.status, ReplyStatus::kOk);
  ASSERT_EQ(r3.status, ReplyStatus::kOk);

  // The stream must read as if the shed frame was never submitted: the
  // warm chain is frames[0] -> frames[2] -> frames[3].
  const std::vector<Matrix<float>> want =
      serial_chain({frames[0], frames[2], frames[3]}, opts.params);
  expect_memcmp_eq(r2.u, want[1], "post-shed continuation frame 2");
  expect_memcmp_eq(r3.u, want[2], "post-shed continuation frame 3");
  EXPECT_GE(service.stats().shed_queue_full, 1u);
}

// Deterministic deadline shedding: the queued request waits out the whole
// blocker solve, far past the SLO, and must be dropped at dispatch with
// the session state untouched.
TEST(ServingAdmission, DeadlineShedsWhenQueuedPastSlo) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.params.chambolle.iterations = 60;
  opts.slots = 1;
  opts.lanes_per_slot = 1;
  opts.queue_capacity = 8;
  opts.slo_ms = 5.0;  // far above dispatch latency, far below the blocker
  FlowService service(opts);
  auto blocker_session = service.open_session();
  auto session = service.open_session();

  auto blocker = blocker_session->submit(random_v(512, 512, 9500));
  while (service.stats().queue_depth != 0) std::this_thread::yield();

  const Matrix<float> v = random_v(20, 20, 9501);
  Reply shed = session->submit(v).get();  // waits out the blocker, then sheds
  EXPECT_EQ(shed.status, ReplyStatus::kShedDeadline);
  EXPECT_GT(shed.queue_ms, opts.slo_ms);
  ASSERT_EQ(blocker.get().status, ReplyStatus::kOk);

  const serving::ServiceStats st = service.stats();
  EXPECT_GE(st.shed_deadline, 1u);
  EXPECT_EQ(st.completed, 1u);  // only the blocker solved
}

TEST(ServingAdmission, DrainRejectsNewSubmits) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 1;
  FlowService service(opts);
  auto session = service.open_session();
  ASSERT_EQ(session->submit(random_v(16, 16, 9600)).get().status,
            ReplyStatus::kOk);
  service.drain();
  EXPECT_EQ(session->submit(random_v(16, 16, 9601)).get().status,
            ReplyStatus::kClosed);
}

// A request whose solve throws (here FlowSession's non-finite-frame check)
// reaches its client as the future's exception and is booked as failed, so
// every admitted request stays accounted for.
TEST(ServingAdmission, FailedRequestIsBookedAndThrowsThroughItsFuture) {
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 1;
  opts.lanes_per_slot = 1;
  FlowService service(opts);
  auto session = service.open_session();
  Rng rng(9700);
  Image bad = random_image(rng, 28, 24);
  bad(5, 7) = std::numeric_limits<float>::quiet_NaN();
  std::future<Reply> failed = session->submit_frame(std::move(bad));
  EXPECT_THROW((void)failed.get(), std::invalid_argument);
  // The stream itself is unharmed: the next frame primes it.
  EXPECT_EQ(session->submit_frame(random_image(rng, 28, 24)).get().status,
            ReplyStatus::kPrimed);
  service.drain();
  const serving::ServiceStats st = service.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.admitted, st.completed + st.shed_deadline + st.failed);
}

// Satellite assertion: more sessions than slots and lanes must make
// progress (the old failure mode was whole-region serialization on the
// shared default pool; the fleet's per-slot pools make sessions overlap
// and, above all, never deadlock).
TEST(ServingFleet, MoreSessionsThanSlotsAndLanesCompletes) {
  // The latency quantiles come from the service's own histogram, which
  // records whether or not telemetry is on.
  const TelemetryOff telemetry_off;
  FlowServiceOptions opts;
  opts.params = quick_params();
  opts.slots = 2;
  opts.lanes_per_slot = 1;
  opts.queue_capacity = 8;
  FlowService service(opts);

  constexpr int kSessions = 6;
  constexpr int kFrames = 3;
  std::vector<std::shared_ptr<FlowService::Session>> sessions;
  std::vector<std::vector<Matrix<float>>> frames(kSessions);
  std::vector<std::vector<std::future<Reply>>> futures(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service.open_session());
    ASSERT_GE(planned_strips(120 + s, 104 + s, opts.params), 2u);
    for (int f = 0; f < kFrames; ++f)
      frames[s].push_back(random_v(120 + s, 104 + s, 9700 + 10 * s + f));
  }
  for (int f = 0; f < kFrames; ++f)
    for (int s = 0; s < kSessions; ++s)
      futures[s].push_back(sessions[s]->submit(frames[s][f]));

  for (int s = 0; s < kSessions; ++s) {
    const std::vector<Matrix<float>> want =
        serial_chain(frames[s], opts.params);
    for (int f = 0; f < kFrames; ++f) {
      Reply r = futures[s][f].get();
      ASSERT_EQ(r.status, ReplyStatus::kOk) << "session " << s;
      expect_memcmp_eq(r.u, want[f], "fleet session frame");
    }
  }
  const serving::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kSessions * kFrames));
  EXPECT_GT(st.batches, 0u);
  EXPECT_GT(st.p50_ms, 0.0);
  EXPECT_LE(st.p50_ms, st.p95_ms);
  EXPECT_LE(st.p95_ms, st.p99_ms);
}

// The tentpole exactness claim, via the seeded differential oracle:
// interleaved sessions through one service == each session's serial
// fresh-engine replay, bit for bit, at every fleet lane count.
TEST(ConcurrentSessionsOracle, InterleavedMatchesSerialAcrossLaneCounts) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const oracle::ConcurrentOracleReport report =
        oracle::run_concurrent_oracle(seed);
    EXPECT_TRUE(report.pass) << report.failure_report();
    EXPECT_EQ(report.lane_counts_checked, 2);
    // The 3-lane slots split every stream: halo exchange is under test.
    ASSERT_EQ(report.fewest_strips.size(), 2u) << report.case_line;
    EXPECT_GE(report.fewest_strips[1], 2) << report.case_line;
  }
}

// Same isolation claim for flow-mode streams (pyramid state instead of
// dual state): interleaved == one-session-at-a-time replay.
TEST(ConcurrentSessionsOracle, FlowModeInterleavedMatchesSoloReplay) {
  tvl1::Tvl1Params p;
  p.pyramid_levels = 2;
  p.warps = 1;
  p.chambolle.iterations = 4;
  FlowServiceOptions opts;
  opts.params = p;
  opts.slots = 2;
  opts.lanes_per_slot = 2;
  opts.queue_capacity = 32;
  FlowService service(opts);

  constexpr int kSessions = 3;
  constexpr int kFrames = 3;
  Rng rng(9800);
  std::vector<std::vector<Image>> frames(kSessions);
  for (int s = 0; s < kSessions; ++s)
    for (int f = 0; f < kFrames; ++f)
      frames[s].push_back(random_image(rng, 26 + 2 * s, 22 + 2 * s));

  std::vector<std::shared_ptr<FlowService::Session>> sessions;
  std::vector<std::vector<std::future<Reply>>> futures(kSessions);
  for (int s = 0; s < kSessions; ++s) sessions.push_back(service.open_session());
  for (int f = 0; f < kFrames; ++f)
    for (int s = 0; s < kSessions; ++s)
      futures[s].push_back(sessions[s]->submit_frame(frames[s][f]));

  for (int s = 0; s < kSessions; ++s) {
    tvl1::FlowSession solo(p);
    for (int f = 0; f < kFrames; ++f) {
      Reply r = futures[s][f].get();
      const std::optional<FlowField> want = solo.push_frame(frames[s][f]);
      if (f == 0) {
        EXPECT_EQ(r.status, ReplyStatus::kPrimed);
        EXPECT_FALSE(want.has_value());
        continue;
      }
      ASSERT_EQ(r.status, ReplyStatus::kOk);
      ASSERT_TRUE(want.has_value());
      expect_memcmp_eq(r.flow.u1, want->u1, "flow-mode interleaved u1");
      expect_memcmp_eq(r.flow.u2, want->u2, "flow-mode interleaved u2");
    }
  }
}

// FlowSession (tvl1 layer): the pyramid cache must be unobservable, and
// reset()/shape changes must behave as documented.
TEST(FlowSessionTest, StreamMatchesPairwiseComputeFlow) {
  tvl1::Tvl1Params p;
  p.pyramid_levels = 2;
  p.warps = 1;
  p.chambolle.iterations = 4;
  tvl1::FlowSession session(p);
  Rng rng(9900);
  std::vector<Image> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(random_image(rng, 30, 26));

  EXPECT_FALSE(session.push_frame(frames[0]).has_value());
  for (int f = 1; f < 4; ++f) {
    const std::optional<FlowField> got = session.push_frame(frames[f]);
    ASSERT_TRUE(got.has_value());
    const FlowField want = tvl1::compute_flow(frames[f - 1], frames[f], p);
    expect_memcmp_eq(got->u1, want.u1, "session vs pairwise u1");
    expect_memcmp_eq(got->u2, want.u2, "session vs pairwise u2");
  }
  EXPECT_EQ(session.frames(), 4);

  session.reset();
  EXPECT_EQ(session.frames(), 0);
  EXPECT_FALSE(session.push_frame(frames[0]).has_value());  // primes again
}

// A standalone session keeps its per-level engines across frames: after
// its first flow no frame builds one, by its cache's count and by
// tiles.engine_builds.
TEST(FlowSessionTest, BuildsNoEnginesAfterItsFirstFlow) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Counter& builds =
      telemetry::registry().counter("tiles.engine_builds");
  tvl1::Tvl1Params p;
  p.solver = tvl1::InnerSolver::kResident;
  p.pyramid_levels = 3;
  p.warps = 2;
  p.chambolle.iterations = 4;
  p.tiled.merge_iterations = 2;
  tvl1::FlowSession session(p);
  Rng rng(9920);
  std::vector<Image> frames;
  for (int f = 0; f < 5; ++f) frames.push_back(random_image(rng, 64, 72));

  (void)session.push_frame(frames[0]);
  (void)session.push_frame(frames[1]);
  EXPECT_EQ(session.own_engines().builds(), 3u);
  for (int f = 2; f < 5; ++f) {
    const FlowField want = tvl1::compute_flow(frames[f - 1], frames[f], p);
    const std::uint64_t builds0 = builds.value();
    const std::optional<FlowField> got = session.push_frame(frames[f]);
    EXPECT_EQ(builds.value(), builds0) << "frame " << f;
    EXPECT_EQ(session.own_engines().builds(), 3u) << "frame " << f;
    ASSERT_TRUE(got.has_value());
    expect_memcmp_eq(got->u1, want.u1, "cached-engine session u1");
    expect_memcmp_eq(got->u2, want.u2, "cached-engine session u2");
  }
  telemetry::set_enabled(was_enabled);
}

TEST(FlowSessionTest, ShapeChangeMidStreamThrows) {
  tvl1::Tvl1Params p;
  p.pyramid_levels = 2;
  p.warps = 1;
  p.chambolle.iterations = 2;
  tvl1::FlowSession session(p);
  Rng rng(9910);
  (void)session.push_frame(random_image(rng, 20, 20));
  EXPECT_THROW((void)session.push_frame(random_image(rng, 22, 20)),
               std::invalid_argument);
  session.reset();
  EXPECT_FALSE(session.push_frame(random_image(rng, 22, 20)).has_value());
}

// Per-session metric scoping: a ScopedMetrics prefix must resolve to the
// same underlying registry objects as the fully qualified name, so the
// process-wide snapshot sees every session without interleaving them.
TEST(ScopedMetricsTest, PrefixResolvesIntoSharedRegistry) {
  telemetry::ScopedMetrics scope("serving.session.test42");
  EXPECT_EQ(scope.scoped("admitted"), "serving.session.test42.admitted");
  telemetry::Counter& scoped = scope.counter("admitted");
  telemetry::Counter& direct =
      telemetry::registry().counter("serving.session.test42.admitted");
  EXPECT_EQ(&scoped, &direct);

  telemetry::ScopedMetrics empty("");
  EXPECT_EQ(&empty.counter("serving.admitted"),
            &telemetry::registry().counter("serving.admitted"));
}

}  // namespace
}  // namespace chambolle
