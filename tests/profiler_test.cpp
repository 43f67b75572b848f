// profiler_test.cpp — the per-lane execution profiler.
//
// The acceptance invariant: a profiled resident solve attributes >= 95% of
// every lane's session wall time across the four causes (kernel, epoch wait,
// mailbox, idle).  Idle is defined as the residual, so the
// partition is exact by construction; these tests pin that down, plus the
// session state machine, the manual attribution paths, and a deliberately
// imbalanced tile grid whose imbalance_ratio the report must expose.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/profiler.hpp"
#include "testing/resident_peer.hpp"

namespace chambolle {
namespace {

using Peer = ResidentTiledEngineTestPeer;

namespace tel = telemetry;

/// Ends any session a failed assertion left behind so tests stay isolated.
struct SessionGuard {
  ~SessionGuard() { tel::Profiler::instance().cancel(); }
};

TEST(ProfilerSession, BeginEndStateMachine) {
  const SessionGuard guard;
  EXPECT_THROW(tel::Profiler::instance().end(), std::logic_error);
  tel::Profiler::instance().begin(2);
  EXPECT_THROW(tel::Profiler::instance().begin(2), std::logic_error);
  const tel::UtilizationReport r = tel::Profiler::instance().end();
  ASSERT_EQ(r.lanes.size(), 2u);
  EXPECT_THROW(tel::Profiler::instance().end(), std::logic_error);
  // cancel() is the test-cleanup escape hatch: active -> inactive, no report.
  tel::Profiler::instance().begin(1);
  tel::Profiler::instance().cancel();
  EXPECT_THROW(tel::Profiler::instance().end(), std::logic_error);
}

TEST(ProfilerSession, NoSessionMeansInertRecorders) {
  const SessionGuard guard;
  EXPECT_FALSE(tel::profiler_active());
  // Recording outside a session must be a safe no-op...
  const int prev = tel::profiler_set_lane(0);
  tel::profiler_add(tel::LaneCause::kKernel, 1.0);
  tel::profiler_add_tile(0, 1.0);
  { const tel::ProfScope scope(tel::LaneCause::kMailbox); }
  tel::profiler_set_lane(prev);
  // ...and must not leak into the next session.
  tel::Profiler::instance().begin(1);
  const tel::UtilizationReport r = tel::Profiler::instance().end();
  ASSERT_EQ(r.lanes.size(), 1u);
  for (int c = 0; c < tel::kLaneCauseCount; ++c)
    EXPECT_EQ(r.lanes[0].events[c], 0u);
  EXPECT_DOUBLE_EQ(
      r.lanes[0].seconds[static_cast<int>(tel::LaneCause::kKernel)], 0.0);
  EXPECT_TRUE(r.tiles.empty());
}

TEST(ProfilerSession, SetLaneNestsAndRestores) {
  EXPECT_EQ(tel::profiler_lane(), -1);  // threads start unmapped
  const int prev = tel::profiler_set_lane(3);
  EXPECT_EQ(prev, -1);
  EXPECT_EQ(tel::profiler_lane(), 3);
  const int inner = tel::profiler_set_lane(0);  // nested region remaps
  EXPECT_EQ(inner, 3);
  tel::profiler_set_lane(inner);
  EXPECT_EQ(tel::profiler_lane(), 3);
  tel::profiler_set_lane(prev);
  EXPECT_EQ(tel::profiler_lane(), -1);
}

TEST(ProfilerSession, ManualAttributionRoundTrip) {
  const SessionGuard guard;
  tel::Profiler::instance().begin(2, /*max_tiles=*/8);
  const int prev = tel::profiler_set_lane(0);
  tel::profiler_add(tel::LaneCause::kKernel, 0.010);
  tel::profiler_add(tel::LaneCause::kEpochWait, 0.002);
  tel::profiler_add(tel::LaneCause::kIdle, 0.5);  // dropped: idle is derived
  tel::profiler_add_tile(3, 0.010);
  tel::profiler_add_tile(99, 1.0);  // dropped: out of max_tiles range
  tel::profiler_set_lane(7);        // out of the 2-lane session range
  tel::profiler_add(tel::LaneCause::kKernel, 1.0);  // dropped
  tel::profiler_set_lane(prev);
  const tel::UtilizationReport r = tel::Profiler::instance().end();

  ASSERT_EQ(r.lanes.size(), 2u);
  const tel::LaneUsage& l0 = r.lanes[0];
  EXPECT_NEAR(l0.seconds[static_cast<int>(tel::LaneCause::kKernel)], 0.010,
              1e-6);
  EXPECT_NEAR(l0.seconds[static_cast<int>(tel::LaneCause::kEpochWait)], 0.002,
              1e-6);
  EXPECT_EQ(l0.events[static_cast<int>(tel::LaneCause::kKernel)], 1u);
  EXPECT_EQ(l0.events[static_cast<int>(tel::LaneCause::kEpochWait)], 1u);
  EXPECT_EQ(l0.events[static_cast<int>(tel::LaneCause::kIdle)], 0u);
  EXPECT_NEAR(l0.attributed(), 0.012, 1e-6);
  // Lane 1 saw nothing: all idle.
  EXPECT_DOUBLE_EQ(r.lanes[1].attributed(), 0.0);
  // The dropped records left no trace.
  EXPECT_EQ(r.lanes[1].events[static_cast<int>(tel::LaneCause::kKernel)], 0u);
  ASSERT_EQ(r.tiles.size(), 4u);  // trimmed to the highest touched tile
  EXPECT_EQ(r.tiles[3].passes, 1u);
  EXPECT_NEAR(r.tiles[3].seconds, 0.010, 1e-6);
}

TEST(ProfilerSession, IdleIsTheResidualAndTotalEqualsWall) {
  const SessionGuard guard;
  tel::Profiler::instance().begin(2);
  const int prev = tel::profiler_set_lane(0);
  tel::profiler_add(tel::LaneCause::kKernel, 1e-6);
  tel::profiler_set_lane(prev);
  // Let wall time dominate the attributed 1us so the idle residual is
  // genuinely positive (a session shorter than its recordings only clamps).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const tel::UtilizationReport r = tel::Profiler::instance().end();
  ASSERT_GT(r.wall_seconds, 0.0);
  for (const tel::LaneUsage& lane : r.lanes) {
    EXPECT_GE(lane.seconds[static_cast<int>(tel::LaneCause::kIdle)], 0.0);
    // total() = attributed + idle-residual = wall, exactly (modulo the >=
    // clamp, which can only fire when attributed > wall).
    EXPECT_NEAR(lane.total(), r.wall_seconds,
                1e-9 + 1e-6 * r.wall_seconds);
  }
}

// The acceptance invariant on the real engine: every lane of a profiled
// resident solve has >= 95% of its wall time attributed (total() is the
// five-way partition, so this is really a check that attributed <= wall and
// the instrumentation double-counts nothing).
TEST(ProfilerResident, SolveAttributesLaneWallTime) {
  const SessionGuard guard;
  Rng rng(11);
  const Matrix<float> v = random_image(rng, 128, 128, -1.f, 1.f);
  ChambolleParams params;
  params.iterations = 40;
  TiledSolverOptions options;
  options.merge_iterations = 4;
  options.num_threads = 4;
  const int lanes = parallel::default_pool().lanes_for(options.num_threads);

  tel::Profiler::instance().begin(lanes);
  const ChambolleResult result = Peer::solve_strips(v, 32, params, options);
  const tel::UtilizationReport report = tel::Profiler::instance().end();
  ASSERT_GT(result.u.size(), 0u);

  ASSERT_EQ(report.lanes.size(), static_cast<std::size_t>(lanes));
  ASSERT_GT(report.wall_seconds, 0.0);
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const tel::LaneUsage& lane = report.lanes[i];
    // >= 95% attribution, and no over-attribution beyond 5% either.
    EXPECT_GE(lane.total(), 0.95 * report.wall_seconds) << "lane " << i;
    EXPECT_LE(lane.total(), 1.05 * report.wall_seconds) << "lane " << i;
    EXPECT_GT(lane.events[static_cast<int>(tel::LaneCause::kKernel)], 0u)
        << "lane " << i;
  }
  EXPECT_GT(report.total_seconds(tel::LaneCause::kKernel), 0.0);
  EXPECT_GT(report.busy_fraction(), 0.0);
  EXPECT_LE(report.busy_fraction(), 1.0 + 1e-9);
  EXPECT_GE(report.imbalance_ratio(), 1.0 - 1e-9);

  // Per-strip pass timings: cutting 128 rows into 32-row buffers
  // overlapped by the 4-row merge halo yields 5 strips, each run
  // ceil(40 / 4) = 10 passes.
  ASSERT_EQ(report.tiles.size(), 5u);
  for (const tel::TileTiming& t : report.tiles) {
    EXPECT_EQ(t.passes, 10u);
    EXPECT_GT(t.seconds, 0.0);
  }

  // Export paths: valid JSON, and a table with one row per lane + summary.
  EXPECT_TRUE(tel::json_well_formed(report.to_json()));
  const std::string table = report.to_table();
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("all"), std::string::npos);
}

// A deliberately imbalanced cut: 3 equal strips over 2 lanes pins strip 0
// to lane 0 and strips {1, 2} to lane 1 (contiguous block ownership), so lane 1
// runs twice the kernel bursts.  The imbalance is asserted on counted
// bursts, not kernel seconds, so a loaded host cannot flip it; the exact
// counts also pin the engine's lane pinning (no burst runs off its owner's
// lane).
TEST(ProfilerResident, ImbalancedTileGridIsVisible) {
  if (parallel::default_pool().lanes_for(2) < 2)
    GTEST_SKIP() << "needs a 2-lane pool";
  const SessionGuard guard;
  Rng rng(5);
  const Matrix<float> v = random_image(rng, 172, 64, -1.f, 1.f);
  ChambolleParams params;
  params.iterations = 48;
  TiledSolverOptions options;
  // 64-row buffers overlapped by the 4-row merge halo cut a 172-row frame
  // into exactly 3 strips (profitable rows 60 + 56 + 56).
  options.merge_iterations = 4;
  options.num_threads = 2;

  tel::Profiler::instance().begin(2);
  (void)Peer::solve_strips(v, 64, params, options);
  const tel::UtilizationReport report = tel::Profiler::instance().end();

  ASSERT_EQ(report.tiles.size(), 3u);
  ASSERT_EQ(report.lanes.size(), 2u);
  const int kernel = static_cast<int>(tel::LaneCause::kKernel);
  EXPECT_GT(report.lanes[0].seconds[kernel], 0.0);
  // 48 iterations / merge 4 = 12 passes per strip; lane 1 owns two.
  EXPECT_EQ(report.lanes[0].events[kernel], 12u);
  EXPECT_EQ(report.lanes[1].events[kernel], 24u);
  EXPECT_LT(report.imbalance_ratio(), 2.0 + 1e-9);  // max/mean <= lanes
  // The starved lane's extra time shows up as stall or idle, not kernel:
  // attribution still covers its wall.
  EXPECT_GE(report.lanes[0].total(), 0.95 * report.wall_seconds);
}

TEST(ProfilerReport, JsonSchemaAndCauseNames) {
  tel::UtilizationReport r;
  r.wall_seconds = 0.010;
  r.lanes.resize(2);
  r.lanes[0].seconds[static_cast<int>(tel::LaneCause::kKernel)] = 0.008;
  r.lanes[0].events[static_cast<int>(tel::LaneCause::kKernel)] = 4;
  r.lanes[0].seconds[static_cast<int>(tel::LaneCause::kIdle)] = 0.002;
  r.lanes[1].seconds[static_cast<int>(tel::LaneCause::kIdle)] = 0.010;
  r.tiles.resize(2);
  r.tiles[1].passes = 3;
  r.tiles[1].seconds = 0.004;

  EXPECT_DOUBLE_EQ(r.busy_fraction(), 0.4);  // (0.008 + 0) / (2 * 0.010)
  EXPECT_DOUBLE_EQ(r.imbalance_ratio(), 2.0);
  EXPECT_DOUBLE_EQ(r.total_seconds(tel::LaneCause::kIdle), 0.012);

  const std::string json = r.to_json();
  ASSERT_TRUE(tel::json_well_formed(json));
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"imbalance_ratio\""), std::string::npos);
  for (int c = 0; c < tel::kLaneCauseCount; ++c) {
    const std::string key =
        std::string("\"") +
        tel::lane_cause_name(static_cast<tel::LaneCause>(c)) + "_seconds\"";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Tiles with zero passes are omitted; tile 1 is present.
  EXPECT_EQ(json.find("\"tile\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"tile\": 1"), std::string::npos);

  EXPECT_STREQ(tel::lane_cause_name(tel::LaneCause::kKernel), "kernel");
  EXPECT_STREQ(tel::lane_cause_name(tel::LaneCause::kEpochWait), "epoch_wait");
  EXPECT_STREQ(tel::lane_cause_name(tel::LaneCause::kMailbox), "mailbox");
  EXPECT_STREQ(tel::lane_cause_name(tel::LaneCause::kIdle), "idle");
}

}  // namespace
}  // namespace chambolle
