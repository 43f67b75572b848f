#include "chambolle/tile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace chambolle {
namespace {

// Checks the plan's core invariant: profitable rectangles partition the frame.
void expect_partition(const TilingPlan& plan) {
  Matrix<int> cover(plan.frame_rows, plan.frame_cols, 0);
  for (const TileSpec& t : plan.tiles) {
    EXPECT_GE(t.prof_row0, t.buf_row0);
    EXPECT_GE(t.prof_col0, t.buf_col0);
    EXPECT_LE(t.prof_row0 + t.prof_rows, t.buf_row0 + t.buf_rows);
    EXPECT_LE(t.prof_col0 + t.prof_cols, t.buf_col0 + t.buf_cols);
    for (int r = 0; r < t.prof_rows; ++r)
      for (int c = 0; c < t.prof_cols; ++c)
        cover(t.prof_row0 + r, t.prof_col0 + c) += 1;
  }
  for (int r = 0; r < plan.frame_rows; ++r)
    for (int c = 0; c < plan.frame_cols; ++c)
      EXPECT_EQ(cover(r, c), 1) << "(" << r << "," << c << ")";
}

// Checks the halo invariant: every profitable cell is at least `halo` cells
// away from any buffer edge that is not a frame border.
void expect_halo(const TilingPlan& plan) {
  for (const TileSpec& t : plan.tiles) {
    if (t.buf_row0 > 0) {
      EXPECT_GE(t.prof_row0 - t.buf_row0, plan.halo);
    }
    if (t.buf_col0 > 0) {
      EXPECT_GE(t.prof_col0 - t.buf_col0, plan.halo);
    }
    if (t.buf_row0 + t.buf_rows < plan.frame_rows) {
      EXPECT_GE((t.buf_row0 + t.buf_rows) - (t.prof_row0 + t.prof_rows),
                plan.halo);
    }
    if (t.buf_col0 + t.buf_cols < plan.frame_cols) {
      EXPECT_GE((t.buf_col0 + t.buf_cols) - (t.prof_col0 + t.prof_cols),
                plan.halo);
    }
  }
}

TEST(Tiling, SingleTileWhenFrameFits) {
  const TilingPlan plan = make_tiling(50, 60, 88, 92, 4);
  ASSERT_EQ(plan.tiles.size(), 1u);
  EXPECT_EQ(plan.tiles[0].buf_rows, 50);
  EXPECT_EQ(plan.tiles[0].buf_cols, 60);
  EXPECT_EQ(plan.tiles[0].prof_rows, 50);  // frame borders: no halo loss
  EXPECT_DOUBLE_EQ(plan.redundancy(), 0.0);
}

TEST(Tiling, PaperConfiguration512) {
  const TilingPlan plan = make_tiling(512, 512, 88, 92, 4);
  expect_partition(plan);
  expect_halo(plan);
  EXPECT_GT(plan.tiles.size(), 1u);
  EXPECT_EQ(plan.total_profitable_elements(), 512u * 512u);
  // "a slight memory overhead" — the paper claims the replication is small.
  EXPECT_GT(plan.redundancy(), 0.0);
  EXPECT_LT(plan.redundancy(), 0.35);
}

TEST(Tiling, PaperConfiguration1024x768) {
  const TilingPlan plan = make_tiling(768, 1024, 88, 92, 4);
  expect_partition(plan);
  expect_halo(plan);
  EXPECT_EQ(plan.total_profitable_elements(), 768u * 1024u);
}

TEST(Tiling, BuffersNeverExceedTileSize) {
  for (int halo : {1, 4, 8, 16}) {
    const TilingPlan plan = make_tiling(300, 400, 88, 92, halo);
    for (const TileSpec& t : plan.tiles) {
      EXPECT_LE(t.buf_rows, 88);
      EXPECT_LE(t.buf_cols, 92);
      EXPECT_GT(t.prof_rows, 0);
      EXPECT_GT(t.prof_cols, 0);
    }
  }
}

TEST(Tiling, ZeroHaloTilesExactly) {
  const TilingPlan plan = make_tiling(100, 100, 40, 50, 0);
  expect_partition(plan);
  EXPECT_DOUBLE_EQ(plan.redundancy(), 0.0);
  EXPECT_EQ(plan.tiles.size(), 3u * 2u);
}

TEST(Tiling, RedundancyGrowsWithHalo) {
  const double r2 = make_tiling(256, 256, 88, 92, 2).redundancy();
  const double r8 = make_tiling(256, 256, 88, 92, 8).redundancy();
  const double r16 = make_tiling(256, 256, 88, 92, 16).redundancy();
  EXPECT_LT(r2, r8);
  EXPECT_LT(r8, r16);
}

TEST(Tiling, InvalidArgumentsThrow) {
  EXPECT_THROW(make_tiling(0, 10, 8, 8, 1), std::invalid_argument);
  EXPECT_THROW(make_tiling(10, 10, 8, 8, -1), std::invalid_argument);
  EXPECT_THROW(make_tiling(10, 10, 8, 8, 4), std::invalid_argument);  // 8<=2*4
}

// Partition + halo invariants over a randomized-ish parameter sweep.
struct TilingCase {
  int rows, cols, tile_rows, tile_cols, halo;
};

class TilingProperty : public ::testing::TestWithParam<TilingCase> {};

TEST_P(TilingProperty, PartitionAndHaloHold) {
  const TilingCase& tc = GetParam();
  const TilingPlan plan =
      make_tiling(tc.rows, tc.cols, tc.tile_rows, tc.tile_cols, tc.halo);
  expect_partition(plan);
  expect_halo(plan);
  EXPECT_EQ(plan.total_profitable_elements(),
            static_cast<std::size_t>(tc.rows) * tc.cols);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TilingProperty,
    ::testing::Values(TilingCase{17, 23, 9, 11, 2}, TilingCase{100, 3, 30, 3, 1},
                      TilingCase{3, 100, 3, 30, 1}, TilingCase{512, 512, 88, 92, 8},
                      TilingCase{89, 93, 88, 92, 4}, TilingCase{88, 92, 88, 92, 40},
                      TilingCase{200, 200, 21, 23, 10},
                      TilingCase{768, 1024, 88, 92, 16},
                      TilingCase{91, 91, 88, 92, 4}));

// --- plan_tiling: the resident engine's own tiling ------------------------
// (The suite name matches the CI TSan filter.)

// Cells not covered by exactly one profitable rectangle: expect_partition's
// check without an assertion per cell, for frames of a million cells.
std::size_t partition_errors(const TilingPlan& plan) {
  Matrix<int> cover(plan.frame_rows, plan.frame_cols, 0);
  for (const TileSpec& t : plan.tiles)
    for (int r = 0; r < t.prof_rows; ++r)
      for (int c = 0; c < t.prof_cols; ++c)
        cover(t.prof_row0 + r, t.prof_col0 + c) += 1;
  return static_cast<std::size_t>(
      std::count_if(cover.data().begin(), cover.data().end(),
                    [](int n) { return n != 1; }));
}

struct PlanShape {
  int rows, cols;
};

// Every pyramid level of the benchmark workloads, Table II's frame, lines,
// frames of 2 * halo + 1 cells or fewer, long thin strips, and short wide
// frames whose balanced cut into 3 strips leaves a middle strip thinner
// than the halo (17 x 1060) or exactly as thin (20 x 1000).
constexpr PlanShape kPlanShapes[] = {
    {252, 316}, {126, 158}, {63, 79},  {32, 40},  // tvl1_316x252
    {768, 1024},                                  // rof_1024x768
    {128, 128}, {192, 256},                       // serve_mixed, Chambolle
    {120, 160}, {60, 80},   {30, 40},  {15, 20},  // serve_mixed, flow
    {1, 4096},  {4096, 1},  {1, 1},    {9, 9},   {8, 8},
    {9, 4096},  {4096, 9},  {17, 1060}, {20, 1000}};
constexpr int kPlanHalo = 4;

// plan_tiling's rule, spelled out: the fewest strips per field that minimize
// the busiest lane's share ceil(fields * s / lanes) / s, at most one strip
// per kMinStripCells cells and at most one per lane, over the counts s
// whose balanced cut is exactly s strips, each keeping at least kPlanHalo
// profitable rows when there is more than one.
int rule_strips(int rows, int cols, int fields, int lanes) {
  const long long cells = static_cast<long long>(rows) * cols;
  const int cap = static_cast<int>(
      std::clamp<long long>(cells / kMinStripCells, 1, lanes));
  const auto share = [&](int s) {
    return static_cast<double>((fields * s + lanes - 1) / lanes) / s;
  };
  const auto admits = [&](int s) {
    const int height = (rows + 2 * kPlanHalo * (s - 1) + s - 1) / s;
    const TilingPlan cut =
        make_tiling(rows, cols, std::max(height, 2 * kPlanHalo + 1),
                    std::max(cols, 2 * kPlanHalo + 1), kPlanHalo);
    return static_cast<int>(cut.tiles.size()) == s &&
           std::all_of(cut.tiles.begin(), cut.tiles.end(),
                       [](const TileSpec& t) {
                         return t.prof_rows >= kPlanHalo;
                       });
  };
  int best = 1;
  for (int s = 2; s <= cap; ++s)
    if (share(s) < share(best) - 1e-12 && admits(s)) best = s;
  return best;
}

TEST(ResidentPlan, BalancedFullWidthStripsFollowTheRule) {
  for (const PlanShape& shape : kPlanShapes) {
    for (int fields = 1; fields <= 2; ++fields) {
      for (int lanes = 1; lanes <= 8; ++lanes) {
        SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                     std::to_string(shape.cols) + " fields " +
                     std::to_string(fields) + " lanes " +
                     std::to_string(lanes));
        const TilingPlan plan =
            plan_tiling(shape.rows, shape.cols, fields, lanes, kPlanHalo);
        EXPECT_EQ(plan.halo, kPlanHalo);
        EXPECT_EQ(partition_errors(plan), 0u);
        expect_halo(plan);
        const auto planned = static_cast<int>(plan.tiles.size());
        EXPECT_EQ(planned,
                  rule_strips(shape.rows, shape.cols, fields, lanes));
        // Full width, and no sliver: buffer heights differ by fewer rows
        // than there are strips.
        int lo = shape.rows, hi = 0;
        for (const TileSpec& t : plan.tiles) {
          EXPECT_EQ(t.buf_col0, 0);
          EXPECT_EQ(t.buf_cols, shape.cols);
          lo = std::min(lo, t.buf_rows);
          hi = std::max(hi, t.buf_rows);
        }
        EXPECT_LT(hi - lo, planned);
      }
    }
  }
}

// What lets the engine trade halos with two neighbors only: the `halo`
// buffer rows above a strip's profitable rows are exactly the last `halo`
// profitable rows of the strip above, those below it exactly the first
// `halo` profitable rows of the strip below, and the frame's first and
// last strips have no halo on the border side.
TEST(ResidentPlan, EachHaloComesFromTheAdjacentStrips) {
  for (const PlanShape& shape : kPlanShapes) {
    for (int fields = 1; fields <= 2; ++fields) {
      for (int lanes = 1; lanes <= 8; ++lanes) {
        SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                     std::to_string(shape.cols) + " fields " +
                     std::to_string(fields) + " lanes " +
                     std::to_string(lanes));
        const TilingPlan plan =
            plan_tiling(shape.rows, shape.cols, fields, lanes, kPlanHalo);
        // The strip whose profitable rows hold each frame row.
        std::vector<int> owner(static_cast<std::size_t>(shape.rows), -1);
        for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
          const TileSpec& s = plan.tiles[t];
          for (int r = s.prof_row0; r < s.prof_row0 + s.prof_rows; ++r)
            owner[static_cast<std::size_t>(r)] = static_cast<int>(t);
        }
        const int n = static_cast<int>(plan.tiles.size());
        for (int t = 0; t < n; ++t) {
          const TileSpec& s = plan.tiles[static_cast<std::size_t>(t)];
          const int prof_end = s.prof_row0 + s.prof_rows;
          const int buf_end = s.buf_row0 + s.buf_rows;
          EXPECT_EQ(s.prof_row0 - s.buf_row0, t > 0 ? kPlanHalo : 0);
          EXPECT_EQ(buf_end - prof_end, t + 1 < n ? kPlanHalo : 0);
          for (int r = s.buf_row0; r < s.prof_row0; ++r)
            EXPECT_EQ(owner[static_cast<std::size_t>(r)], t - 1) << r;
          for (int r = prof_end; r < buf_end; ++r)
            EXPECT_EQ(owner[static_cast<std::size_t>(r)], t + 1) << r;
        }
      }
    }
  }
  // 17 x 1060 on 3 lanes: the balanced 3-strip cut keeps 7 / 3 / 7 rows,
  // so the planner takes 2 strips.  20 x 1000 keeps 8 / 4 / 8: a middle
  // strip of exactly the halo is still adjacent-only.
  EXPECT_EQ(plan_tiling(17, 1060, 1, 3, kPlanHalo).tiles.size(), 2u);
  const TilingPlan thin = plan_tiling(20, 1000, 1, 3, kPlanHalo);
  ASSERT_EQ(thin.tiles.size(), 3u);
  EXPECT_EQ(thin.tiles[1].prof_rows, kPlanHalo);
}

TEST(ResidentPlan, WorkloadLevelsOnTheirLanes) {
  const auto strips = [](int rows, int cols, int fields, int lanes) {
    return plan_tiling(rows, cols, fields, lanes, kPlanHalo).tiles.size();
  };
  // rof_1024x768: one field, 3 lanes — one strip per lane.
  EXPECT_EQ(strips(768, 1024, 1, 3), 3u);
  // tvl1_316x252: two fields on 3 lanes — 6 nodes, two per lane — down to
  // the levels under the cell floor, one tile per field.
  EXPECT_EQ(strips(252, 316, 2, 3), 3u);
  EXPECT_EQ(strips(126, 158, 2, 3), 3u);
  EXPECT_EQ(strips(63, 79, 2, 3), 1u);
  EXPECT_EQ(strips(32, 40, 2, 3), 1u);
  // serve_mixed's slots have 2 lanes: a Chambolle field splits in two, a
  // flow level's two fields already fill both lanes.
  EXPECT_EQ(strips(192, 256, 1, 2), 2u);
  EXPECT_EQ(strips(128, 128, 1, 2), 2u);
  EXPECT_EQ(strips(120, 160, 2, 2), 1u);
  // The balanced cut of 252 rows: buffers 90/90/88, profitable 86/82/84 —
  // where the 88-row window cut 84/80/80/8.
  const TilingPlan plan = plan_tiling(252, 316, 1, 3, kPlanHalo);
  ASSERT_EQ(plan.tiles.size(), 3u);
  EXPECT_EQ(plan.tiles[0].buf_rows, 90);
  EXPECT_EQ(plan.tiles[1].buf_rows, 90);
  EXPECT_EQ(plan.tiles[2].buf_rows, 88);
  EXPECT_EQ(plan.tiles[0].prof_rows, 86);
  EXPECT_EQ(plan.tiles[1].prof_rows, 82);
  EXPECT_EQ(plan.tiles[2].prof_rows, 84);
}

TEST(ResidentPlan, DegenerateShapesPlanOrThrow) {
  EXPECT_THROW((void)plan_tiling(0, 5, 1, 2, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_tiling(5, 0, 1, 2, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_tiling(-3, 5, 1, 2, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_tiling(5, 5, 0, 2, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_tiling(5, 5, 1, 0, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_tiling(5, 5, 1, 2, -1), std::invalid_argument);
  // Frames no larger than the halo still plan: one tile, no margin lost.
  for (const int halo : {0, 1, 4, 16}) {
    for (const PlanShape shape : {PlanShape{1, 1}, PlanShape{2, 3},
                                  PlanShape{2 * halo + 1, 2 * halo + 1}}) {
      const TilingPlan plan = plan_tiling(shape.rows, shape.cols, 2, 8, halo);
      ASSERT_EQ(plan.tiles.size(), 1u);
      EXPECT_EQ(plan.tiles[0].prof_rows, shape.rows);
      EXPECT_EQ(plan.tiles[0].prof_cols, shape.cols);
    }
  }
}

}  // namespace
}  // namespace chambolle
