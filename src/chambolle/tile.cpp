#include "chambolle/tile.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace chambolle {
namespace {

/// Cuts one axis of length `frame` into buffer segments of at most `tile`
/// cells with `halo`-cell margins on interior edges; returns (buf0, buf_len,
/// prof0, prof_len) tuples whose profitable segments partition [0, frame).
struct AxisCut {
  int buf0, buf_len, prof0, prof_len;
};

std::vector<AxisCut> cut_axis(int frame, int tile, int halo) {
  std::vector<AxisCut> cuts;
  int prof_start = 0;  // next uncovered frame cell
  while (prof_start < frame) {
    AxisCut cut{};
    // The buffer begins `halo` cells before the profitable area, except at
    // the frame border where no margin is needed.
    cut.buf0 = prof_start == 0 ? 0 : prof_start - halo;
    const int buf_end = std::min(cut.buf0 + tile, frame);
    cut.buf_len = buf_end - cut.buf0;
    cut.prof0 = prof_start;
    // The profitable area ends `halo` cells before the buffer end, except
    // when the buffer reaches the frame border.
    const int prof_end = buf_end == frame ? frame : buf_end - halo;
    if (prof_end <= prof_start)
      throw std::invalid_argument("make_tiling: tile too small for halo");
    cut.prof_len = prof_end - cut.prof0;
    cuts.push_back(cut);
    prof_start = prof_end;
  }
  return cuts;
}

}  // namespace

std::size_t TilingPlan::total_buffer_elements() const {
  std::size_t s = 0;
  for (const TileSpec& t : tiles) s += t.buffer_elements();
  return s;
}

std::size_t TilingPlan::total_profitable_elements() const {
  std::size_t s = 0;
  for (const TileSpec& t : tiles) s += t.profitable_elements();
  return s;
}

double TilingPlan::redundancy() const {
  const double frame =
      static_cast<double>(frame_rows) * static_cast<double>(frame_cols);
  if (frame == 0.0) return 0.0;
  return static_cast<double>(total_buffer_elements()) / frame - 1.0;
}

bool is_strip_plan(const TilingPlan& plan) {
  const int n = static_cast<int>(plan.tiles.size());
  const int min_rows = n > 1 ? std::max(plan.halo, 1) : 1;
  int next = 0;  // the first frame row no strip covers yet
  for (int t = 0; t < n; ++t) {
    const TileSpec& s = plan.tiles[t];
    const int above = t > 0 ? plan.halo : 0;
    const int below = t + 1 < n ? plan.halo : 0;
    if (s.buf_col0 != 0 || s.prof_col0 != 0 ||
        s.buf_cols != plan.frame_cols || s.prof_cols != plan.frame_cols ||
        s.prof_row0 != next || s.buf_row0 != next - above ||
        s.buf_rows != above + s.prof_rows + below || s.prof_rows < min_rows)
      return false;
    next += s.prof_rows;
  }
  return n > 0 && plan.frame_cols > 0 && next == plan.frame_rows;
}

TilingPlan make_tiling(int frame_rows, int frame_cols, int tile_rows,
                       int tile_cols, int halo) {
  if (frame_rows <= 0 || frame_cols <= 0)
    throw std::invalid_argument("make_tiling: empty frame");
  if (halo < 0) throw std::invalid_argument("make_tiling: negative halo");
  if (tile_rows <= 2 * halo || tile_cols <= 2 * halo)
    throw std::invalid_argument("make_tiling: tile must exceed 2*halo");

  TilingPlan plan;
  plan.frame_rows = frame_rows;
  plan.frame_cols = frame_cols;
  plan.halo = halo;

  const std::vector<AxisCut> row_cuts = cut_axis(frame_rows, tile_rows, halo);
  const std::vector<AxisCut> col_cuts = cut_axis(frame_cols, tile_cols, halo);
  for (const AxisCut& rc : row_cuts)
    for (const AxisCut& cc : col_cuts) {
      TileSpec t;
      t.buf_row0 = rc.buf0;
      t.buf_rows = rc.buf_len;
      t.prof_row0 = rc.prof0;
      t.prof_rows = rc.prof_len;
      t.buf_col0 = cc.buf0;
      t.buf_cols = cc.buf_len;
      t.prof_col0 = cc.prof0;
      t.prof_cols = cc.prof_len;
      plan.tiles.push_back(t);
    }
  return plan;
}

TilingPlan plan_tiling(int frame_rows, int frame_cols, int fields, int lanes,
                       int halo) {
  if (fields < 1 || lanes < 1)
    throw std::invalid_argument("plan_tiling: fields and lanes must be >= 1");
  // A window taller or wider than the frame is clipped to it, so padding
  // to the legal minimum lets one tile cover frames of 2*halo cells or less.
  const int min_tile = 2 * halo + 1;
  const auto strips_of = [&](int s) {
    const long long rows = (frame_rows + 2LL * halo * (s - 1) + s - 1) / s;
    return make_tiling(frame_rows, frame_cols,
                       std::max(static_cast<int>(rows), min_tile),
                       std::max(frame_cols, min_tile), halo);
  };
  TilingPlan best = strips_of(1);  // throws on an empty frame or bad halo
  int best_s = 1;
  const long long cells = static_cast<long long>(frame_rows) * frame_cols;
  const int cap = static_cast<int>(
      std::clamp<long long>(cells / kMinStripCells, 1, lanes));
  // The busiest lane runs ceil(fields * s / lanes) strips of 1/s field each;
  // a/s < b/best compares as a * best < b * s.
  const auto busiest = [&](int s) { return (fields * s + lanes - 1) / lanes; };
  for (int s = 2; s <= cap; ++s) {
    if (busiest(s) * best_s >= busiest(best_s) * s) continue;
    TilingPlan plan = strips_of(s);
    if (static_cast<int>(plan.tiles.size()) != s || !is_strip_plan(plan))
      continue;
    best = std::move(plan);
    best_s = s;
  }
  return best;
}

}  // namespace chambolle
