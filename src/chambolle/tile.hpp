// tile.hpp — sliding-window tiling geometry (Section III-B).
//
// The frame is divided into overlapping sub-matrices ("sliding windows").
// Each tile owns a PROFITABLE rectangle — elements whose dependency cone over
// the merged iterations stays inside the tile buffer — and the profitable
// rectangles of all tiles partition the frame exactly ("profitable areas are
// contiguous").  Tile edges that coincide with frame borders need no halo,
// because the algorithm's boundary rules make those elements inherently
// correct (Section III-A).
#pragma once

#include <cstddef>
#include <vector>

namespace chambolle {

/// One sliding-window tile, in frame coordinates.
struct TileSpec {
  // Buffer rectangle actually loaded into the window (profitable + halo).
  int buf_row0 = 0;
  int buf_col0 = 0;
  int buf_rows = 0;
  int buf_cols = 0;
  // Profitable rectangle written back to the output.
  int prof_row0 = 0;
  int prof_col0 = 0;
  int prof_rows = 0;
  int prof_cols = 0;

  [[nodiscard]] std::size_t buffer_elements() const {
    return static_cast<std::size_t>(buf_rows) * buf_cols;
  }
  [[nodiscard]] std::size_t profitable_elements() const {
    return static_cast<std::size_t>(prof_rows) * prof_cols;
  }
};

/// A complete tiling of a frame.
struct TilingPlan {
  int frame_rows = 0;
  int frame_cols = 0;
  int halo = 0;
  std::vector<TileSpec> tiles;

  /// Sum of all buffer elements (includes replicated halo elements).
  [[nodiscard]] std::size_t total_buffer_elements() const;
  /// Sum of profitable elements; equals frame_rows*frame_cols by invariant.
  [[nodiscard]] std::size_t total_profitable_elements() const;
  /// Redundant work fraction: buffers/frame - 1 (the paper's "slight memory
  /// overhead ... computation overhead"; 0 means no replication).
  [[nodiscard]] double redundancy() const;
};

/// Builds the tiling: tile buffers are at most tile_rows x tile_cols (the
/// paper's windows are 88 x 92); `halo` is the profitable margin, equal to
/// the number of merged iterations.  Requires tile dims > 2*halo so every
/// tile has a non-empty profitable core.  Throws std::invalid_argument
/// otherwise.
[[nodiscard]] TilingPlan make_tiling(int frame_rows, int frame_cols,
                                     int tile_rows, int tile_cols, int halo);

/// True when `plan` is full-width strips, top to bottom, whose profitable
/// rows partition the frame and whose buffers add `halo` rows on each side
/// that is not a frame border, and which, when there is more than one, each
/// keep at least `halo` profitable rows.  Then every halo row of a strip is
/// a profitable row of the strip directly above or below it: the plans the
/// resident engine runs.
[[nodiscard]] bool is_strip_plan(const TilingPlan& plan);

/// Frame cells per strip below which the resident engine stops splitting a
/// field: under it a strip's halo exchange and scheduling cost more than the
/// lane it would add (EXPERIMENTS.md E17).
inline constexpr long long kMinStripCells = 6000;

/// The resident engine's tiling of a frame that `fields` same-shape fields
/// share on `lanes` lanes with a `halo`-cell margin: S balanced strips per
/// field, each spanning the full frame width.  S is the fewest strips that
/// minimize the busiest lane's share of the work, ceil(fields * S / lanes)
/// / S field-loads, over the S the frame admits: at most one strip per
/// kMinStripCells cells, and only cuts that make_tiling realizes as exactly
/// S strips that is_strip_plan accepts: with more than one strip, each
/// keeps at least `halo` profitable rows, so the engine trades halos with
/// the strips directly above and below alone.  The strips' buffers are
/// make_tiling's with tile rows ceil((rows + 2 * halo * (S - 1)) / S), so
/// their heights differ by less than S rows.  One strip covers any frame of
/// at least one cell, however small against the halo.  Throws
/// std::invalid_argument on an empty frame, fields or lanes below 1, or a
/// negative halo.
[[nodiscard]] TilingPlan plan_tiling(int frame_rows, int frame_cols,
                                     int fields, int lanes, int halo);

}  // namespace chambolle
