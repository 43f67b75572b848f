// resident_peer.hpp — the test-only seam of ResidentTiledEngine.
//
// Production engines plan their own tiling (plan_tiling, tile.hpp).  Tests
// and the differential oracle that need one particular geometry — a
// deliberately imbalanced grid, the paper's window, a random tile shape —
// build engines through this peer on the sliding-window tiling of the
// options' tile_rows x tile_cols instead.  No production caller includes
// this header.
#pragma once

#include <functional>
#include <utility>

#include "chambolle/resident_tiled.hpp"

namespace chambolle {

struct ResidentTiledEngineTestPeer {
  /// An engine of `fields` rows x cols fields on options' window: the
  /// sliding-window tiling of options.{tile_rows, tile_cols} that
  /// solve_tiled uses, instead of the planner's.
  [[nodiscard]] static ResidentTiledEngine windowed(
      int rows, int cols, int fields, const ChambolleParams& params,
      const TiledSolverOptions& options) {
    return ResidentTiledEngine(
        fields, params, options,
        make_tiling(rows, cols, options.tile_rows, options.tile_cols,
                    options.merge_iterations));
  }

  /// solve_resident() on options' window.
  [[nodiscard]] static ChambolleResult solve_windowed(
      const Matrix<float>& v, const ChambolleParams& params,
      const TiledSolverOptions& options, ResidentTiledStats* stats = nullptr,
      const DualField* initial = nullptr) {
    ResidentTiledEngine engine =
        windowed(v.rows(), v.cols(), 1, params, options);
    ChambolleResult out;
    engine.solve(v, initial, out.u, &out.p);
    if (stats != nullptr) *stats = engine.stats();
    return out;
  }

  /// Installs the fault hook: called as (field, tile) before every kernel
  /// burst; a throw aborts the solve like any body exception.
  static void set_fault_hook(ResidentTiledEngine& engine,
                             std::function<void(int, int)> hook) {
    engine.fault_hook_ = std::move(hook);
  }
};

}  // namespace chambolle
