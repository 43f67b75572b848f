// resident_peer.hpp — the test-only seam of ResidentTiledEngine.
//
// Production engines plan their own strips (plan_tiling, tile.hpp).  Tests
// and the differential oracle that need one particular geometry — uneven
// strips, many strips per lane, a deliberately imbalanced cut — build
// engines through this peer on full-width strips of an explicit height
// instead.  No production caller includes this header.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>

#include "chambolle/resident_tiled.hpp"

namespace chambolle {

struct ResidentTiledEngineTestPeer {
  /// An engine of `fields` fields on an explicit `plan`; throws
  /// std::invalid_argument unless the plan is one the engine runs.
  [[nodiscard]] static ResidentTiledEngine on_plan(
      int fields, const ChambolleParams& params,
      const TiledSolverOptions& options, TilingPlan plan) {
    return ResidentTiledEngine(fields, params, options, std::move(plan));
  }

  /// An engine of `fields` rows x cols fields on full-width strips of
  /// `strip_rows` buffer rows: make_tiling's cut with a window as wide as
  /// the frame and a halo of options.merge_iterations, instead of the
  /// planner's.  Strips below 3 * merge_iterations rows leave a middle
  /// strip thinner than its halo, which the engine rejects.
  [[nodiscard]] static ResidentTiledEngine strips(
      int rows, int cols, int strip_rows, int fields,
      const ChambolleParams& params, const TiledSolverOptions& options) {
    const int halo = options.merge_iterations;
    return on_plan(fields, params, options,
                   make_tiling(rows, cols, strip_rows,
                               std::max(cols, 2 * halo + 1), halo));
  }

  /// solve_resident() on strips of `strip_rows` buffer rows.
  [[nodiscard]] static ChambolleResult solve_strips(
      const Matrix<float>& v, int strip_rows, const ChambolleParams& params,
      const TiledSolverOptions& options, ResidentTiledStats* stats = nullptr,
      const DualField* initial = nullptr) {
    ResidentTiledEngine engine =
        strips(v.rows(), v.cols(), strip_rows, 1, params, options);
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
