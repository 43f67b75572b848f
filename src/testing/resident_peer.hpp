// resident_peer.hpp — the test-only seam of ResidentTiledEngine.
//
// Production engines plan their own tiling (plan_tiling, tile.hpp).  Tests
// and the differential oracle that need one particular geometry — a
// deliberately imbalanced grid, the paper's window, a random tile shape —
// build engines through this peer on the sliding-window tiling of the
// options' tile_rows x tile_cols instead.  No production caller includes
// this header.
#pragma once

#include <array>
#include <functional>
#include <utility>

#include "chambolle/resident_tiled.hpp"

namespace chambolle {

struct ResidentTiledEngineTestPeer {
  /// An engine on options' window: the sliding-window tiling of
  /// options.{tile_rows, tile_cols} that solve_tiled uses, instead of the
  /// planner's.
  [[nodiscard]] static ResidentTiledEngine windowed(
      ResidentTiledEngine::Fields inputs, const ChambolleParams& params,
      const TiledSolverOptions& options,
      ResidentTiledEngine::DualFields initial = {}) {
    const Matrix<float>& v = *inputs[0];
    return ResidentTiledEngine(
        inputs, params, options,
        make_tiling(v.rows(), v.cols(), options.tile_rows, options.tile_cols,
                    options.merge_iterations),
        initial);
  }

  /// The single-field windowed engine; `initial` may be null.
  [[nodiscard]] static ResidentTiledEngine windowed(
      const Matrix<float>& v, const ChambolleParams& params,
      const TiledSolverOptions& options, const DualField* initial = nullptr) {
    const std::array<const Matrix<float>*, 1> fields{&v};
    return windowed(fields, params, options,
                    initial != nullptr
                        ? ResidentTiledEngine::DualFields(&initial, 1)
                        : ResidentTiledEngine::DualFields());
  }

  /// solve_resident() on options' window.
  [[nodiscard]] static ChambolleResult solve_windowed(
      const Matrix<float>& v, const ChambolleParams& params,
      const TiledSolverOptions& options, ResidentTiledStats* stats = nullptr,
      const DualField* initial = nullptr) {
    ResidentTiledEngine engine = windowed(v, params, options, initial);
    engine.run(params.iterations);
    if (stats != nullptr) *stats = engine.stats();
    return engine.result();
  }

  /// Installs the fault hook: called as (field, tile) before every kernel
  /// burst; a throw aborts the run like any body exception.
  static void set_fault_hook(ResidentTiledEngine& engine,
                             std::function<void(int, int)> hook) {
    engine.fault_hook_ = std::move(hook);
  }
};

}  // namespace chambolle
