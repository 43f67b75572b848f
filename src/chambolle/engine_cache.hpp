// engine_cache.hpp — the one place resident engines are kept for reuse.
//
// An EngineCache holds one (ChambolleParams, TiledSolverOptions) set, and so
// one pool, and at most kCapacity engines built on it, one per (rows, cols,
// fields), evicting the least recently bound first.  A serving slot's cache
// serves both modes: Chambolle-mode solves bind one-field engines, TV-L1
// warps one two-field engine per pyramid level.  A bound engine equals a
// fresh one (the engine-reuse contract), so the cache changes no bits.  One
// thread binds at a time; the counters may be read from any.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "chambolle/resident_tiled.hpp"

namespace chambolle {

class EngineCache {
 public:
  /// Above the benchmark's largest per-slot working set (two Chambolle-mode
  /// shapes beside a four-level flow stream), so a steady mix never evicts.
  static constexpr std::size_t kCapacity = 8;

  /// Engines run `params` under `options`, on options.pool (default_pool()
  /// when null).
  EngineCache(const ChambolleParams& params, const TiledSolverOptions& options)
      : params_(params), options_(options) {}

  /// A cached or new engine of the fields' shape and count, holding
  /// `fields` and the duals of `initial` (one per field), or zero duals
  /// when it is empty.  Valid until the next bind().
  ResidentTiledEngine& bind(ResidentTiledEngine::Fields fields,
                            ResidentTiledEngine::DualFields initial = {});
  /// bind() of one field; `initial` may be null (cold start).
  ResidentTiledEngine& bind(const Matrix<float>& v, const DualField* initial) {
    const Matrix<float>* const field = &v;
    return bind({&field, 1}, initial != nullptr
                                 ? ResidentTiledEngine::DualFields(&initial, 1)
                                 : ResidentTiledEngine::DualFields());
  }

  [[nodiscard]] const TiledSolverOptions& options() const { return options_; }
  [[nodiscard]] std::size_t size() const { return engines_.size(); }
  [[nodiscard]] std::uint64_t builds() const { return builds_.load(); }
  /// size() == builds() - evictions().
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.load(); }

 private:
  ChambolleParams params_;
  TiledSolverOptions options_;
  std::vector<std::unique_ptr<ResidentTiledEngine>> engines_;  ///< LRU first
  std::atomic<std::uint64_t> builds_{0}, evictions_{0};
};

}  // namespace chambolle
