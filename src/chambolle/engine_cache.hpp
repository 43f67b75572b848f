// engine_cache.hpp — the one place resident engines are kept for reuse.
//
// An EngineCache holds one (ChambolleParams, TiledSolverOptions) set, and so
// one pool, and at most kCapacity engines built on it, one per (rows, cols,
// fields), evicting the least recently used first.  A serving slot's cache
// serves both modes: Chambolle-mode solves use one-field engines, TV-L1
// warps one two-field engine per pyramid level.  The cache only finds or
// builds an engine and loads nothing: every solve() overwrites every
// buffer cell, so a reused engine equals a fresh one and the cache changes
// no bits.  One thread uses the cache at a time; the counters may be read
// from any.
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

  /// The cached engine of `fields` rows x cols fields, or a new one (the
  /// least recently used evicted at capacity).  Valid until the next call.
  ResidentTiledEngine& engine(int rows, int cols, int fields);

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
