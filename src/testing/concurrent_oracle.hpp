// concurrent_oracle.hpp — the concurrent-sessions differential oracle.
//
// run_oracle() (oracle.hpp) checks that every ENGINE agrees on one solve.
// This module checks the orthogonal claim the serving layer makes: that
// CONCURRENCY is unobservable.  N sessions streamed through one
// FlowService — interleaved submissions, shared engine fleet, per-slot
// pools, batching — must each produce the BIT-IDENTICAL reply stream that
// a serial fresh-engine replay of that session alone produces, and the
// same bits again at every fleet lane count.
//
// The serial ground truth for a session is the warm-start chain spelled
// out by the engine contract: frame k solves on a FRESH one-lane engine
// (one tile) whose duals are initialized from frame k-1's final duals.
// The frames are large enough that a slot with several lanes plans several
// strips, so the check also crosses tiling plans.  The service instead
// REUSES pooled engines that other sessions' solves ran on in between, and
// passes one dual field as both warm start and write-back — so an oracle
// failure localizes to either stale engine state leaking across sessions
// (the engine-reuse bug class) or a scheduling/pool dependence of the
// fixed solve.  Every seeded failure reproduces from (seed, options) alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace chambolle::oracle {

struct ConcurrentOracleOptions {
  /// Concurrent streams; drawn shapes differ across sessions (exercising
  /// the per-resolution engine cache) and stay fixed within one.
  int sessions = 3;
  /// Chambolle solves per stream (the warm-start chain length).
  int frames_per_session = 3;
  /// Fleet slots; keep < sessions so sessions contend for engines.
  int slots = 2;
  /// The fleet lane counts the interleaved run must reproduce the serial
  /// bits at.  >= 2 entries keeps the schedule-independence claim honest;
  /// a slot engine plans one strip per lane, frame size permitting.
  std::vector<int> lane_counts = {1, 3};
  /// Same-resolution burst size per slot checkout.
  int max_batch = 2;
};

struct ConcurrentOracleReport {
  std::uint64_t seed = 0;
  std::string case_line;
  int lane_counts_checked = 0;
  std::uint64_t replies_checked = 0;
  /// Per lane count checked: the fewest strips any stream's slot engines
  /// planned (plan_tiling on the slot's lanes).
  std::vector<int> fewest_strips;
  bool pass = false;
  std::string detail;  ///< first mismatch, set on failure

  /// Compact reproducer (case line + mismatch); empty when pass.
  [[nodiscard]] std::string failure_report() const;
};

/// Expands `seed` into per-session frame streams (shared solver parameters
/// drawn through make_case), replays each stream serially on fresh
/// one-lane engines, then runs all streams interleaved through one
/// FlowService per lane count and memcmps every reply against that one
/// serial truth.
[[nodiscard]] ConcurrentOracleReport run_concurrent_oracle(
    std::uint64_t seed, const ConcurrentOracleOptions& options = {});

}  // namespace chambolle::oracle
