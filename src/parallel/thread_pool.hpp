// thread_pool.hpp — the persistent execution engine of the parallel solvers.
//
// The paper's parallelization argument (loop decomposition + sliding
// windows) makes Chambolle iterations coarsely parallel, but the original
// CPU realization here re-spawned std::threads for every tiled pass, so
// thread creation dominated exactly the regime the paper cares about (many
// small merged passes).  This pool keeps a process-wide set of resident
// workers alive across passes, solves, and frames: steady-state solving
// creates zero threads.
//
// Model: a *parallel region* engine, not a futures queue, with two kinds of
// region.  run_team(n, fn) executes fn(lane, lanes) on a full team of n
// lanes running concurrently — the calling thread participates as lane 0,
// resident workers take lanes 1..n-1 — and returns when every lane has
// finished; the EpochGraph relies on every lane being live at once.
// parallel_for() is an elastic region: dynamic chunked work-sharing that
// workers join only while work remains, for the tiled solver's
// independent-tile passes and the pipeline's row loops.
//
// Guarantees:
//   * workers are spawned lazily on first demand and kept resident;
//     threads_created() is observable so tests can assert "at most once";
//   * regions are serialized: concurrent callers queue, they never deadlock;
//   * nested use (a region body entering the pool again) degrades to inline
//     single-lane execution instead of deadlocking;
//   * exceptions thrown by a region body are captured and rethrown on the
//     calling thread after the team quiesces.
//
// Observability: always-on atomic counters (tasks/threads_created) plus
// mirrors in the telemetry registry under `pool.*`
// (docs/observability.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chambolle::parallel {

/// Thread-count resolution shared by every parallel component: a positive
/// request wins; 0 (auto) means std::thread::hardware_concurrency(), which
/// itself may report 0 on exotic platforms and then falls back to 1.
[[nodiscard]] int resolve_threads(int requested);

/// Cache-line-padded per-lane storage — the pool's "scratch slot" idiom.
/// A region body indexes it with its lane id; padding keeps neighboring
/// lanes' scratch off each other's cache lines.  The slots outlive regions,
/// so scratch allocated once per solve is reused across every pass.
template <typename T>
class PerLane {
 public:
  explicit PerLane(int lanes)
      : slots_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes)) {}

  [[nodiscard]] T& operator[](int lane) {
    return slots_[static_cast<std::size_t>(lane)].value;
  }
  [[nodiscard]] const T& operator[](int lane) const {
    return slots_[static_cast<std::size_t>(lane)].value;
  }
  [[nodiscard]] int lanes() const { return static_cast<int>(slots_.size()); }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

class ThreadPool {
 public:
  /// fn(lane, lanes): lane in [0, lanes).
  using TeamFn = std::function<void(int, int)>;
  /// fn(begin, end, lane): process items [begin, end).
  using RangeFn = std::function<void(std::size_t, std::size_t, int)>;

  /// `threads` is the default team width for auto-sized work (0 = hardware
  /// concurrency).  No threads are created until the first parallel region
  /// actually needs them.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured default team width (including the calling thread).
  [[nodiscard]] int threads() const {
    return target_threads_.load(std::memory_order_relaxed);
  }

  /// Lane count for a solver-level request: a positive `requested` wins,
  /// 0 (auto) uses the pool's configured width.  This is the single
  /// replacement for the per-solver resolve_threads() helpers.
  [[nodiscard]] int lanes_for(int requested) const {
    return requested > 0 ? requested : threads();
  }

  /// Reconfigures the default width.  Waits for the pool to go idle; shrinks
  /// the resident worker set if it exceeds the new width (growth stays lazy).
  void resize(int threads);

  /// Runs fn on `lanes` lanes concurrently and returns when all have
  /// finished.  The caller executes lane 0; resident workers (spawned on
  /// demand, then reused forever) take the rest.  Safe to call from
  /// multiple threads (regions serialize) and from inside a region body
  /// (runs inline on one lane).
  void run_team(int lanes, const TeamFn& fn);

  /// Chunked dynamic parallel-for over [0, n): lanes pull `chunk`-sized
  /// index ranges from a shared cursor until exhausted.  Effective lane
  /// count is capped by the number of chunks.  Workers join elastically:
  /// the caller starts pulling at once and returns when the range is
  /// drained and the workers that did join are done, without waiting for
  /// a worker that has not woken yet — on an oversubscribed host a region
  /// degrades towards the caller running it alone instead of stalling on
  /// the scheduler.
  void parallel_for(std::size_t n, int lanes, const RangeFn& fn,
                    std::size_t chunk = 1);

  // Always-on lifetime statistics (also mirrored to telemetry as pool.*).
  /// Parallel regions executed (run_team + parallel_for dispatches).
  [[nodiscard]] std::uint64_t tasks() const {
    return tasks_.load(std::memory_order_relaxed);
  }
  /// OS threads ever created by this pool.
  [[nodiscard]] std::uint64_t threads_created() const {
    return threads_created_.load(std::memory_order_relaxed);
  }
  /// Resident workers currently alive.
  [[nodiscard]] int resident_workers() const;

 private:
  void worker_main(std::size_t index, std::uint64_t seen_epoch);
  /// The region protocol behind run_team (elastic = false: every lane runs
  /// fn) and parallel_for (elastic = true: lane 0 runs fn, workers join only
  /// while the region is open).
  void dispatch(int lanes, const TeamFn& fn, bool elastic);
  /// Spawns resident workers until at least `needed` exist.  mu_ held.
  void ensure_workers_locked(int needed);
  /// Joins every resident worker.  mu_ held on entry/exit, pool marked busy.
  void drain_workers_locked(std::unique_lock<std::mutex>& lk);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // workers: new epoch or shutdown
  std::condition_variable cv_done_;  // caller: team finished
  std::condition_variable cv_idle_;  // queued callers: region slot free
  std::vector<std::thread> workers_;
  std::atomic<int> target_threads_;
  bool busy_ = false;
  bool shutdown_ = false;
  std::uint64_t epoch_ = 0;
  const TeamFn* job_ = nullptr;
  int job_lanes_ = 0;
  bool job_elastic_ = false;
  int job_remaining_ = 0;  ///< workers the caller still waits for
  std::exception_ptr job_error_;

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> threads_created_{0};
};

/// Minimum cells per chunk of parallel_rows(), by the cost of a cell; a
/// grid that fits one chunk runs inline on the caller.  Compute-bound
/// passes (the warp -> threshold sweep: 4-6 ns a cell on its AVX-512 rows,
/// 13-33 on its scalar rows) chunk at 4096 cells, 15-25 us of work on the
/// AVX-512 rows and 55-135 us on the scalar ones, which keeps the 40 x 32
/// coarsest level of a 316 x 252 pyramid inline; on the benchmark's three
/// lanes 8192, 16384 and 32768 measured no faster end to end and slower in
/// the sweep (EXPERIMENTS.md E19).  Streaming passes (copies, gradients,
/// prolongation, primal recovery, 1-2 ns a cell) chunk at 65536, which
/// keeps every frame below ~256 x 256 inline.
inline constexpr int kComputeChunkCells = 4096;
inline constexpr int kStreamChunkCells = 65536;

/// Row-chunked parallel loop over a rows x cols grid: fn(row_begin, row_end)
/// runs on disjoint row ranges of at least `min_chunk_cells` cells, pulled
/// dynamically by `lanes` lanes of `pool`.  The dispatch itself allocates
/// nothing: the wrapper handed to parallel_for captures one reference, which
/// std::function stores inline.
template <typename Fn>
void parallel_rows(ThreadPool& pool, int rows, int cols, int lanes,
                   int min_chunk_cells, Fn&& fn) {
  if (rows <= 0 || cols <= 0) return;
  const std::size_t chunk =
      static_cast<std::size_t>((min_chunk_cells + cols - 1) / cols);
  pool.parallel_for(
      static_cast<std::size_t>(rows), lanes,
      [&fn](std::size_t begin, std::size_t end, int) {
        fn(static_cast<int>(begin), static_cast<int>(end));
      },
      chunk);
}

/// The process-wide pool every solver and pipeline stage shares.  Lazily
/// constructed; sized from hardware concurrency until set_default_pool_
/// threads() (e.g. flow_cli --threads) reconfigures it.
[[nodiscard]] ThreadPool& default_pool();

/// Resizes the default pool (0 = hardware concurrency).
void set_default_pool_threads(int threads);

}  // namespace chambolle::parallel
