#include "parallel/thread_pool.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace chambolle::parallel {
namespace {

// Set while the current thread executes a region body; nested entries into
// the pool run inline on one lane instead of deadlocking on the region slot.
thread_local bool t_in_region = false;

telemetry::Counter& c_tasks() {
  static telemetry::Counter& c = telemetry::registry().counter("pool.tasks");
  return c;
}
telemetry::Counter& c_threads_created() {
  static telemetry::Counter& c =
      telemetry::registry().counter("pool.threads_created");
  return c;
}

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
    : target_threads_(resolve_threads(threads)) {}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] { return !busy_; });
  busy_ = true;
  drain_workers_locked(lk);
  busy_ = false;
}

int ThreadPool::resident_workers() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::resize(int threads) {
  const int target = resolve_threads(threads);
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] { return !busy_; });
  target_threads_.store(target, std::memory_order_relaxed);
  if (static_cast<int>(workers_.size()) > target - 1) {
    busy_ = true;
    drain_workers_locked(lk);
    busy_ = false;
    lk.unlock();
    cv_idle_.notify_one();
  }
}

void ThreadPool::ensure_workers_locked(int needed) {
  const int have = static_cast<int>(workers_.size());
  for (int i = have; i < needed; ++i) {
    workers_.emplace_back(&ThreadPool::worker_main, this,
                          static_cast<std::size_t>(i), epoch_);
    threads_created_.fetch_add(1, std::memory_order_relaxed);
    c_threads_created().add(1);
  }
}

void ThreadPool::drain_workers_locked(std::unique_lock<std::mutex>& lk) {
  shutdown_ = true;
  cv_work_.notify_all();
  std::vector<std::thread> old = std::move(workers_);
  workers_.clear();
  lk.unlock();
  for (std::thread& t : old) t.join();
  lk.lock();
  shutdown_ = false;
}

void ThreadPool::worker_main(std::size_t index, std::uint64_t seen_epoch) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    const int lane = static_cast<int>(index) + 1;
    // Spectator for this (narrower) team, or woken after the caller closed
    // an elastic region.
    if (job_ == nullptr || lane >= job_lanes_) continue;
    if (job_elastic_) ++job_remaining_;

    const TeamFn* fn = job_;
    const int lanes = job_lanes_;
    lk.unlock();
    std::exception_ptr err;
    t_in_region = true;
    const int prev_lane = telemetry::profiler_set_lane(lane);
    try {
      (*fn)(lane, lanes);
    } catch (...) {
      err = std::current_exception();
    }
    telemetry::profiler_set_lane(prev_lane);
    t_in_region = false;
    lk.lock();
    if (err && !job_error_) job_error_ = err;
    if (--job_remaining_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run_team(int lanes, const TeamFn& fn) {
  dispatch(lanes, fn, /*elastic=*/false);
}

void ThreadPool::dispatch(int lanes, const TeamFn& fn, bool elastic) {
  if (lanes < 1) lanes = 1;
  tasks_.fetch_add(1, std::memory_order_relaxed);
  c_tasks().add(1);

  if (lanes == 1 || t_in_region) {
    const bool was_in_region = t_in_region;
    t_in_region = true;
    // A nested region inlines on the caller's lane and keeps attributing
    // there; only a fresh single-lane region maps to lane 0.
    const int prev_lane =
        was_in_region ? telemetry::profiler_lane() : telemetry::profiler_set_lane(0);
    try {
      fn(0, 1);
    } catch (...) {
      telemetry::profiler_set_lane(prev_lane);
      t_in_region = was_in_region;
      throw;
    }
    telemetry::profiler_set_lane(prev_lane);
    t_in_region = was_in_region;
    return;
  }

  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] { return !busy_; });
  busy_ = true;
  ensure_workers_locked(lanes - 1);
  job_ = &fn;
  job_lanes_ = lanes;
  job_elastic_ = elastic;
  // A full team waits for every lane; an elastic region only for the
  // workers that joined it (counted up as they enter).
  job_remaining_ = elastic ? 0 : lanes - 1;
  job_error_ = nullptr;
  ++epoch_;
  lk.unlock();
  cv_work_.notify_all();

  // The caller is lane 0 of its own team — no thread sits idle waiting.
  std::exception_ptr caller_error;
  t_in_region = true;
  const int prev_lane = telemetry::profiler_set_lane(0);
  try {
    fn(0, lanes);
  } catch (...) {
    caller_error = std::current_exception();
  }
  telemetry::profiler_set_lane(prev_lane);
  t_in_region = false;

  lk.lock();
  // Closing an elastic job first keeps workers that have not woken yet out
  // of a region whose work the caller has already drained.
  if (elastic) job_ = nullptr;
  cv_done_.wait(lk, [&] { return job_remaining_ == 0; });
  job_ = nullptr;
  const std::exception_ptr err = caller_error ? caller_error : job_error_;
  job_error_ = nullptr;
  busy_ = false;
  lk.unlock();
  cv_idle_.notify_one();
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t n, int lanes, const RangeFn& fn,
                              std::size_t chunk) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  int team = lanes < 1 ? 1 : lanes;
  if (static_cast<std::size_t>(team) > chunks) team = static_cast<int>(chunks);

  if (team == 1 || t_in_region) {
    tasks_.fetch_add(1, std::memory_order_relaxed);
    c_tasks().add(1);
    const int prev_lane = t_in_region ? telemetry::profiler_lane()
                                      : telemetry::profiler_set_lane(0);
    fn(0, n, 0);
    telemetry::profiler_set_lane(prev_lane);
    return;
  }

  // The team body captures one pointer so std::function stores it inline:
  // a multi-lane dispatch allocates nothing.
  struct Loop {
    std::size_t n, chunk;
    const RangeFn& fn;
    std::atomic<std::size_t> cursor{0};
  } loop{n, chunk, fn};
  dispatch(
      team,
      [l = &loop](int lane, int) {
        for (;;) {
          const std::size_t b =
              l->cursor.fetch_add(l->chunk, std::memory_order_relaxed);
          if (b >= l->n) return;
          l->fn(b, b + l->chunk < l->n ? b + l->chunk : l->n, lane);
        }
      },
      /*elastic=*/true);
}

ThreadPool& default_pool() {
  static ThreadPool pool(0);
  return pool;
}

void set_default_pool_threads(int threads) { default_pool().resize(threads); }

}  // namespace chambolle::parallel
