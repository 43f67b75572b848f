#include "serving/flow_service.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "chambolle/engine_cache.hpp"
#include "common/stopwatch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace chambolle::serving {

// ---------------------------------------------------------------------------
// Options / small types

const char* to_string(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::kOk: return "ok";
    case ReplyStatus::kPrimed: return "primed";
    case ReplyStatus::kShedQueueFull: return "shed_queue_full";
    case ReplyStatus::kShedDeadline: return "shed_deadline";
    case ReplyStatus::kClosed: return "closed";
  }
  return "unknown";
}

void FlowServiceOptions::validate() const {
  params.validate();
  // Chambolle-mode requests always go through the tiled resident engine,
  // even when params.solver picks another backend for flow mode — so the
  // options that engine reads must be valid regardless of the solver choice
  // (which Tvl1Params::validate only enforces for kTiled/kResident).
  params.tiled.validate_schedule();
  if (slots < 1) throw std::invalid_argument("FlowServiceOptions: slots < 1");
  if (lanes_per_slot < 0)
    throw std::invalid_argument("FlowServiceOptions: lanes_per_slot < 0");
  if (queue_capacity < 1)
    throw std::invalid_argument("FlowServiceOptions: queue_capacity < 1");
  if (!std::isfinite(slo_ms) || slo_ms < 0.0)
    throw std::invalid_argument("FlowServiceOptions: bad slo_ms");
  if (max_batch < 1)
    throw std::invalid_argument("FlowServiceOptions: max_batch < 1");
}

// ---------------------------------------------------------------------------
// Internal state

struct FlowService::Request {
  enum Kind { kSolve = 0, kFrame = 1 };
  int kind = kSolve;
  Matrix<float> input;     ///< v-field (kSolve) or raw frame (kFrame)
  std::uint64_t sequence = 0;
  std::promise<Reply> promise;
  Stopwatch queued;        ///< started at admission; read at dispatch
};

struct FlowService::SessionState {
  explicit SessionState(std::uint64_t id_, const tvl1::Tvl1Params& params,
                        telemetry::ScopedMetrics scope)
      : id(id_),
        flow(params),
        m_admitted(&scope.counter("admitted")),
        m_completed(&scope.counter("completed")),
        m_shed(&scope.counter("shed")),
        m_latency(&scope.histogram("latency_ms")) {}

  const std::uint64_t id;

  // Guarded by the service mutex.
  std::deque<Request> fifo;
  bool bound = false;        ///< checked out by a slot worker
  bool in_runnable = false;  ///< present in FlowService::runnable_
  std::uint64_t next_sequence = 0;

  // Owned exclusively by the worker that has the session checked out
  // (`bound` hands off ownership; the mutex orders the handoff).
  DualField duals;
  bool has_duals = false;
  tvl1::FlowSession flow;  ///< flow-mode pyramid cache

  // Per-session scoped telemetry (serving.session.<id>.*), env-gated like
  // all registry metrics; hoisted once at open_session.
  telemetry::Counter* m_admitted;
  telemetry::Counter* m_completed;
  telemetry::Counter* m_shed;
  telemetry::Histogram* m_latency;
};

struct FlowService::Slot {
  Slot(int lanes, const tvl1::Tvl1Params& params)
      : pool(lanes), engines(params.chambolle, [&] {
          TiledSolverOptions o = params.tiled;
          o.pool = &pool;
          return o;
        }()) {}

  // Declared before the engines: engines are destroyed first (reverse
  // member order), while the pool they were bound to is still alive.
  parallel::ThreadPool pool;
  /// The slot's warm engines, shared by both request modes.
  EngineCache engines;
  std::pair<int, int> last_shape{0, 0};
  std::thread worker;
};

namespace {

std::pair<int, int> shape_of(const Matrix<float>& m) {
  return {m.rows(), m.cols()};
}

// Process-wide serving.* aggregates (env-gated; the always-on ServiceStats
// atomics are the source of truth for tests and benches).
struct GlobalMetrics {
  telemetry::Counter& admitted =
      telemetry::registry().counter("serving.admitted");
  telemetry::Counter& completed =
      telemetry::registry().counter("serving.completed");
  telemetry::Counter& shed_queue_full =
      telemetry::registry().counter("serving.shed.queue_full");
  telemetry::Counter& shed_deadline =
      telemetry::registry().counter("serving.shed.deadline");
  telemetry::Counter& failed =
      telemetry::registry().counter("serving.failed");
  telemetry::Counter& batches =
      telemetry::registry().counter("serving.batches");
  telemetry::Counter& sessions_opened =
      telemetry::registry().counter("serving.sessions.opened");
  telemetry::Gauge& queue_depth =
      telemetry::registry().gauge("serving.queue_depth");
  telemetry::Histogram& latency_ms =
      telemetry::registry().histogram("serving.latency_ms");
  telemetry::Histogram& solve_ms =
      telemetry::registry().histogram("serving.solve_ms");
};

GlobalMetrics& global_metrics() {
  static GlobalMetrics m;
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowService

FlowService::FlowService(const FlowServiceOptions& options)
    : options_(options) {
  options_.validate();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  lanes_per_slot_ =
      options_.lanes_per_slot > 0
          ? options_.lanes_per_slot
          : std::max(1, static_cast<int>(hw) / options_.slots);
  slots_.reserve(static_cast<std::size_t>(options_.slots));
  for (int i = 0; i < options_.slots; ++i)
    slots_.push_back(std::make_unique<Slot>(lanes_per_slot_, options_.params));
  // Workers start only after every slot exists (they never touch slots_).
  for (auto& slot : slots_)
    slot->worker = std::thread([this, s = slot.get()] { worker_loop(*s); });
}

FlowService::~FlowService() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& slot : slots_)
    if (slot->worker.joinable()) slot->worker.join();
}

std::shared_ptr<FlowService::Session> FlowService::open_session() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = static_cast<std::uint64_t>(sessions_.size());
  auto state = std::make_unique<SessionState>(
      id, options_.params,
      telemetry::ScopedMetrics("serving.session." + std::to_string(id)));
  SessionState* raw = state.get();
  sessions_.push_back(std::move(state));
  global_metrics().sessions_opened.add(1);
  // Not make_shared: the constructor is private to the friend service.
  return std::shared_ptr<Session>(new Session(this, raw));
}

std::future<Reply> FlowService::enqueue(SessionState& s, int kind,
                                        Matrix<float> input) {
  std::promise<Reply> promise;
  std::future<Reply> future = promise.get_future();
  std::lock_guard<std::mutex> lk(mu_);
  Reply immediate;
  immediate.sequence = s.next_sequence++;
  if (draining_ || stop_) {
    immediate.status = ReplyStatus::kClosed;
    promise.set_value(std::move(immediate));
    return future;
  }
  if (s.fifo.size() >= options_.queue_capacity) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    global_metrics().shed_queue_full.add(1);
    s.m_shed->add(1);
    immediate.status = ReplyStatus::kShedQueueFull;
    promise.set_value(std::move(immediate));
    return future;
  }
  Request req;
  req.kind = kind;
  req.input = std::move(input);
  req.sequence = immediate.sequence;
  req.promise = std::move(promise);
  s.fifo.push_back(std::move(req));
  ++queue_depth_;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  global_metrics().admitted.add(1);
  global_metrics().queue_depth.set(static_cast<double>(queue_depth_));
  s.m_admitted->add(1);
  if (!s.bound && !s.in_runnable) {
    runnable_.push_back(&s);
    s.in_runnable = true;
  }
  cv_work_.notify_one();
  return future;
}

void FlowService::worker_loop(Slot& slot) {
  for (;;) {
    SessionState* s = nullptr;
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || !runnable_.empty(); });
      if (runnable_.empty()) return;  // stop_ with nothing left to do
      // Prefer the oldest runnable session whose next request matches the
      // resolution this slot's warmest engine last solved; fall back to
      // plain FIFO so no session starves.
      std::size_t pick = 0;
      for (std::size_t i = 0; i < runnable_.size(); ++i) {
        if (shape_of(runnable_[i]->fifo.front().input) == slot.last_shape) {
          pick = i;
          break;
        }
      }
      s = runnable_[pick];
      runnable_.erase(runnable_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
      s->in_runnable = false;
      s->bound = true;
      ++busy_slots_;
      // Claim the consecutive same-resolution prefix: one warm engine
      // for the whole burst.
      const std::pair<int, int> shape = shape_of(s->fifo.front().input);
      while (!s->fifo.empty() &&
             batch.size() < static_cast<std::size_t>(options_.max_batch) &&
             shape_of(s->fifo.front().input) == shape) {
        batch.push_back(std::move(s->fifo.front()));
        s->fifo.pop_front();
      }
      queue_depth_ -= batch.size();
      global_metrics().queue_depth.set(static_cast<double>(queue_depth_));
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    global_metrics().batches.add(1);
    for (Request& req : batch) process(slot, *s, req);

    {
      std::lock_guard<std::mutex> lk(mu_);
      s->bound = false;
      --busy_slots_;
      if (!s->fifo.empty()) {
        runnable_.push_back(s);
        s->in_runnable = true;
        cv_work_.notify_one();
      }
      if (queue_depth_ == 0 && busy_slots_ == 0) cv_drained_.notify_all();
    }
  }
}

void FlowService::process(Slot& slot, SessionState& s, Request& req) {
  const double queue_ms = req.queued.milliseconds();
  Reply reply;
  reply.sequence = req.sequence;
  reply.queue_ms = queue_ms;
  if (options_.slo_ms > 0.0 && queue_ms > options_.slo_ms) {
    // Past the deadline: drop without touching the session's warm state,
    // so the stream continues as if this frame was never submitted.
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    global_metrics().shed_deadline.add(1);
    s.m_shed->add(1);
    reply.status = ReplyStatus::kShedDeadline;
    req.promise.set_value(std::move(reply));
    return;
  }

  const telemetry::TraceSpan span("serving.request");
  Stopwatch solve_clock;
  try {
    if (req.kind == Request::kSolve) {
      // Warm-start duals only match the stream's current resolution; a
      // resolution switch restarts the chain cold (documented contract).
      const DualField* initial =
          s.has_duals && s.duals.px.same_shape(req.input) ? &s.duals : nullptr;
      slot.last_shape = shape_of(req.input);
      // The fixed schedule: bit-exact and lane-count independent, which
      // is what makes the concurrent-sessions oracle possible.  The solve
      // writes only after its last burst, once every tile has loaded, so
      // s.duals is both the warm start and the write-back, and a throwing
      // solve leaves it as it was (on a resolution switch it may come back
      // zeroed at the new shape, which warm-starts exactly like cold).
      slot.engines.engine(req.input.rows(), req.input.cols(), 1)
          .solve(req.input, initial, reply.u, &s.duals);
      s.has_duals = true;
      reply.status = ReplyStatus::kOk;
    } else {
      std::optional<FlowField> flow =
          s.flow.push_frame(req.input, &reply.flow_stats, &slot.engines);
      if (flow.has_value()) {
        reply.flow = std::move(*flow);
        reply.status = ReplyStatus::kOk;
      } else {
        reply.status = ReplyStatus::kPrimed;
        primed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    global_metrics().failed.add(1);
    req.promise.set_exception(std::current_exception());
    return;
  }
  reply.solve_ms = solve_clock.milliseconds();

  const double total_ms = queue_ms + reply.solve_ms;
  latency_ms_.observe(total_ms);
  completed_.fetch_add(1, std::memory_order_relaxed);
  global_metrics().completed.add(1);
  global_metrics().latency_ms.observe(total_ms);
  global_metrics().solve_ms.observe(reply.solve_ms);
  s.m_completed->add(1);
  s.m_latency->observe(total_ms);
  req.promise.set_value(std::move(reply));
}

void FlowService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  cv_drained_.wait(lk, [&] { return queue_depth_ == 0 && busy_slots_ == 0; });
}

ServiceStats FlowService::stats() const {
  ServiceStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.primed = primed_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  for (const auto& slot : slots_) {
    out.engine_builds += slot->engines.builds();
    out.engine_evictions += slot->engines.evictions();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.queue_depth = queue_depth_;
  }
  out.p50_ms = latency_ms_.quantile(0.50);
  out.p95_ms = latency_ms_.quantile(0.95);
  out.p99_ms = latency_ms_.quantile(0.99);
  return out;
}

// ---------------------------------------------------------------------------
// Session

std::future<Reply> FlowService::Session::submit(Matrix<float> v) {
  return service_->enqueue(*state_, FlowService::Request::kSolve,
                           std::move(v));
}

std::future<Reply> FlowService::Session::submit_frame(Image frame) {
  return service_->enqueue(*state_, FlowService::Request::kFrame,
                           std::move(frame));
}

std::uint64_t FlowService::Session::id() const { return state_->id; }

std::size_t FlowService::Session::pending() const {
  std::lock_guard<std::mutex> lk(service_->mu_);
  return state_->fifo.size();
}

}  // namespace chambolle::serving
