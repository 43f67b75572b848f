// flow_service.hpp — multi-stream flow serving on a fleet of resident
// engines.
//
// The single-stream story so far: one ResidentTiledEngine (or one TV-L1
// FlowSession) per process, all parallel regions on default_pool().  A
// service hosting N concurrent video streams breaks that twice over: a
// ThreadPool serializes concurrent regions, so N engines sharing the
// default pool take strict turns (zero overlap), and naively constructing
// an engine per request throws away the residency the engine exists to
// provide.
//
// FlowService fixes both.  It owns a fleet of `slots` engine slots; each
// slot has its OWN lane-partitioned ThreadPool (injected into every solve
// through TiledSolverOptions::pool) and a bounded EngineCache on it, shared
// by both request modes, so a request for a recently seen shape reuses
// pinned tile buffers instead of reallocating.  Sessions carry the
// per-stream state across requests: the warm-start dual field for
// Chambolle-solve streams and the cached previous-frame pyramid
// (tvl1::FlowSession) for optical-flow streams.
//
// Scheduling: submissions land in a bounded per-session FIFO; a session
// with pending work is "runnable".  A free slot claims one runnable
// session (preferring one whose next frame matches the resolution of the
// slot's warm engine), processes up to `max_batch` consecutive same-
// resolution requests in one checkout — amortizing the engine lookup —
// then releases the session.  Per-session order is therefore strictly
// FIFO, which is what keeps warm-start state well-defined, while distinct
// sessions overlap on distinct slots.
//
// Admission control: a full session FIFO sheds the request immediately
// (kShedQueueFull — the future is ready before submit() returns); with
// slo_ms > 0, a request that waited longer than the SLO is shed at
// dispatch time instead of solved (kShedDeadline).  A shed request leaves
// the session's warm-start state exactly as it was — the stream behaves
// as if the frame was never submitted.  drain() stops admissions and
// blocks until every queued request is resolved; the destructor drains.
//
// Determinism: Chambolle-mode solves use the engine's fixed solve()
// schedule, which is bit-exact and schedule-independent, and per-session
// state is touched only by the slot that has the session checked out.  A
// session's reply stream is therefore BIT-IDENTICAL no matter how many
// other sessions run concurrently, which slot processes it, or how many
// lanes each slot has — the concurrent-sessions oracle (src/testing)
// checks this against a fresh-engine serial replay.
//
// Thread-safety: every Session method and every FlowService method is
// safe to call from any thread.  Session handles must not outlive the
// service that issued them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/image.hpp"
#include "telemetry/metrics.hpp"
#include "tvl1/tvl1.hpp"

namespace chambolle::serving {

enum class ReplyStatus {
  kOk,            ///< solved; the payload fields are valid
  kPrimed,        ///< first frame of a flow stream: pyramid cached, no flow yet
  kShedQueueFull, ///< rejected at submit: session FIFO at queue_capacity
  kShedDeadline,  ///< dropped at dispatch: queued longer than slo_ms
  kClosed,        ///< rejected: service draining or shut down
};

[[nodiscard]] const char* to_string(ReplyStatus s);

/// One request's outcome.  `sequence` is the per-session submit index
/// (shed requests consume one too, so gaps in processed sequences are
/// visible to the client).
struct Reply {
  ReplyStatus status = ReplyStatus::kClosed;
  std::uint64_t sequence = 0;
  /// Chambolle mode (Session::submit): the primal solution.
  Matrix<float> u;
  /// Flow mode (Session::submit_frame): the flow from the previous frame.
  FlowField flow;
  tvl1::Tvl1Stats flow_stats;
  double queue_ms = 0.0;  ///< submit -> dispatch wait
  double solve_ms = 0.0;  ///< dispatch -> done (0 for shed)

  [[nodiscard]] bool ok() const { return status == ReplyStatus::kOk; }
  [[nodiscard]] bool shed() const {
    return status == ReplyStatus::kShedQueueFull ||
           status == ReplyStatus::kShedDeadline;
  }
};

struct FlowServiceOptions {
  /// Solver configuration shared by every session: `chambolle` + `tiled`
  /// drive Chambolle-mode solves on the fleet engines; the full struct
  /// drives flow-mode sessions (tvl1::FlowSession).
  tvl1::Tvl1Params params{};
  /// Engine slots = maximum concurrently solving sessions.
  int slots = 2;
  /// Worker lanes per slot's private pool; 0 splits the hardware
  /// concurrency evenly across slots (at least 1 each).
  int lanes_per_slot = 0;
  /// Per-session pending-request bound; submits beyond it shed.
  std::size_t queue_capacity = 8;
  /// Latency SLO: a request queued longer than this is shed at dispatch
  /// instead of solved.  0 disables deadline shedding.
  double slo_ms = 0.0;
  /// Max consecutive same-resolution requests one slot checkout processes.
  int max_batch = 4;

  void validate() const;
};

/// Cumulative service counters plus latency quantiles.  Counters are
/// always-on atomics (telemetry mirrors exist under serving.* but are
/// env-gated); quantiles come from the service's own always-on histogram
/// over total (queue + solve) latency of non-shed requests.
struct ServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;       ///< kOk + kPrimed replies
  std::uint64_t primed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  /// Admitted requests whose solve threw: the reply future carries the
  /// exception.  admitted == completed + shed_deadline + failed once every
  /// admitted request has resolved.
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;         ///< slot checkouts
  /// Engines the slot caches built, for both modes: a flow frame uses one
  /// per pyramid level.  A steady mix of shapes stops adding to it.
  std::uint64_t engine_builds = 0;
  std::uint64_t engine_evictions = 0;  ///< slot-cache LRU evictions
  std::size_t queue_depth = 0;       ///< requests currently queued
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
};

class FlowService {
 public:
  class Session;

  explicit FlowService(const FlowServiceOptions& options);
  /// Drains (every queued request resolves) and joins the slot workers.
  ~FlowService();

  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Opens a stream.  The handle stays valid until the service is
  /// destroyed; dropping it does not cancel queued requests.
  [[nodiscard]] std::shared_ptr<Session> open_session();

  /// Stops admissions (subsequent submits reply kClosed) and blocks until
  /// every queued request has been resolved.  Idempotent.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const FlowServiceOptions& options() const { return options_; }
  /// Resolved lanes per slot (after the 0 = auto split).
  [[nodiscard]] int lanes_per_slot() const { return lanes_per_slot_; }

 private:
  struct SessionState;
  struct Slot;
  struct Request;

  std::future<Reply> enqueue(SessionState& s, int kind, Matrix<float> input);
  void worker_loop(Slot& slot);
  void process(Slot& slot, SessionState& s, Request& req);

  FlowServiceOptions options_;
  int lanes_per_slot_ = 1;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_drained_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
  std::vector<SessionState*> runnable_;  // FIFO of sessions with pending work
  std::vector<std::unique_ptr<Slot>> slots_;
  bool draining_ = false;
  bool stop_ = false;
  std::size_t queue_depth_ = 0;
  int busy_slots_ = 0;

  // Always-on stats (see ServiceStats).
  std::atomic<std::uint64_t> admitted_{0}, completed_{0}, primed_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0}, shed_deadline_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  telemetry::Histogram latency_ms_{telemetry::default_ms_bounds()};
};

/// A client's handle to one stream.  All methods are thread-safe, but a
/// single session's submissions are processed strictly in submit order,
/// so interleaving submitters on one session interleaves their frames.
class FlowService::Session {
 public:
  /// Chambolle mode: solve one component field `v` on a fleet engine with
  /// the fixed (bit-exact) schedule, warm-started from this session's
  /// dual state; the session's duals are updated from the solve.  The
  /// first solve (or the first after a resolution change) cold-starts
  /// from zeros.
  [[nodiscard]] std::future<Reply> submit(Matrix<float> v);

  /// Flow mode: feed the next video frame (intensities on [0, 255]) to
  /// this session's TV-L1 stream.  The first frame primes the pyramid
  /// cache and replies kPrimed; later frames reply with the flow from the
  /// previous frame.  Frames must keep one shape per stream.
  [[nodiscard]] std::future<Reply> submit_frame(Image frame);

  [[nodiscard]] std::uint64_t id() const;
  /// Requests currently queued on this session.
  [[nodiscard]] std::size_t pending() const;

 private:
  friend class FlowService;
  Session(FlowService* service, SessionState* state)
      : service_(service), state_(state) {}

  FlowService* service_;
  SessionState* state_;
};

}  // namespace chambolle::serving
