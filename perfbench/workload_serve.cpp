// serve_mixed — open-loop mixed-mode serving.  A Poisson schedule, generated
// up front from the seed, is replayed by one generator thread against a
// FlowService of 2 slots x 2 lanes: 4 Chambolle-mode sessions at two shapes
// (128x128 and 256x192, 30 iterations) beside 2 flow-mode sessions at
// 160x120.  Stateless-reuse requests (warm engines) share slots with
// stateful rebuild requests (fresh engines and pyramids every frame), so a
// gain for one mode that costs the other shows.  The rates put the service
// at about half its capacity on the 4-core host the benchmark was tuned on.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "harness.hpp"
#include "common/rng.hpp"
#include "serving/flow_service.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/sequence.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

using namespace chambolle;
using serving::FlowService;
using serving::Reply;
using serving::ReplyStatus;

struct Shape {
  int rows, cols;
};
constexpr Shape kChambolleShapes[] = {{128, 128}, {128, 128}, {192, 256}, {192, 256}};
constexpr Shape kFlowShape{120, 160};
constexpr int kFlowSessions = 2;
constexpr int kSessions = 4 + kFlowSessions;
constexpr double kChambolleRate = 22.5;  // requests/s per Chambolle session
constexpr double kFlowRate = 15.0;       // frames/s per flow session
constexpr int kInputsPerSession = 4;
constexpr int kSequenceFrames = 8;
constexpr int kWarmupRequests = 2;       // per session, during set-up
// Chambolle-mode fields: a smooth field on [-3, 3] (flow-component units)
// plus Gaussian noise; PSNR is taken against the smooth field.
constexpr float kFieldAmplitude = 3.f;
constexpr float kFieldNoise = 0.3f;
// About twice a flow frame's solve time on the tuning host.
constexpr double kSloMs = 60.0;
// The run is invalid when the generator sends this late at p99: it no
// longer offers the schedule's load.  Lag is part of every latency, so a
// smaller lag shows there; on the shared tuning host a one-second burst of
// CPU steal alone reached 28 ms.
constexpr double kLagBoundMs = 50.0;
// Flow replies must err by at most this share of their pan's speed: a zero
// or stale flow errs by the whole speed.  The seeded textures decide the
// error of a correct flow (mostly under 0.1 of the speed; some, nearly
// one-directional, reach a third).
constexpr double kAeeShareOfPan = 0.6;
// Chambolle-mode replies must denoise: mean PSNR this far above the input's.
constexpr double kMinGainDb = 2.0;
// Requests per sampled session replayed serially on a fresh service.
constexpr int kReplayRequests = 40;
constexpr double kTraceBlockSeconds = 1.0;

struct SessionInputs {
  bool flow = false;
  std::vector<Image> inputs;  ///< Chambolle: noisy fields; flow: frames
  std::vector<Image> clean;   ///< Chambolle: the fields before noise
  float rate_x = 0.f, rate_y = 0.f;  ///< flow: pan per frame

  [[nodiscard]] const Image& input(int k) const {
    return flow ? inputs[static_cast<std::size_t>(pingpong(k, kSequenceFrames))]
                : inputs[static_cast<std::size_t>(k % kInputsPerSession)];
  }
};

SessionInputs make_inputs(int s, Rng& rng, std::uint64_t seed) {
  SessionInputs in;
  const std::uint64_t sub = seed * 977 + static_cast<std::uint64_t>(s);
  if (s >= 4) {
    in.flow = true;
    workloads::SequenceParams sp;
    sp.frames = kSequenceFrames;
    sp.rate_x = rng.uniform(0.5f, 2.0f);
    sp.rate_y = rng.uniform(-1.0f, 1.0f);
    sp.seed = sub;
    in.inputs = workloads::make_sequence(kFlowShape.rows, kFlowShape.cols, sp).frames;
    in.rate_x = sp.rate_x;
    in.rate_y = sp.rate_y;
    return in;
  }
  const Shape sh = kChambolleShapes[s];
  for (int i = 0; i < kInputsPerSession; ++i) {
    Image field = workloads::smooth_texture(sh.rows, sh.cols, sub * 7 + i);
    for (float& v : field) v = (v / 255.f * 2.f - 1.f) * kFieldAmplitude;
    Image noisy = field;
    add_gaussian_noise(rng, noisy, kFieldNoise);
    in.clean.push_back(std::move(field));
    in.inputs.push_back(std::move(noisy));
  }
  return in;
}

serving::FlowServiceOptions serve_options() {
  serving::FlowServiceOptions o;
  o.params.solver = tvl1::InnerSolver::kResident;  // 4 levels x 5 warps x 30
  o.params.tiled.tile_rows = 88;
  o.params.tiled.tile_cols = 92;
  o.params.tiled.merge_iterations = 4;
  o.slots = 2;
  o.lanes_per_slot = 2;
  o.queue_capacity = 64;
  o.max_batch = 4;
  return o;
}

std::future<Reply> send(FlowService::Session& s, const SessionInputs& in, int k) {
  return in.flow ? s.submit_frame(in.input(k)) : s.submit(in.input(k));
}

struct Arrival {
  double t_s;
  int session;
  int k;  ///< the session's request index
};

// The Poisson schedule: independent exponential inter-arrivals per session
// over [0, seconds), merged in time order.
std::vector<Arrival> make_schedule(Rng& rng, double seconds) {
  std::vector<Arrival> all;
  for (int s = 0; s < kSessions; ++s) {
    const double rate = s >= 4 ? kFlowRate : kChambolleRate;
    std::exponential_distribution<double> gap(rate);
    int k = kWarmupRequests;
    for (double t = gap(rng.engine()); t < seconds; t += gap(rng.engine()))
      all.push_back({t, s, k++});
  }
  std::sort(all.begin(), all.end(),
            [](const Arrival& a, const Arrival& b) { return a.t_s < b.t_s; });
  return all;
}

struct InFlight {
  std::future<Reply> future;
  Clock::time_point due;
  double lag_ms = 0.0;
  int k = 0;
  bool traced = false;
};

struct Record {
  bool flow = false;
  bool traced = false;
  ReplyStatus status = ReplyStatus::kClosed;
  bool threw = false;
  double latency_ms = 0.0, queue_ms = 0.0, solve_ms = 0.0, lag_ms = 0.0;
  double quality = 0.0;  ///< Chambolle: PSNR dB; flow: AEE px
  Clock::time_point done;
};

// FNV-1a over a reply's status and payload bytes.  The replay check compares
// digests, so the run holds no reply payloads (which would show in its peak
// memory).
std::uint64_t digest(const Reply& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  const int status = static_cast<int>(r.status);
  mix(&status, sizeof status);
  for (const Matrix<float>* m : {&r.u, &r.flow.u1, &r.flow.u2}) {
    const int shape[2] = {m->rows(), m->cols()};
    mix(shape, sizeof shape);
    mix(m->data().data(), m->size() * sizeof(float));
  }
  return h;
}

struct Kept {
  int k;
  bool shed;
  std::uint64_t digest;
};

// One per session: waits on the session's replies in submit order (the
// service answers a session strictly FIFO) and timestamps each on arrival.
class Collector {
 public:
  Collector(const SessionInputs& in, bool keep_digests)
      : in_(in), keep_(keep_digests) {}

  void push(InFlight f) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(f));
    }
    cv_.notify_one();
  }
  void finish() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }

  void run() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        f = std::move(queue_.front());
        queue_.pop_front();
      }
      Record r;
      r.flow = in_.flow;
      r.traced = f.traced;
      r.lag_ms = f.lag_ms;
      Reply reply;
      try {
        reply = f.future.get();
        r.status = reply.status;
      } catch (const std::exception&) {
        r.threw = true;
      }
      r.done = Clock::now();
      r.latency_ms = ms_between(f.due, r.done);
      r.queue_ms = reply.queue_ms;
      r.solve_ms = reply.solve_ms;
      if (!r.threw && reply.ok()) {
        if (in_.flow) {
          const bool forward =
              pingpong(f.k, kSequenceFrames) > pingpong(f.k - 1, kSequenceFrames);
          r.quality = pan_aee(reply.flow, in_.rate_x, in_.rate_y, forward);
        } else {
          r.quality = psnr_db(reply.u, in_.clean[static_cast<std::size_t>(
                                           f.k % kInputsPerSession)],
                              2.0 * kFieldAmplitude);
        }
      }
      if (keep_ && f.k < kReplayRequests && !r.threw)
        history.push_back({f.k, reply.shed(), digest(reply)});
      records.push_back(r);
    }
  }

  std::vector<Record> records;
  std::vector<Kept> history;  ///< a sampled session's first replies

 private:
  const SessionInputs& in_;
  const bool keep_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool done_ = false;
};

// Finishes and joins the collectors on every way out of the timed run.
class JoinCollectors {
 public:
  JoinCollectors(std::vector<std::unique_ptr<Collector>>& collectors,
                 std::vector<std::thread>& threads)
      : collectors_(collectors), threads_(threads) {}
  ~JoinCollectors() { (*this)(); }
  JoinCollectors(const JoinCollectors&) = delete;
  JoinCollectors& operator=(const JoinCollectors&) = delete;

  void operator()() {
    for (auto& c : collectors_) c->finish();
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

 private:
  std::vector<std::unique_ptr<Collector>>& collectors_;
  std::vector<std::thread>& threads_;
};

}  // namespace

Outcome run_serve_mixed(const Options& o) {
  Outcome out;
  Rng rng(o.seed);
  std::vector<SessionInputs> inputs;
  for (int s = 0; s < kSessions; ++s) inputs.push_back(make_inputs(s, rng, o.seed));
  const std::vector<Arrival> schedule = make_schedule(rng, o.seconds);
  // The sessions replayed after the run: one of each shape and mode.
  const int sampled[3] = {rng.uniform_int(0, 1), rng.uniform_int(2, 3),
                          rng.uniform_int(4, kSessions - 1)};
  const serving::FlowServiceOptions options = serve_options();

  // Set-up: construct, open the sessions, prime the flow streams and warm
  // the Chambolle engines.  Repeated; the last service carries on.
  std::vector<double> setup_s;
  std::unique_ptr<FlowService> service;
  std::vector<std::shared_ptr<FlowService::Session>> sessions;
  std::vector<std::vector<Kept>> warmup(kSessions);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sessions.clear();
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<FlowService>(options);
    std::vector<std::future<Reply>> pending;
    for (int s = 0; s < kSessions; ++s) sessions.push_back(service->open_session());
    for (int k = 0; k < kWarmupRequests; ++k)
      for (int s = 0; s < kSessions; ++s)
        pending.push_back(send(*sessions[static_cast<std::size_t>(s)],
                               inputs[static_cast<std::size_t>(s)], k));
    for (auto& w : warmup) w.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const Reply r = pending[i].get();
      warmup[i % kSessions].push_back(
          {static_cast<int>(i / kSessions), r.shed(), digest(r)});
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const serving::ServiceStats stats0 = service->stats();

  // Timed run: one collector per session, the generator on this thread.
  std::vector<std::unique_ptr<Collector>> collectors;
  for (int s = 0; s < kSessions; ++s)
    collectors.push_back(std::make_unique<Collector>(
        inputs[static_cast<std::size_t>(s)],
        std::find(std::begin(sampled), std::end(sampled), s) != std::end(sampled)));
  std::vector<std::thread> threads;
  JoinCollectors join_collectors(collectors, threads);
  for (auto& c : collectors) threads.emplace_back([&c] { c->run(); });

  const EngineCounters counters0 = EngineCounters::now();
  if (o.trace) telemetry::set_enabled(false);
  (void)drain_spans(nullptr);

  std::size_t depth_max = 0;
  Clock::time_point next_depth_sample{};
  std::uint64_t traced_sent = 0;
  bool tracing = false;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (const Arrival& a : schedule) {
    const bool traced =
        o.trace && static_cast<long>(a.t_s / kTraceBlockSeconds) % 2 == 1;
    if (traced != tracing) {
      tracing = traced;
      telemetry::set_enabled(traced);
      set_alloc_counting(traced);
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.t_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    InFlight f;
    f.due = due;
    f.lag_ms = ms_between(due, now);
    f.k = a.k;
    f.traced = traced;
    f.future = send(*sessions[static_cast<std::size_t>(a.session)],
                    inputs[static_cast<std::size_t>(a.session)], a.k);
    traced_sent += traced ? 1 : 0;
    collectors[static_cast<std::size_t>(a.session)]->push(std::move(f));
    if (now >= next_depth_sample) {
      depth_max = std::max(depth_max, service->stats().queue_depth);
      next_depth_sample = now + std::chrono::milliseconds(5);
    }
  }
  join_collectors();
  service->drain();
  set_alloc_counting(false);
  if (o.trace) telemetry::set_enabled(false);
  const AllocCount allocs = alloc_count();
  const EngineCounters counters = EngineCounters::now().since(counters0);
  std::uint64_t overwritten = 0;
  const SpanTotals spans = o.trace ? drain_spans(&overwritten) : SpanTotals{};
  const serving::ServiceStats stats = service->stats();
  const double rss = peak_rss_mb();
  sessions.clear();
  service.reset();

  // Books and samples, from the collectors.
  Books books;
  std::vector<double> lag;
  std::vector<Timing> timings;
  std::vector<double> q_ms[2], s_ms[2], lat[2], quality[2];
  double traced_solve = 0.0, traced_expected = 0.0;
  double covered_ms = 0.0, latency_sum = 0.0;
  std::size_t within_slo = 0, traced_flow = 0;
  Clock::time_point last_done = start;
  // Useful element-iterations of the traced requests.
  double useful_cells = 0.0;
  const double cells_per_frame = flow_cells(inputs[4].inputs[0], options.params);
  double untraced_sum[2] = {0, 0};
  std::size_t untraced_n[2] = {0, 0};
  for (const auto& c : collectors)
    for (const Record& r : c->records)
      if (!r.traced && !r.threw && r.status == ReplyStatus::kOk) {
        untraced_sum[r.flow] += r.solve_ms;
        ++untraced_n[r.flow];
      }
  for (std::size_t s = 0; s < collectors.size(); ++s) {
    const double request_cells =
        inputs[s].flow ? cells_per_frame
                       : static_cast<double>(inputs[s].inputs[0].size()) *
                             options.params.chambolle.iterations;
    for (const Record& r : collectors[s]->records) {
      ++books.sent;
      lag.push_back(r.lag_ms);
      if (r.threw) {
        ++books.failed;
        continue;
      }
      switch (r.status) {
        case ReplyStatus::kOk: ++books.ok; break;
        case ReplyStatus::kPrimed: ++books.primed; break;
        case ReplyStatus::kShedQueueFull:
        case ReplyStatus::kShedDeadline: ++books.shed; break;
        case ReplyStatus::kClosed: ++books.closed; break;
      }
      if (r.status != ReplyStatus::kOk) continue;
      const int m = r.flow ? 1 : 0;
      // Scheduled send -> reply ready, on the service's own clocks; the
      // collector's wake-up on this shared 4-core host is harness noise
      // (unattributed_frac in the traced run still shows it).
      timings.push_back({r.solve_ms, r.lag_ms + r.queue_ms + r.solve_ms});
      q_ms[m].push_back(r.queue_ms);
      s_ms[m].push_back(r.solve_ms);
      lat[m].push_back(r.latency_ms);
      quality[m].push_back(r.quality);
      within_slo += r.lag_ms + r.queue_ms + r.solve_ms <= kSloMs ? 1 : 0;
      last_done = std::max(last_done, r.done);
      covered_ms += r.lag_ms + r.queue_ms + r.solve_ms;
      latency_sum += r.latency_ms;
      if (r.traced) {
        traced_flow += r.flow ? 1 : 0;
        traced_solve += r.solve_ms;
        useful_cells += request_cells;
        traced_expected += untraced_n[m] > 0 ? untraced_sum[m] / untraced_n[m] : 0.0;
      }
    }
  }
  const double lag_p99 = quantile(lag, 0.99);

  // Output checks (untimed): the sampled sessions replayed serially on a
  // fresh service must give the same bits, request by request.
  {
    FlowService fresh(options);
    for (int s : sampled) {
      const SessionInputs& in = inputs[static_cast<std::size_t>(s)];
      const auto replay = fresh.open_session();
      std::vector<Kept> original = warmup[static_cast<std::size_t>(s)];
      const auto& history = collectors[static_cast<std::size_t>(s)]->history;
      original.insert(original.end(), history.begin(), history.end());
      bool identical = true;
      for (const Kept& kept : original) {
        if (kept.shed) continue;  // a shed request leaves the stream as it was
        identical = identical && digest(send(*replay, in, kept.k).get()) == kept.digest;
      }
      out.check(identical, "serve_mixed: session " + std::to_string(s) +
                               " differs from its serial replay");
    }
  }
  out.check(books.balanced(), "serve_mixed: books do not balance: " + books.to_string());
  out.check(books.ok > 0, "serve_mixed: no request completed");
  out.check(lag_p99 <= kLagBoundMs,
            "serve_mixed: generator lag p99 " + std::to_string(lag_p99) +
                " ms above the " + std::to_string(kLagBoundMs) + " ms bound; run invalid");
  for (int s = 4; s < kSessions; ++s) {
    const SessionInputs& in = inputs[static_cast<std::size_t>(s)];
    double worst = 0.0, total = 0.0;
    std::size_t n = 0;
    for (const Record& r : collectors[static_cast<std::size_t>(s)]->records)
      if (!r.threw && r.status == ReplyStatus::kOk) {
        worst = std::max(worst, r.quality);
        total += r.quality;
        ++n;
      }
    const double mean = total / std::max<std::size_t>(n, 1);
    out.notes.push_back("serve_mixed: session " + std::to_string(s) + " pan (" +
                        std::to_string(in.rate_x) + ", " + std::to_string(in.rate_y) +
                        ") px/frame, endpoint error mean " + std::to_string(mean) +
                        " px, worst " + std::to_string(worst) + " px");
    const double bound = kAeeShareOfPan * std::hypot(in.rate_x, in.rate_y);
    out.check(worst <= bound, "serve_mixed: session " + std::to_string(s) +
                                  " endpoint error " + std::to_string(worst) +
                                  " px above the " + std::to_string(bound) + " px bound");
  }
  double noisy_db = 0.0;
  for (int s = 0; s < 4; ++s)
    noisy_db += psnr_db(inputs[static_cast<std::size_t>(s)].inputs[0],
                        inputs[static_cast<std::size_t>(s)].clean[0],
                        2.0 * kFieldAmplitude) / 4.0;
  const double denoised_db = sum(quality[0]) / std::max<std::size_t>(quality[0].size(), 1);
  out.check(denoised_db >= noisy_db + kMinGainDb,
            "serve_mixed: Chambolle replies gained less than " +
                std::to_string(kMinGainDb) + " dB");
  out.notes.push_back("books: " + books.to_string());
  out.notes.push_back("serve_mixed: chambolle ok " + std::to_string(s_ms[0].size()) +
                      ", flow ok " + std::to_string(s_ms[1].size()) +
                      ", generator lag p99 " + std::to_string(lag_p99) + " ms");

  out.attempted = books.sent;
  out.failed = books.lost();
  const double span_s = ms_between(start, last_done) / 1e3;
  add_timing_metrics(out, timings, books.ok / span_s);
  out.add("slo_attainment", static_cast<double>(within_slo) / books.sent, "ratio");
  out.add("ok_share", static_cast<double>(books.ok) / books.sent, "ratio");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", rss, "MB");

  if (o.trace) {
    const double requests = static_cast<double>(traced_sent);
    // The lane profiler needs quiescent points, which an open loop has not:
    // no lane fractions here.
    add_engine_metrics(out, counters, requests, useful_cells, nullptr);
    add_tvl1_stage_metrics(out, spans,
                           static_cast<double>(std::max<std::size_t>(traced_flow, 1)));
    out.add("tvl1.aee_px", sum(quality[1]) / std::max<std::size_t>(quality[1].size(), 1), "px");
    add_serving_quantiles(out, "chambolle", q_ms[0], s_ms[0]);
    add_serving_quantiles(out, "flow", q_ms[1], s_ms[1]);
    out.add("serving.latency_ms_p99.chambolle", quantile(lat[0], 0.99), "ms");
    out.add("serving.latency_ms_p90.flow", quantile(lat[1], 0.9), "ms");
    out.add("serving.batch_size_mean",
            static_cast<double>(books.ok + books.primed) / (stats.batches - stats0.batches),
            "count");
    out.add("serving.engine_builds",
            static_cast<double>(stats.engine_builds - stats0.engine_builds), "count");
    out.add("serving.queue_depth_max", static_cast<double>(depth_max), "count");
    out.add("serving.shed", static_cast<double>(books.shed), "count");
    out.add("serving.failed", static_cast<double>(books.failed), "count");
    out.add("serving.allocs_per_request", allocs.allocs / requests, "count");
    out.add("gen.lag_ms_p99", lag_p99, "ms");
    out.add("trace_overhead_frac",
            traced_expected > 0 ? traced_solve / traced_expected - 1.0 : 0.0, "ratio");
    // Layers: the generator's lag, the service's queue wait and its solve
    // (engine and kernel inside).  The rest is the reply hand-off.
    out.add("unattributed_frac", 1.0 - covered_ms / latency_sum, "ratio");
    out.add("quality.psnr_db", denoised_db, "dB");
    out.add("trace.events_overwritten", static_cast<double>(overwritten), "count");
    add_kernel_layer(out, o.seed);
  }
  return out;
}

}  // namespace perfbench
