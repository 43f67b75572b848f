// rof_1024x768 — ROF denoising at Table II's larger frame (1024 wide x 768
// high) with 200 iterations.  Seeded noisy smooth_texture frames go through
// one FlowService Chambolle-mode session, closed loop, on a warm engine with
// warm-start duals.  The kernel and engine do nearly all the work; the
// pipeline is absent and the service idles (queue ~0).  v/px/py take ~9 MB,
// more than the host's total L2.
//
// The service is built anew, untimed, every kSegmentFrames frames.  On the
// tuning host one service instance keeps one speed for as long as it lives,
// but two instances differed by up to 40 % (likely where their threads and
// pages land), so a run that kept one instance measured that instance; a run over
// several instances measures the code.
#include <algorithm>
#include <future>

#include "harness.hpp"
#include "chambolle/solver.hpp"
#include "common/rng.hpp"
#include "serving/flow_service.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

using namespace chambolle;

constexpr int kRows = 768, kCols = 1024;
constexpr int kDistinctFrames = 3;
constexpr float kNoiseSigma = 20.f;
// About twice a frame's solve time on the 4-core host the benchmark was
// tuned on.
constexpr double kSloMs = 400.0;
constexpr int kTraceBlock = 10;
// Timed frames per service instance; a 30 s run sees about nine instances.
constexpr int kSegmentFrames = 20;
// Every run must denoise: mean PSNR at least this far above the input's.
constexpr double kMinGainDb = 3.0;
// Lanes of the one slot: three of the host's four cores.  The fourth runs
// the client, the OS and whatever else shares the machine; with all four
// lanes the run-to-run spread of frame times doubled.
constexpr int kLanes = 3;

serving::FlowServiceOptions rof_options() {
  serving::FlowServiceOptions o;
  // ROF: u = argmin TV(u) + 1/(2 theta) ||u - v||^2 on [0, 255] intensities.
  o.params.chambolle.theta = 12.f;
  o.params.chambolle.tau = 3.f;  // tau / theta = 1/4
  o.params.chambolle.iterations = 200;
  o.params.tiled.tile_rows = 88;
  o.params.tiled.tile_cols = 92;
  o.params.tiled.merge_iterations = 4;
  o.slots = 1;
  o.lanes_per_slot = kLanes;
  o.queue_capacity = 4;
  o.max_batch = 1;
  return o;
}

}  // namespace

Outcome run_rof(const Options& o) {
  Outcome out;
  std::vector<Image> clean, noisy;
  Rng rng(o.seed);
  for (int i = 0; i < kDistinctFrames; ++i) {
    clean.push_back(workloads::smooth_texture(kRows, kCols, o.seed * 131 + i));
    Image n = clean.back();
    add_gaussian_noise(rng, n, kNoiseSigma);
    noisy.push_back(std::move(n));
  }
  const serving::FlowServiceOptions options = rof_options();

  // Set-up: construct the service and run the cold first request, which
  // builds the slot's engine.  Done kSetupRepeats times before the run and
  // again at every segment start; setup_s is the median of all of them.
  std::vector<double> setup_s;
  std::unique_ptr<serving::FlowService> service;
  std::shared_ptr<serving::FlowService::Session> session;
  serving::ServiceStats stats0;
  std::uint64_t batches = 0, engine_builds = 0;  // of the timed frames
  const auto close_service = [&] {
    if (!service) return;
    const serving::ServiceStats stats = service->stats();
    batches += stats.batches - stats0.batches;
    engine_builds += stats.engine_builds - stats0.engine_builds;
    session.reset();
    service.reset();
  };
  const auto open_service = [&] {
    close_service();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<serving::FlowService>(options);
    session = service->open_session();
    serving::Reply cold = session->submit(noisy[0]).get();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    stats0 = service->stats();
    return cold;
  };
  serving::Reply first;
  for (int rep = 0; rep < kSetupRepeats; ++rep) first = open_service();

  Books books;
  std::vector<Timing> timings;
  std::vector<double> latency_ms, solve_ms, queue_ms, traced_queue_ms, psnr;
  std::size_t depth_max = 0;
  TracedBlocks traced_blocks(kLanes);
  const EngineCounters counters0 = EngineCounters::now();
  if (o.trace) telemetry::set_enabled(false);
  (void)drain_spans(nullptr);

  double elapsed_s = 0.0;
  for (int k = 1; elapsed_s < o.seconds; ++k) {
    if (k % kSegmentFrames == 0) (void)open_service();
    const bool traced = o.trace && ((k - 1) / kTraceBlock) % 2 == 1;
    if (traced) traced_blocks.begin();
    const std::size_t idx = static_cast<std::size_t>(k % kDistinctFrames);
    ++books.sent;
    serving::Reply reply;
    bool threw = false;
    const Clock::time_point t0 = Clock::now();
    try {
      std::future<serving::Reply> f = session->submit(noisy[idx]);
      if (traced) depth_max = std::max(depth_max, service->stats().queue_depth);
      reply = f.get();
    } catch (const std::exception&) {
      threw = true;
    }
    const double ms = ms_between(t0, Clock::now());
    if (traced) traced_blocks.end();
    elapsed_s += ms / 1e3;
    if (threw) {
      ++books.failed;
    } else if (reply.status == serving::ReplyStatus::kClosed) {
      ++books.closed;
    } else if (reply.shed()) {
      ++books.shed;
    } else if (!reply.ok()) {
      ++books.primed;
    } else {
      ++books.ok;
      timings.push_back({reply.solve_ms, ms});
      latency_ms.push_back(ms);
      solve_ms.push_back(reply.solve_ms);
      queue_ms.push_back(reply.queue_ms);
      (traced ? traced_blocks.traced_ms : traced_blocks.untraced_ms).push_back(ms);
      if (traced) traced_queue_ms.push_back(reply.queue_ms);
      psnr.push_back(psnr_db(reply.u, clean[idx], 255.0));
    }
  }
  const AllocCount allocs = alloc_count();
  const double rss = peak_rss_mb();
  const EngineCounters counters = EngineCounters::now().since(counters0);
  close_service();

  // Output checks (untimed): the cold first reply against the sequential
  // reference solve, the denoising gain, and the books.
  const ChambolleResult reference = solve(noisy[0], options.params.chambolle);
  out.check(first.ok() && same_bits(first.u, reference.u),
            "rof: first (cold) reply differs from the sequential solve()");
  const double denoised_db = sum(psnr) / std::max<std::size_t>(psnr.size(), 1);
  const double gain_db = denoised_db - psnr_db(noisy[0], clean[0], 255.0);
  out.check(gain_db >= kMinGainDb,
            "rof: denoising gained less than " + std::to_string(kMinGainDb) + " dB");
  out.check(books.balanced(), "rof: books do not balance: " + books.to_string());
  out.check(books.ok > 0, "rof: no request completed");
  out.notes.push_back("books: " + books.to_string());
  out.notes.push_back("rof: denoising gained " + std::to_string(gain_db) + " dB (bound " +
                      std::to_string(kMinGainDb) + " dB)");

  out.attempted = books.sent;
  out.failed = books.lost();
  std::size_t within_slo = 0;
  for (double ms : latency_ms) within_slo += ms <= kSloMs ? 1 : 0;
  add_timing_metrics(out, timings);
  out.add("slo_attainment", static_cast<double>(within_slo) / books.sent, "ratio");
  out.add("ok_share", static_cast<double>(books.ok) / books.sent, "ratio");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", rss, "MB");

  if (o.trace) {
    const double n = static_cast<double>(traced_blocks.traced_ms.size());
    const double useful = static_cast<double>(kRows) * kCols *
                          options.params.chambolle.iterations * n;
    add_engine_metrics(out, counters, n, useful, &traced_blocks.lanes);
    add_serving_quantiles(out, "chambolle", queue_ms, solve_ms);
    out.add("serving.latency_ms_p99.chambolle", quantile(latency_ms, 0.99), "ms");
    out.add("serving.batch_size_mean",
            static_cast<double>(books.ok) / batches, "count");
    out.add("serving.engine_builds", static_cast<double>(engine_builds), "count");
    out.add("serving.queue_depth_max", static_cast<double>(depth_max), "count");
    out.add("serving.shed", static_cast<double>(books.shed), "count");
    out.add("serving.failed", static_cast<double>(books.failed), "count");
    out.add("serving.allocs_per_request", allocs.allocs / n, "count");
    out.add("quality.psnr_db", denoised_db, "dB");
    out.add("trace_overhead_frac", traced_blocks.overhead(), "ratio");
    // Layers: the service's queue wait plus its request span (which holds
    // the engine and the kernel).  The rest is the client/future hand-off.
    out.add("unattributed_frac",
            1.0 - (sum(traced_queue_ms) + traced_blocks.spans.ms("serving.request")) /
                      sum(traced_blocks.traced_ms),
            "ratio");
    out.add("trace.events_overwritten", static_cast<double>(traced_blocks.overwritten),
            "count");
    add_kernel_layer(out, o.seed);
  }
  return out;
}

}  // namespace perfbench
