// tvl1_316x252 — single-stream TV-L1 video on the paper's software frame
// (316 wide x 252 high), fed closed-loop through tvl1::FlowSession with the
// resident inner solver (88x92 window, merge 4) and the default 4 levels x
// 5 warps x 30 iterations.  The pipeline and many small coarse-level engine
// solves dominate; there is no service.
//
// The session and the pool's threads are built anew, untimed, every
// kSegmentFrames frames, as rof_1024x768 does with its service: one instance
// keeps one speed for as long as it lives, and instances differ.
#include <algorithm>
#include <cmath>

#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"
#include "workloads/sequence.hpp"

namespace perfbench {
namespace {

using namespace chambolle;

constexpr int kRows = 252, kCols = 316;
constexpr int kSequenceFrames = 12;
// About twice a frame's solve time on the 4-core host the benchmark was
// tuned on.
constexpr double kSloMs = 200.0;
// Every frame pair's endpoint error must stay under this share of the pan's
// speed (1.5 px right and 0.5 px down per frame): a zero or stale flow errs
// by the whole speed.  Typical errors are near 0.03 px; the seeded texture
// decides, and nearly one-directional textures reach several times that.
constexpr double kAeeShareOfPan = 0.6;
// Border pixels the pan moves out of view are left out of the PSNR.
constexpr int kPsnrMargin = 8;
// Frames per block; the traced run alternates untraced and traced blocks.
constexpr int kTraceBlock = 5;
// Lanes of the default pool: three of the host's four cores, as in
// rof_1024x768.  The pipeline's serial stages keep a fourth lane idle anyway.
constexpr int kLanes = 3;
// Timed frames per session; a 30 s run sees about eight sessions.
constexpr int kSegmentFrames = 40;

tvl1::Tvl1Params paper_params() {
  tvl1::Tvl1Params p;  // 4 levels x 5 warps x 30 inner iterations
  p.solver = tvl1::InnerSolver::kResident;
  p.tiled.tile_rows = 88;
  p.tiled.tile_cols = 92;
  p.tiled.merge_iterations = 4;
  return p;
}

}  // namespace

Outcome run_tvl1(const Options& o) {
  Outcome out;
  workloads::SequenceParams sp;
  sp.kind = workloads::MotionKind::kPan;
  sp.frames = kSequenceFrames;
  sp.seed = o.seed;  // the texture; the pan keeps make_sequence's rate
  const workloads::VideoSequence seq = workloads::make_sequence(kRows, kCols, sp);
  const auto frame = [&](int k) -> const Image& {
    return seq.frames[static_cast<std::size_t>(pingpong(k, kSequenceFrames))];
  };
  const tvl1::Tvl1Params params = paper_params();

  // Set-up: start the pool's threads, construct, prime with frame k - 2
  // and compute the flow to frame k - 1.  Done kSetupRepeats times before
  // the run and again at every segment start; setup_s is the median of all.
  std::vector<double> setup_s;
  std::optional<tvl1::FlowSession> session;
  const auto open_session = [&](int k) {
    session.reset();
    parallel::set_default_pool_threads(1);  // joins the workers
    const Clock::time_point t0 = Clock::now();
    parallel::set_default_pool_threads(kLanes);
    session.emplace(params);
    (void)session->push_frame(frame(k - 2));
    FlowField flow = *session->push_frame(frame(k - 1));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    return flow;
  };
  FlowField first_flow;
  for (int rep = 0; rep < kSetupRepeats; ++rep) first_flow = open_session(2);

  // Timed run.
  Books books;
  std::vector<Timing> timings;
  std::vector<double> aee, psnr;
  TracedBlocks traced_blocks(kLanes);
  const EngineCounters counters0 = EngineCounters::now();
  if (o.trace) telemetry::set_enabled(false);
  (void)drain_spans(nullptr);

  double elapsed_s = 0.0;
  for (int k = 2; elapsed_s < o.seconds; ++k) {
    if (k > 2 && (k - 2) % kSegmentFrames == 0) (void)open_session(k);
    const bool traced = o.trace && ((k - 2) / kTraceBlock) % 2 == 1;
    if (traced) traced_blocks.begin();
    ++books.sent;
    std::optional<FlowField> flow;
    const Clock::time_point t0 = Clock::now();
    try {
      flow = session->push_frame(frame(k));
    } catch (const std::exception&) {
    }
    const double ms = ms_between(t0, Clock::now());
    if (traced) traced_blocks.end();
    if (!flow.has_value()) {
      // A throw, or a primed reply mid-stream: either way no flow came back
      // and the stream's state is no longer known.
      ++books.failed;
      break;
    }
    ++books.ok;
    // Closed loop: each frame is sent the moment the previous one returns.
    timings.push_back({ms, ms});
    elapsed_s += ms / 1e3;
    (traced ? traced_blocks.traced_ms : traced_blocks.untraced_ms).push_back(ms);

    // Untimed quality: endpoint error against the analytic pan and the
    // motion-compensated reconstruction of the previous frame.
    const bool forward = pingpong(k, kSequenceFrames) > pingpong(k - 1, kSequenceFrames);
    aee.push_back(pan_aee(*flow, sp.rate_x, sp.rate_y, forward));
    psnr.push_back(psnr_db(tvl1::warp(frame(k), *flow), frame(k - 1), 255.0, kPsnrMargin));
  }
  const double rss = peak_rss_mb();
  const AllocCount allocs = alloc_count();
  const EngineCounters counters = EngineCounters::now().since(counters0);

  // Output checks (untimed).
  const FlowField reference = [&] {
    tvl1::Tvl1Params ref = params;
    ref.solver = tvl1::InnerSolver::kReference;
    return tvl1::compute_flow(frame(0), frame(1), ref);
  }();
  out.check(same_bits(first_flow.u1, reference.u1) &&
                same_bits(first_flow.u2, reference.u2),
            "tvl1: first flow differs from compute_flow(kReference)");
  const double worst_aee = aee.empty() ? 0.0 : *std::max_element(aee.begin(), aee.end());
  const double aee_bound = kAeeShareOfPan * std::hypot(sp.rate_x, sp.rate_y);
  out.check(worst_aee <= aee_bound,
            "tvl1: endpoint error " + std::to_string(worst_aee) +
                " px above the " + std::to_string(aee_bound) + " px bound");
  out.check(books.balanced(), "tvl1: books do not balance: " + books.to_string());
  out.check(books.ok > 0, "tvl1: no frame completed");
  out.notes.push_back("books: " + books.to_string());
  out.notes.push_back("tvl1: aee mean " + std::to_string(sum(aee) / aee.size()) +
                      " px, worst " + std::to_string(worst_aee) + " px (bound " +
                      std::to_string(aee_bound) + " px per pair)");

  out.attempted = books.sent;
  out.failed = books.lost();
  std::size_t within_slo = 0;
  for (const Timing& t : timings) within_slo += t.latency_ms <= kSloMs ? 1 : 0;
  add_timing_metrics(out, timings);
  out.add("slo_attainment", static_cast<double>(within_slo) / books.sent, "ratio");
  out.add("ok_share", static_cast<double>(books.ok) / books.sent, "ratio");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", rss, "MB");

  if (o.trace) {
    const double n = static_cast<double>(traced_blocks.traced_ms.size());
    const double wall = sum(traced_blocks.traced_ms);
    const SpanTotals& spans = traced_blocks.spans;
    add_engine_metrics(out, counters, n, flow_cells(frame(0), params) * n,
                       &traced_blocks.lanes);
    add_tvl1_stage_metrics(out, spans, n);
    out.add("tvl1.allocs_per_frame", allocs.allocs / n, "count");
    out.add("tvl1.alloc_bytes_per_frame", allocs.bytes / n, "B");
    out.add("tvl1.aee_px", sum(aee) / aee.size(), "px");
    out.add("quality.psnr_db", sum(psnr) / psnr.size(), "dB");
    out.add("trace_overhead_frac", traced_blocks.overhead(), "ratio");
    // Layers: the pyramid build and compute_flow (the pipeline, with the
    // engine and kernel inside) cover push_frame; the rest is its glue.
    out.add("unattributed_frac",
            1.0 - (spans.ms("tvl1.pyramid") + spans.ms("tvl1.compute_flow")) / wall,
            "ratio");
    out.add("trace.events_overwritten", static_cast<double>(traced_blocks.overwritten),
            "count");
    add_kernel_layer(out, o.seed);
  }
  return out;
}

}  // namespace perfbench
