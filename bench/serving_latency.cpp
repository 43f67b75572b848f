// serving_latency — admission control of the multi-stream flow service
// under burst overload (src/serving/flow_service.hpp).
//
// S Chambolle-mode sessions submit all their frames at once, without
// waiting for replies, against one slot with short queues and a tight
// latency SLO.  The run measures how many requests the service sheds at the
// queue bound vs. the deadline, and checks that completed + shed accounts
// for every submission.  Shed rates depend on the machine, so they are
// reported as plain params.  Latency under sustainable open-loop load is
// the repository benchmark's `serve_mixed` workload (perfbench/).
//
// Runs with no arguments; CHB_SERVING_SESSIONS overrides the session count
// for manual exploration.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/text_table.hpp"
#include "serving/flow_service.hpp"
#include "telemetry/bench_report.hpp"

namespace {

using namespace chambolle;

// An integer environment override in [min, max], or `fallback` when unset;
// nullopt when set to anything else.
std::optional<int> env_int(const char* name, int fallback, int min, int max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return parse_int(s, min, max);
}

tvl1::Tvl1Params bench_params() {
  tvl1::Tvl1Params p;
  p.chambolle.iterations = 30;
  p.tiled.tile_rows = 64;
  p.tiled.tile_cols = 64;
  p.tiled.merge_iterations = 4;
  return p;
}

double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

struct LoadResult {
  double p50 = 0.0, p99 = 0.0;
  serving::ServiceStats stats;
};

// One burst: `sessions` streams submit `rounds` frames each, back to back,
// on a fresh one-slot service with 4-deep queues and a 10 ms SLO.
LoadResult run_overload(int sessions, int rounds) {
  serving::FlowServiceOptions opts;
  opts.params = bench_params();
  opts.slots = 1;
  opts.queue_capacity = 4;
  opts.slo_ms = 10.0;
  serving::FlowService service(opts);

  Rng rng(2000);
  std::vector<Matrix<float>> frames;
  for (int s = 0; s < sessions; ++s)
    frames.push_back(random_image(rng, 128, 128, -3.f, 3.f));

  std::vector<std::shared_ptr<serving::FlowService::Session>> streams;
  for (int s = 0; s < sessions; ++s) streams.push_back(service.open_session());
  std::vector<std::future<serving::Reply>> futures;
  futures.reserve(static_cast<std::size_t>(sessions) *
                  static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r)
    for (int s = 0; s < sessions; ++s)
      futures.push_back(
          streams[static_cast<std::size_t>(s)]->submit(
              frames[static_cast<std::size_t>(s)]));

  std::vector<double> latencies;
  for (auto& f : futures) {
    const serving::Reply reply = f.get();
    if (reply.ok()) latencies.push_back(reply.queue_ms + reply.solve_ms);
  }
  service.drain();
  LoadResult out;
  out.p50 = exact_quantile(latencies, 0.50);
  out.p99 = exact_quantile(latencies, 0.99);
  out.stats = service.stats();
  return out;
}

}  // namespace

int main() {
  constexpr int kMaxSessions = 1024;
  const std::optional<int> parsed =
      env_int("CHB_SERVING_SESSIONS", 6, 1, kMaxSessions);
  if (!parsed) {
    std::fprintf(stderr,
                 "serving_latency: CHB_SERVING_SESSIONS expects an integer "
                 "in [1, %d]\n",
                 kMaxSessions);
    return 2;
  }
  const int sessions = *parsed;
  const int rounds = 20;

  Stopwatch wall;
  TextTable table(
      {"phase", "sessions", "completed", "shed", "p50 ms", "p99 ms"});

  // Burst overload against a tight SLO and short queues: admission control
  // must shed, and the books must balance.
  const LoadResult overload = run_overload(sessions, rounds);
  const std::uint64_t shed =
      overload.stats.shed_queue_full + overload.stats.shed_deadline;
  table.add_row({"overload", std::to_string(sessions),
                 std::to_string(overload.stats.completed),
                 std::to_string(shed), TextTable::num(overload.p50, 3),
                 TextTable::num(overload.p99, 3)});
  table.render(std::cout);

  const std::uint64_t submitted =
      static_cast<std::uint64_t>(sessions) * static_cast<std::uint64_t>(rounds);
  if (overload.stats.completed + shed != submitted) {
    std::fprintf(stderr,
                 "serving_latency: admission books don't balance: "
                 "%llu completed + %llu shed != %llu submitted\n",
                 static_cast<unsigned long long>(overload.stats.completed),
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(submitted));
    return 1;
  }

  telemetry::BenchParams report;
  report.emplace_back("sessions", std::to_string(sessions));
  report.emplace_back("rounds", std::to_string(rounds));
  report.emplace_back("overload_completed",
                      std::to_string(overload.stats.completed));
  report.emplace_back("overload_shed_queue_full",
                      std::to_string(overload.stats.shed_queue_full));
  report.emplace_back("overload_shed_deadline",
                      std::to_string(overload.stats.shed_deadline));
  report.emplace_back("overload_shed", std::to_string(shed));
  telemetry::write_bench_report("serving", report, wall.milliseconds());
  return 0;
}
