// perfbench — the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//
// Runs one seeded workload for about <s> seconds, checks its outputs, and
// prints as its last stdout line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A failed output or books check prints "correct": false with
// no metrics and exits 1.  perfbench/run.py builds this binary and is the
// entry point; see perfbench/README.md for the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "kernels/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

// The end-to-end metric set every untraced run prints (BENCHMARK.json).
const std::set<std::string> kEndToEnd = {
    "frames_per_s", "frame_ms_p50", "latency_ms_p50", "slo_attainment",
    "ok_share",     "setup_s",      "peak_rss_mb"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tvl1_316x252|rof_1024x768|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--commit ID]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// CPU time the hypervisor took from the (virtual) machine (the "steal" column of
// /proc/stat) and all CPU time, in clock ticks since boot; zeros when
// unavailable.
std::pair<double, double> steal_and_total_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(o.seconds >= 1.0 && o.seconds <= 120.0))
    usage("--seconds must be in [1, 120]");

  // The untimed run measures the default build as users get it: a pinned
  // kernel backend or telemetry switched on from outside would change the
  // numbers without changing the code.
  if (env_set("CHAMBOLLE_KERNEL")) {
    std::fprintf(stderr, "perfbench: refusing to run with CHAMBOLLE_KERNEL set\n");
    return 2;
  }
  if (!o.trace && env_set("CHAMBOLLE_TELEMETRY")) {
    std::fprintf(stderr,
                 "perfbench: refusing an untraced run with CHAMBOLLE_TELEMETRY "
                 "set\n");
    return 2;
  }
  if (o.trace && !chambolle::telemetry::enabled()) {
    std::fprintf(stderr,
                 "perfbench: the traced run needs CHAMBOLLE_TELEMETRY=1\n");
    return 2;
  }

  std::printf(
      "fingerprint: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"cpu\": \"%s\", \"nproc\": %u, \"backend\": \"%s\", \"commit\": "
      "\"%s\"}\n",
      json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      chambolle::kernels::backend_name(chambolle::kernels::active_backend()),
      json_escape(commit).c_str());

  const auto ticks0 = steal_and_total_ticks();
  Outcome out;
  try {
    if (o.workload == "tvl1_316x252")
      out = perfbench::run_tvl1(o);
    else if (o.workload == "rof_1024x768")
      out = perfbench::run_rof(o);
    else if (o.workload == "serve_mixed")
      out = perfbench::run_serve_mixed(o);
    else
      usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload threw: %s\n", e.what());
    return 1;
  }
  const auto ticks1 = steal_and_total_ticks();
  if (ticks1.second > ticks0.second)
    out.notes.push_back(
        "host: steal " +
        std::to_string(100.0 * (ticks1.first - ticks0.first) /
                       (ticks1.second - ticks0.second)) +
        " % of all CPU time during the run");
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());

  if (o.trace) perfbench::add_missing_layer_metrics(out);
  std::string metrics;
  std::set<std::string> printed;
  for (const Metric& m : out.metrics) {
    if ((kEndToEnd.count(m.name) != 0) == o.trace) continue;
    if (!std::isfinite(m.value))
      out.check_failures.push_back("metric " + m.name + " is not finite");
    if (!printed.insert(m.name).second)
      out.check_failures.push_back("metric " + m.name + " reported twice");
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  if (!o.trace && printed != kEndToEnd)
    out.check_failures.push_back("end-to-end metric set incomplete");

  const bool correct = out.check_failures.empty();
  for (const std::string& f : out.check_failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      correct ? metrics.c_str() : "");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
