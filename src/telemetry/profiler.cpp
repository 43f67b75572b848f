#include "telemetry/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "telemetry/json_util.hpp"
#include "telemetry/trace.hpp"

namespace chambolle::telemetry {
namespace detail {

std::atomic<int> g_profiler_active{0};

namespace {
thread_local int t_lane = -1;
}  // namespace

}  // namespace detail

const char* lane_cause_name(LaneCause c) {
  switch (c) {
    case LaneCause::kKernel:
      return "kernel";
    case LaneCause::kEpochWait:
      return "epoch_wait";
    case LaneCause::kMailbox:
      return "mailbox";
    case LaneCause::kIdle:
      return "idle";
  }
  return "unknown";
}

int profiler_set_lane(int lane) {
  const int prev = detail::t_lane;
  detail::t_lane = lane;
  return prev;
}

int profiler_lane() { return detail::t_lane; }

void profiler_add(LaneCause cause, double seconds) {
  if (!profiler_active() || cause == LaneCause::kIdle || seconds <= 0.0)
    return;
  const int lane = detail::t_lane;
  Profiler& p = Profiler::instance();
  if (lane < 0 || lane >= static_cast<int>(p.lane_slots_.size())) return;
  Profiler::LaneSlot& slot = p.lane_slots_[static_cast<std::size_t>(lane)];
  const int c = static_cast<int>(cause);
  slot.ns[c].fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
  slot.events[c].fetch_add(1, std::memory_order_relaxed);
}

void profiler_add_tile(int tile, double seconds) {
  if (!profiler_active() || seconds < 0.0) return;
  Profiler& p = Profiler::instance();
  if (tile < 0 || tile >= static_cast<int>(p.tile_slots_.size())) return;
  Profiler::TileSlot& slot = p.tile_slots_[static_cast<std::size_t>(tile)];
  slot.ns.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
  slot.passes.fetch_add(1, std::memory_order_relaxed);
}

ProfScope::ProfScope(LaneCause cause) {
  if (profiler_active()) {
    cause_ = static_cast<std::int32_t>(cause);
    start_ns_ = detail::trace_now_ns();
  }
}

ProfScope::~ProfScope() {
  if (cause_ >= 0) {
    const std::uint64_t end = detail::trace_now_ns();
    profiler_add(static_cast<LaneCause>(cause_),
                 static_cast<double>(end - start_ns_) * 1e-9);
  }
}

double UtilizationReport::busy_fraction() const {
  if (lanes.empty() || wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const LaneUsage& l : lanes)
    busy += l.seconds[static_cast<int>(LaneCause::kKernel)];
  return busy / (wall_seconds * static_cast<double>(lanes.size()));
}

double UtilizationReport::imbalance_ratio() const {
  if (lanes.empty()) return 0.0;
  double max_busy = 0.0, sum_busy = 0.0;
  for (const LaneUsage& l : lanes) {
    const double b = l.seconds[static_cast<int>(LaneCause::kKernel)];
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  const double mean = sum_busy / static_cast<double>(lanes.size());
  return mean > 0.0 ? max_busy / mean : 0.0;
}

double UtilizationReport::total_seconds(LaneCause cause) const {
  double s = 0.0;
  for (const LaneUsage& l : lanes) s += l.seconds[static_cast<int>(cause)];
  return s;
}

std::string UtilizationReport::to_json() const {
  std::string out = "{\n  \"wall_seconds\": " + json_number(wall_seconds);
  out += ",\n  \"lanes\": [";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"lane\": " + json_number(static_cast<std::int64_t>(i));
    for (int c = 0; c < kLaneCauseCount; ++c) {
      out += ", ";
      json_append_escaped(out, std::string(lane_cause_name(
                                   static_cast<LaneCause>(c))) +
                                   "_seconds");
      out += ": " + json_number(lanes[i].seconds[c]);
    }
    for (int c = 0; c < kLaneCauseCount; ++c) {
      if (c == static_cast<int>(LaneCause::kIdle)) continue;
      out += ", ";
      json_append_escaped(out, std::string(lane_cause_name(
                                   static_cast<LaneCause>(c))) +
                                   "_events");
      out += ": " + json_number(lanes[i].events[c]);
    }
    out += "}";
  }
  out += "\n  ],\n  \"summary\": {";
  out += "\n    \"busy_fraction\": " + json_number(busy_fraction());
  out += ",\n    \"imbalance_ratio\": " + json_number(imbalance_ratio());
  for (int c = 0; c < kLaneCauseCount; ++c) {
    out += ",\n    ";
    json_append_escaped(
        out,
        std::string(lane_cause_name(static_cast<LaneCause>(c))) + "_seconds");
    out += ": " + json_number(total_seconds(static_cast<LaneCause>(c)));
  }
  out += "\n  },\n  \"tiles\": [";
  bool first = true;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (tiles[t].passes == 0) continue;
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"tile\": " + json_number(static_cast<std::int64_t>(t));
    out += ", \"passes\": " + json_number(tiles[t].passes);
    out += ", \"kernel_seconds\": " + json_number(tiles[t].seconds) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string UtilizationReport::to_table() const {
  char buf[256];
  std::string out;
  out += "lane     kernel  epoch_w  mailbox    idle   util%\n";
  const auto row = [&](const char* label, const double s[kLaneCauseCount],
                       double wall) {
    const double util =
        wall > 0.0 ? 100.0 * s[static_cast<int>(LaneCause::kKernel)] / wall
                   : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%-6s %8.3f %8.3f %8.3f %7.3f  %5.1f%%\n", label,
                  1e3 * s[0], 1e3 * s[1], 1e3 * s[2], 1e3 * s[3], util);
    out += buf;
  };
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    char label[16];
    std::snprintf(label, sizeof label, "%zu", i);
    row(label, lanes[i].seconds, wall_seconds);
  }
  double totals[kLaneCauseCount] = {};
  for (const LaneUsage& l : lanes)
    for (int c = 0; c < kLaneCauseCount; ++c) totals[c] += l.seconds[c];
  row("all", totals, wall_seconds * static_cast<double>(lanes.size()));
  std::snprintf(buf, sizeof buf,
                "wall %.3f ms, busy fraction %.2f, imbalance %.2f "
                "(times in ms)\n",
                1e3 * wall_seconds, busy_fraction(), imbalance_ratio());
  out += buf;
  return out;
}

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler();  // leaked: outlives exit
  return *p;
}

void Profiler::begin(int lanes, int max_tiles) {
  if (profiler_active())
    throw std::logic_error("Profiler::begin: a session is already active");
  if (lanes < 1) lanes = 1;
  if (max_tiles < 0) max_tiles = 0;
  lane_slots_.clear();
  tile_slots_.clear();
  // vector growth value-initializes the atomics (all zero).
  lane_slots_ = std::vector<LaneSlot>(static_cast<std::size_t>(lanes));
  tile_slots_ = std::vector<TileSlot>(static_cast<std::size_t>(max_tiles));
  session_start_ns_ = detail::trace_now_ns();
  // Release: the sized vectors must be visible before any recorder sees the
  // active flag.
  detail::g_profiler_active.store(1, std::memory_order_release);
}

UtilizationReport Profiler::end() {
  if (!profiler_active())
    throw std::logic_error("Profiler::end: no active session");
  const std::uint64_t end_ns = detail::trace_now_ns();
  detail::g_profiler_active.store(0, std::memory_order_release);

  UtilizationReport r;
  r.wall_seconds = static_cast<double>(end_ns - session_start_ns_) * 1e-9;
  r.lanes.resize(lane_slots_.size());
  for (std::size_t i = 0; i < lane_slots_.size(); ++i) {
    LaneUsage& u = r.lanes[i];
    for (int c = 0; c < kLaneCauseCount - 1; ++c) {
      u.seconds[c] = static_cast<double>(
                         lane_slots_[i].ns[c].load(std::memory_order_relaxed)) *
                     1e-9;
      u.events[c] = lane_slots_[i].events[c].load(std::memory_order_relaxed);
    }
    // Idle is the residual, clamped: attributed time can exceed wall only by
    // clock-granularity rounding, which must not yield negative idle.
    u.seconds[static_cast<int>(LaneCause::kIdle)] =
        std::max(0.0, r.wall_seconds - u.attributed());
  }
  for (std::size_t t = 0; t < tile_slots_.size(); ++t) {
    const std::uint64_t passes =
        tile_slots_[t].passes.load(std::memory_order_relaxed);
    if (passes == 0) continue;
    if (r.tiles.size() <= t) r.tiles.resize(t + 1);
    r.tiles[t].passes = passes;
    r.tiles[t].seconds =
        static_cast<double>(tile_slots_[t].ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return r;
}

void Profiler::cancel() {
  detail::g_profiler_active.store(0, std::memory_order_release);
}

}  // namespace chambolle::telemetry
