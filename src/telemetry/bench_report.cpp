#include "telemetry/bench_report.hpp"

#include <cstdio>

#include "telemetry/json_util.hpp"
#include "telemetry/metrics.hpp"

namespace chambolle::telemetry {

std::string bench_report_json(const std::string& name,
                              const BenchParams& params, double wall_ms) {
  std::string out = "{\n  \"name\": ";
  json_append_escaped(out, name);
  out += ",\n  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : params) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_escaped(out, key);
    out += ": ";
    json_append_escaped(out, value);
  }
  out += "\n  },\n  \"wall_ms\": " + json_number(wall_ms);
  out += ",\n  \"metrics\": " + registry().snapshot_json();
  // snapshot_json ends with "}\n"; splice it in as a nested object.
  while (!out.empty() && out.back() == '\n') out.pop_back();
  out += "\n}\n";
  return out;
}

std::string write_bench_report(const std::string& name,
                               const BenchParams& params, double wall_ms,
                               const std::string& dir) {
  const std::string path = dir + "/BENCH_" + name + ".json";
  if (!write_text_file(path, bench_report_json(name, params, wall_ms)))
    return "";
  std::printf("[bench_report] wrote %s\n", path.c_str());
  return path;
}

}  // namespace chambolle::telemetry
