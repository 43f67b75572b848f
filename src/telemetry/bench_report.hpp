// bench_report.hpp — machine-readable benchmark artifacts.
//
// Every bench binary that adopts this writes BENCH_<name>.json next to its
// stdout table, with a stable schema:
//
//   {
//     "name":    "<bench name>",
//     "params":  { "<key>": "<value>", ... },   // run configuration + results
//     "wall_ms": <total wall-clock of the run>,
//     "metrics": { ...MetricRegistry snapshot... }
//   }
//
// so CI and plotting scripts consume benchmark output without scraping
// tables.  The metrics snapshot is embedded even when telemetry was off
// (all zeros then) to keep the schema stable.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace chambolle::telemetry {

using BenchParams = std::vector<std::pair<std::string, std::string>>;

/// Serializes the report; exposed separately for testing.
[[nodiscard]] std::string bench_report_json(const std::string& name,
                                            const BenchParams& params,
                                            double wall_ms);

/// Writes BENCH_<name>.json into `dir` (default: current directory).
/// Returns the path written, or an empty string on I/O failure.
std::string write_bench_report(const std::string& name,
                               const BenchParams& params, double wall_ms,
                               const std::string& dir = ".");

}  // namespace chambolle::telemetry
