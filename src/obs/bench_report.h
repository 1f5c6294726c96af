// Machine-readable bench verdict reports (the BENCH_*.json artifacts).
//
// bench/sharded_service and bench/qos_slo used to carry their own copies
// of the JSON writer; this is the shared one, extended with optional
// per-verdict histograms so BENCH artifacts carry whole latency
// distributions (tails), not just p50/p99 scalars. The schema is a strict
// superset of the PR 5/6 format, so older artifacts still diff cleanly:
//
//   {"bench": "<name>", "ok": true|false,
//    "verdicts": [
//      {"name": "...", "ok": true|false,
//       "metrics": {"<metric>": <number|null>, ...},
//       "histograms": {"<metric>": <histogram_to_json>, ...}}  // optional
//    ]}
//
// bench/bench_diff.cpp (via obs/bench_diff.h) compares two such files
// metric by metric across commits.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/json.h"

namespace gridsched::obs {

/// Full-fidelity histogram export: sparse [bucket, count] pairs plus the
/// range so a reader can reject a histogram recorded under different
/// constants. Round-trips through histogram_from_json bit-exactly.
[[nodiscard]] JsonValue histogram_to_json(const LatencyHistogram& histogram);

/// Rebuilds a histogram exported by histogram_to_json; nullopt when the
/// document is malformed or its range does not match this build's
/// LatencyHistogram constants.
[[nodiscard]] std::optional<LatencyHistogram> histogram_from_json(
    const JsonValue& value);

struct BenchVerdict {
  std::string name;
  bool ok = true;
  /// Non-finite values serialize as null (no NaN/Inf in JSON).
  std::vector<std::pair<std::string, double>> metrics;
  /// Full distributions; omitted from the JSON when empty.
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;
};

struct BenchReport {
  std::string bench;
  bool ok = true;
  std::vector<BenchVerdict> verdicts;

  void write(std::ostream& out) const;
  /// Writes to `path`; logs to stderr and returns false on failure.
  bool write_file(const std::string& path) const;
};

/// Appends the optimality-gap metric pair for one objective:
///   "<prefix>_gap_pct"     = 100·(objective − lb)/lb   (gated: bench_diff
///                            treats unrecognized metrics as lower-is-
///                            better, which is exactly right for a gap)
///   "<prefix>_lower_bound" = lb  (informational: "bound" in the name
///                            opts it out of gating — docs/observability.md)
/// A non-positive lower bound serializes both as null rather than gating
/// on garbage. bounds::optimality_gap_pct computes the same definition;
/// this lives here so every bench threads gaps through BenchReport the
/// same way.
void add_gap_metric(BenchVerdict& verdict, const std::string& prefix,
                    double objective, double lower_bound);

}  // namespace gridsched::obs
