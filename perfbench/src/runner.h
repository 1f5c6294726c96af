// The workload-independent half of the benchmark: how a run is timed,
// checked and summarized.
//
// A run builds its inputs several times (set-up, timed each time, median
// reported), does any once-per-run preparation, then repeats the
// workload's fixed-work phase ("rep") until the time budget is spent.
// Every rep is a pure function of the seed, so its deterministic outcomes
// must repeat bit for bit; a rep that differs from the first counts as a
// failed operation (nondeterminism).
//
// The traced run alternates untraced and traced reps. Traced reps record
// spans around every call into a layer; the spans give per-layer self
// times, and their outcomes must match the untraced reps bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Deterministic quality of one rep: end-to-end metrics that host speed
/// never moves. See perfbench/README.md for each definition per workload.
struct Quality {
  double makespan_ratio = 0.0;
  double flowtime_ratio = 0.0;
  double mean_flowtime_s = 0.0;
  double flowtime_p99_s = 0.0;
  double deadline_met_pct = 0.0;
  double completed_pct = 0.0;
};

using LayerMetrics = std::map<std::string, double>;

struct RepResult {
  /// Wall time of the fixed-work phase, the benchmark's own checks
  /// excluded.
  double solve_s = 0.0;
  /// Jobs scheduled in the phase.
  double jobs = 0.0;
  /// Wall time of each scheduler activation, timed around the call.
  std::vector<double> activation_ms;
  Quality quality;
  /// Every deterministic outcome of the rep (quality included), compared
  /// bit for bit across reps and between untraced and traced reps.
  std::vector<double> outcome;
  /// Schedules checked, and the checks that failed.
  long checked = 0;
  std::vector<std::string> errors;
  /// Per-layer metrics; filled only by traced reps.
  LayerMetrics layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed. Called several times; each call
  /// replaces the previous inputs and is timed by the runner.
  virtual void setup(SpanRecorder* spans) = 0;
  /// Drops what the last set-up built, so that tearing it down stays out
  /// of the next timed set-up.
  virtual void release_inputs() {}
  /// Once-per-run work after set-up that the reps depend on but that is
  /// not part of the timed phase (paper-batch's certified bounds).
  virtual void prepare(SpanRecorder* /*spans*/) {}
  /// One fixed-work phase. A non-null recorder makes it a traced rep.
  [[nodiscard]] virtual RepResult run_rep(SpanRecorder* spans) = 0;
  /// Per-layer metrics measured outside the reps (set-up, preparation).
  virtual void outside_layers(LayerMetrics& /*out*/) const {}
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced run; empty = not written.
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;  // how many measurements the value summarizes
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// solve_s of every rep, in run order (untraced reps in a traced run).
  std::vector<double> rep_solve_s;
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_batch(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_swf_stream(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_burst_churn(std::uint64_t seed);

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload as `options` says and summarizes it.
[[nodiscard]] Outcome run(const Options& options);

/// The fixed seeded ScheduleEvaluator call sequence behind the core.*
/// layer metrics (ns or us per call), on the canonical u_i_hihi.0.
[[nodiscard]] LayerMetrics core_probe(std::uint64_t seed);

/// Threads of the service's racing pool: min(hardware threads, 4).
[[nodiscard]] std::size_t service_threads();

}  // namespace perfbench
