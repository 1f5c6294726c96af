// Shared plumbing for the paper-experiment bench binaries.
//
// Every bench follows the same recipe: parse the shared flags, build the 12
// canonical instances (or a figure's single tuning instance), run each
// configured algorithm `runs` times under an equal wall-clock budget with a
// thread pool, and print the paper's rows next to the measured ones.
#pragma once

#include <cmath>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/bench_args.h"
#include "benchutil/experiment.h"
#include "benchutil/series.h"
#include "benchutil/table.h"
#include "bounds/lower_bound.h"
#include "cma/cma.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "core/bounds.h"
#include "etc/instance.h"
#include "etc/paper_reference.h"
#include "ga/braun_ga.h"
#include "ga/steady_state_ga.h"
#include "ga/struggle_ga.h"
#include "heuristics/constructive.h"
#include "obs/bench_report.h"

namespace gridsched::bench {

/// Parses the shared flags (plus any bench-specific ones registered by
/// `extra`). Returns nullopt if --help was requested.
inline std::optional<BenchArgs> parse_args(
    int argc, const char* const* argv, const std::string& summary,
    const std::function<void(CliParser&)>& extra = {}) {
  CliParser cli(summary);
  BenchArgs::register_flags(cli);
  if (extra) extra(cli);
  if (!cli.parse(argc, argv)) return std::nullopt;
  return BenchArgs::from_cli(cli);
}

/// The stop condition every bench run shares: the wall-clock budget plus
/// the optional --evals bound (which makes the run machine-independent —
/// the CI gap gate records its baselines that way).
inline StopCondition bench_stop(const BenchArgs& args) {
  StopCondition stop;
  stop.max_time_ms = args.time_ms;
  stop.max_evaluations = args.evals;
  return stop;
}

/// The paper's tuned cMA (Table 1) under the bench's budget and shape.
inline CmaConfig paper_cma_config(const BenchArgs& args, bool record = false) {
  CmaConfig config;
  config.stop = bench_stop(args);
  config.seed = args.seed;
  config.record_progress = record;
  return config;
}

/// Gap-column cell: "4.35 (dual)" when the Lagrangian dual sets the
/// bound, "(cheap)" when a closed-form floor is at least as high.
inline std::string gap_cell(double objective,
                            const bounds::MakespanBoundResult& bound) {
  const double gap = bounds::optimality_gap_pct(objective, bound.value);
  if (!std::isfinite(gap)) return "-";
  return TablePrinter::num(gap, 2) +
         (bound.lp > bound.cheap ? " (dual)" : " (cheap)");
}

/// Folds the per-verdict oks into the report and writes it when --json was
/// given. Returns the bench's exit code: a bound violation — an algorithm
/// reporting an objective below a proven lower bound — is a correctness
/// bug, not a quality regression, and fails the run outright.
inline int finish_report(obs::BenchReport& report, const BenchArgs& args) {
  for (const auto& verdict : report.verdicts) {
    report.ok = report.ok && verdict.ok;
  }
  if (!args.json.empty()) report.write_file(args.json);
  return report.ok ? 0 : 1;
}

/// Builds the 12 canonical instances at the bench's shape. For non-default
/// shapes the labels keep the class naming so rows stay recognizable.
struct BenchInstance {
  std::string label;
  EtcMatrix etc;
};

inline std::vector<BenchInstance> benchmark_instances(const BenchArgs& args) {
  std::vector<BenchInstance> instances;
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = args.jobs;
    spec.num_machines = args.machines;
    instances.push_back({spec.name(), generate_instance(spec)});
  }
  return instances;
}

/// The single instance the tuning figures use (consistent hi-hi, the class
/// whose makespan magnitudes match Fig. 2's axis).
inline EtcMatrix tuning_instance(const BenchArgs& args) {
  InstanceSpec spec;  // defaults: consistent hihi
  spec.num_jobs = args.jobs;
  spec.num_machines = args.machines;
  return generate_instance(spec);
}

/// Standard header block for bench output.
inline void print_header(const std::string& title, const BenchArgs& args) {
  std::cout << "=== " << title << " ===\n"
            << "protocol: " << args.runs << " run(s) x " << args.time_ms
            << " ms, " << args.jobs << " jobs x " << args.machines
            << " machines, seed " << args.seed
            << (args.paper ? "  [paper protocol]" : "") << "\n"
            << "note: instances are fresh samples of the Braun classes; "
               "compare shapes, not absolute values (DESIGN.md #3)\n\n";
}

inline ThreadPool& shared_pool(const BenchArgs& args) {
  static ThreadPool pool(args.threads > 0
                             ? static_cast<std::size_t>(args.threads)
                             : 0);
  return pool;
}

/// Averages the best-so-far makespan trajectories of several runs onto a
/// common `samples`-point grid over [0, t1_ms] — the figures plot the mean
/// behaviour of repeated runs, not a single lucky trajectory.
inline NamedSeries averaged_series(std::string name,
                                   const std::vector<EvolutionResult>& runs,
                                   double t1_ms, int samples) {
  NamedSeries series{std::move(name), {}};
  for (int i = 0; i < samples; ++i) {
    const double t =
        samples > 1 ? t1_ms * static_cast<double>(i) / (samples - 1) : t1_ms;
    double sum = 0.0;
    int counted = 0;
    for (const auto& run : runs) {
      const double v = series_value_at(run.progress, t);
      if (!std::isnan(v)) {
        sum += v;
        ++counted;
      }
    }
    ProgressPoint point;
    point.time_ms = t;
    point.best_makespan = counted > 0 ? sum / counted : 0.0;
    series.points.push_back(point);
  }
  return series;
}

/// One (name, config-tweak) pair of a tuning sweep.
struct CmaVariant {
  std::string name;
  std::function<void(CmaConfig&)> mutate_config;
};

/// Runs every variant `args.runs` times with progress recording — all
/// variants and repetitions flattened over the thread pool — and returns
/// one averaged makespan-vs-time series per variant.
inline std::vector<NamedSeries> sweep_variants(
    const BenchArgs& args, const EtcMatrix& etc,
    const std::vector<CmaVariant>& variants) {
  std::vector<SeededRun> jobs;
  for (const auto& variant : variants) {
    jobs.push_back([&args, &etc, &variant](std::uint64_t seed) {
      CmaConfig config = paper_cma_config(args, /*record=*/true);
      config.seed = seed;
      variant.mutate_config(config);
      return CellularMemeticAlgorithm(config).run(etc);
    });
  }
  const auto results = run_matrix(jobs, args.runs, args.seed,
                                  shared_pool(args));
  std::vector<NamedSeries> series;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    series.push_back(
        averaged_series(variants[i].name, results[i].runs, args.time_ms, 10));
  }
  return series;
}

}  // namespace gridsched::bench
