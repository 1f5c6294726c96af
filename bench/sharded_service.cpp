// Sharded service vs single-portfolio dynamic scheduling.
//
//   $ ./sharded_service [--minutes 6] [--budget-ms 25] [--seeds 3]
//                       [--routing class-backlog] [--pool-threads 4]
//                       [--steal on] [--json BENCH_sharded_service.json]
//
// Three grid scenarios — consistent, class-structured inconsistent, and a
// class-mix workload on a class-structured grid whose 2-class cycle does
// NOT divide the 4-shard partition evenly (so shards are class-pure: the
// regime class-aware routing exists for) — are replayed under the sharded
// scheduling service at 1/2/4/8 shards crossed with every routing policy,
// all at EQUAL TOTAL BUDGET: the 1-shard baseline gives its whole budget
// to one portfolio; N shards split the same budget over the shards with
// work. For every configuration we report end-to-end makespan, mean
// flowtime, the macro-averaged per-class flowtime (the QoS view), CPU,
// the worst per-activation wall-clock, the worst single-shard budget
// overshoot and rebalancing migrations. `--seeds N` repeats every
// configuration over N seeds and reports mean ± 95% CI (common/stats).
//
// Verdicts (exit 1 on failure):
//   * every scenario: 4 shards x least-backlog is non-inferior to the
//     single queue at equal total budget (paired per seed);
//   * class-mix: class-backlog routing is non-inferior to least-backlog
//     on makespan AND improves the mean per-class flowtime;
//   * drain tail (class-structured scenarios): with cross-shard work
//     stealing ON, the 4-shard makespan premium vs the single queue must
//     tighten from the documented 5% residue band to <= 2% — the paired
//     steal-on vs steal-off comparison runs regardless of `--steal`, so
//     the residue reclaim is enforced at defaults;
//   * overlap: with >= 4 pool threads, CONCURRENT activation of 4 shards
//     completes an activation in measurably less wall-clock than
//     sequential activation at equal total budget, with no job lost.
//
// `--steal on` runs every multi-shard configuration with drain-tail
// stealing (the deployment default the CI smoke exercises); `--json PATH`
// additionally writes every verdict as machine-readable JSON — the
// BENCH_sharded_service.json artifact CI uploads and bench_diff compares
// against bench/baselines/ to build a perf trajectory across commits.
// `--trace PATH` runs one extra traced configuration and writes its
// Chrome trace-event JSON there (open in chrome://tracing / Perfetto);
// the tracing-off-overhead verdict runs regardless, holding the
// disabled-path cost to within noise.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchutil/table.h"
#include "bounds/lower_bound.h"
#include "common/cli.h"
#include "common/stats.h"
#include "core/individual.h"
#include "etc/instance.h"
#include "obs/bench_report.h"
#include "obs/trace_recorder.h"
#include "portfolio/portfolio.h"
#include "service/sharded_driver.h"
#include "workload/workload_source.h"

namespace gridsched {
namespace {

struct Scenario {
  std::string name;
  double noise = 0.0;
  int job_classes = 0;  // class-structured inconsistency (machine types)
  /// Non-empty: wrap the arrival stream in ClassMixWorkload with these
  /// per-class rate weights (job_classes must equal the weight count).
  std::vector<double> class_weights;
  /// The routing the scenario's vs-single-queue verdict fields — the
  /// policy a deployment would actually pick there. Class-structured
  /// scenarios field class-backlog: least-backlog is blind to per-class
  /// queues, and its 2-5% drain-tail makespan residue on those grids is
  /// precisely what class-aware routing removes (ROADMAP item).
  RoutingKind candidate = RoutingKind::kLeastBacklog;
  /// Makespan parity margin (%) of the vs-single-queue verdict. The
  /// class-structured scenarios keep a small residual straggler premium
  /// even under class-aware routing: once arrivals stop, the drain tail
  /// splits a dying queue over machine partitions, and the last shard's
  /// stragglers cannot borrow a neighbor's idle machines. That residue
  /// is bounded at the documented 2-5% band (see docs/service.md) — the
  /// verdict caps the TOTAL premium there instead of letting it hide in
  /// seed-CI width; cross-shard drain-tail stealing is the ROADMAP
  /// follow-on that would reclaim it.
  double makespan_margin = 2.0;
};

struct RunOutcome {
  double makespan = 0.0;
  double flowtime = 0.0;       // mean — feeds the paired verdicts
  double flowtime_p99 = 0.0;   // tail — what the tables display
  /// True when the p99 rank fell among clamped >= range-end samples:
  /// flowtime_p99 is then a floor and the table prefixes the cell ">".
  bool flowtime_p99_overflow = false;
  /// The run's whole flowtime distribution — shipped in the JSON verdicts
  /// so bench_diff can compare tails, not just the p99 scalar.
  LatencyHistogram flowtime_hist;
  double class_flowtime = std::numeric_limits<double>::quiet_NaN();
  double utilization = 0.0;
  double cpu_ms = 0.0;
  double mean_act_wall_ms = 0.0;  // mean whole-activation wall (>= 2 shards)
  double max_act_wall_ms = 0.0;   // worst whole-activation wall
  double max_overshoot_ms = 0.0;  // worst single shard race - its budget
  int migrations = 0;
  int steals = 0;  // drain-tail cross-shard job moves
  int jobs_arrived = 0;
  int jobs_completed = 0;
};

struct ConfigSummary {
  RunningStats makespan;
  RunningStats flowtime;
  RunningStats flowtime_p99;
  bool flowtime_p99_overflow = false;  // any seed's p99 overflowed
  LatencyHistogram flowtime_hist;      // merged over seeds
  RunningStats class_flowtime;
  RunningStats utilization;
  RunningStats cpu_ms;
  RunningStats max_act_wall_ms;
  RunningStats max_overshoot_ms;
  RunningStats migrations;
  RunningStats steals;
  // Raw per-seed values for paired comparisons (seed i of every
  // configuration replays the same arrival trace).
  std::vector<double> makespans;
  std::vector<double> flowtimes;
  std::vector<double> class_flowtimes;
};

/// Paired non-inferiority over seeds: "no worse" means the mean per-seed
/// delta is within the parity margin, or its 95% CI still admits zero
/// (the premium is not statistically distinguishable from none). The 2%
/// margin is the usual parity treatment for makespan-class metrics:
/// makespan is a max statistic, and the racing members are wall-clock
/// budgeted, so the truncation point — and with it the committed
/// schedule — jitters a little run to run even at a fixed seed.
struct PairedDelta {
  double mean = 0.0;
  double ci = 0.0;

  [[nodiscard]] bool no_worse(double margin = 2.0) const noexcept {
    return mean <= margin || mean - ci <= 0.0;
  }
  /// "Improves": the paired point estimate is strictly a gain. No
  /// CI-width loophole here — a verdict that must show improvement
  /// should not pass on a measured regression just because the seeds
  /// were noisy.
  [[nodiscard]] bool improves() const noexcept { return mean < 0.0; }
};

PairedDelta paired_delta(const std::vector<double>& candidate,
                         const std::vector<double>& baseline) {
  std::vector<double> deltas;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    deltas.push_back(percent_delta(candidate[i], baseline[i]));
  }
  const Summary summary = summarize(deltas);
  return {summary.mean, ci95_half_width(deltas.size(), summary.stddev)};
}

RunOutcome run_once(const SimConfig& sim_config,
                    const ServiceConfig& service_config) {
  GridSimulator sim(sim_config);
  GridSchedulingService service(service_config);
  const ShardedSimReport report = run_sharded(sim, service);

  RunOutcome outcome;
  outcome.makespan = report.global.makespan;
  outcome.flowtime = report.global.mean_flowtime;
  outcome.flowtime_p99 = report.global.flowtime_hist.p99();
  outcome.flowtime_p99_overflow =
      report.global.flowtime_hist.percentile_overflows(99.0);
  outcome.flowtime_hist = report.global.flowtime_hist;
  outcome.utilization = report.global.utilization;
  outcome.cpu_ms = report.global.scheduler_cpu_ms;
  outcome.migrations = report.migrations;
  outcome.steals = report.steals;
  outcome.jobs_arrived = report.global.jobs_arrived;
  outcome.jobs_completed = report.global.jobs_completed;
  if (!report.per_class.empty()) {
    double sum = 0.0;
    int classes = 0;
    for (const SimMetrics& metrics : report.per_class) {
      if (metrics.jobs_completed == 0) continue;
      sum += metrics.mean_flowtime;
      ++classes;
    }
    if (classes > 0) outcome.class_flowtime = sum / classes;
  }
  for (const ShardActivationRecord& record : service.shard_activations()) {
    outcome.max_overshoot_ms = std::max(outcome.max_overshoot_ms,
                                        record.race_ms - record.budget_ms);
  }
  // Whole-activation wall-clock from the service's own books: under
  // concurrent activation this is what overlapping buys; sequentially it
  // is the sum of the shard races. The mean is taken over activations
  // that actually raced >= 2 shards (the drain tail of 1-shard
  // activations is identical in both modes and only dilutes the signal).
  double wall_sum = 0.0;
  int wall_count = 0;
  for (const ServiceActivationRecord& record : service.service_activations()) {
    outcome.max_act_wall_ms = std::max(outcome.max_act_wall_ms,
                                       record.wall_ms);
    if (record.shards_raced >= 2) {
      wall_sum += record.wall_ms;
      ++wall_count;
    }
  }
  if (wall_count > 0) outcome.mean_act_wall_ms = wall_sum / wall_count;
  return outcome;
}

void add_outcome(ConfigSummary& summary, const RunOutcome& outcome) {
  summary.makespan.add(outcome.makespan);
  summary.flowtime.add(outcome.flowtime);
  summary.flowtime_p99.add(outcome.flowtime_p99);
  summary.flowtime_p99_overflow |= outcome.flowtime_p99_overflow;
  summary.flowtime_hist.merge(outcome.flowtime_hist);
  summary.makespans.push_back(outcome.makespan);
  summary.flowtimes.push_back(outcome.flowtime);
  if (!std::isnan(outcome.class_flowtime)) {
    summary.class_flowtime.add(outcome.class_flowtime);
    summary.class_flowtimes.push_back(outcome.class_flowtime);
  }
  summary.utilization.add(outcome.utilization);
  summary.cpu_ms.add(outcome.cpu_ms);
  summary.max_act_wall_ms.add(outcome.max_act_wall_ms);
  summary.max_overshoot_ms.add(outcome.max_overshoot_ms);
  summary.migrations.add(outcome.migrations);
  summary.steals.add(outcome.steals);
}

/// Mean ± CI cell with the overflow marker: a ">" prefix says the p99
/// rank fell among samples clamped at the histogram's range end, so the
/// printed value is a floor, not an estimate.
std::string p99_cell(const RunningStats& stats, bool overflow) {
  const std::string cell = TablePrinter::mean_ci(stats, 1);
  return overflow ? ">" + cell : cell;
}

}  // namespace
}  // namespace gridsched

int main(int argc, char** argv) {
  using namespace gridsched;

  // Defaults put the grid in the regime sharding exists for: a large
  // machine pool with batch sizes where a global Min-Min pass no longer
  // fits the activation budget (so the single queue must truncate or bust
  // its latency), while a shard's sub-batch still solves exactly.
  CliParser cli("Sharded scheduling service vs single-portfolio baseline");
  cli.flag("minutes", "6", "simulated minutes of job arrivals");
  cli.flag("budget-ms", "25", "total wall-clock budget per activation");
  cli.flag("rate", "10", "job arrivals per simulated second");
  cli.flag("period", "120", "scheduler activation period (simulated s)");
  cli.flag("machines", "96", "grid machines");
  cli.flag("imbalance", "2", "rebalancing imbalance factor (0 = off)");
  cli.flag("noise", "0.15", "ETC pair noise of the inconsistent scenario");
  cli.flag("class-speedup", "3", "matched-class speedup of the class-"
                                 "structured scenarios (machine types)");
  cli.flag("routing", "class-backlog", "candidate routing of the overlap "
                                       "comparison (class-mix workload)");
  cli.flag("steal", "off", "drain-tail work stealing (on/off) for every "
                           "multi-shard configuration; the steal-on vs "
                           "steal-off drain-tail verdict runs either way");
  cli.flag("json", "", "write every verdict as machine-readable JSON to "
                       "this path (CI uploads it as the "
                       "BENCH_sharded_service.json perf artifact and diffs "
                       "it against bench/baselines/ with bench_diff)");
  cli.flag("trace", "", "run one extra traced configuration and write its "
                        "Chrome trace-event JSON to this path");
  cli.flag("pool-threads", "4", "racing pool width of the overlap "
                                "comparison (>= 4 per the acceptance bar)");
  cli.flag("seed", "7", "base simulation seed");
  cli.flag("seeds", "3", "repetitions per configuration (mean ± 95% CI)");
  cli.flag("lat-tolerance", "5", "verdict bound on shard budget overshoot "
                                 "(ms); raise on noisy shared runners where "
                                 "an OS stall can exceed the cooperative-"
                                 "cancellation bound");
  if (!cli.parse(argc, argv)) return 0;

  const double budget_ms = cli.get_double("budget-ms");
  const int seeds = static_cast<int>(cli.get_int("seeds"));
  const RoutingKind overlap_routing = routing_kind_from_name(
      cli.get("routing"));
  const std::string steal_flag = cli.get("steal");
  if (steal_flag != "on" && steal_flag != "off") {
    std::cerr << "--steal must be 'on' or 'off'\n";
    return 1;
  }
  const bool steal_on = steal_flag == "on";
  obs::BenchReport bench_report;
  bench_report.bench = "sharded_service";
  SimConfig base;
  base.horizon = cli.get_double("minutes") * 60.0;
  base.arrival_rate = cli.get_double("rate");
  base.scheduler_period = cli.get_double("period");
  base.num_machines = static_cast<int>(cli.get_int("machines"));
  base.mips_min = 500.0;
  base.mips_max = 2'000.0;
  base.seed = static_cast<std::uint64_t>(cli.get_double("seed"));

  // The inconsistent grid is class-structured (3 interleaved machine
  // types, class-matched jobs run 3x faster) with mild pair noise on top;
  // its 3-class cycle is coprime to every shard count, so each shard
  // keeps every machine type. The class-mix scenario flips exactly that:
  // 2 machine types under 4 shards makes every shard CLASS-PURE, and a
  // 70/30 ClassMixWorkload skews the demand — per-class queue depth and
  // total queue depth now genuinely disagree, which is the gap between
  // least-backlog and class-backlog routing.
  const std::vector<Scenario> scenarios = {
      {"consistent", 0.0, 0, {}, RoutingKind::kLeastBacklog, 2.0},
      {"inconsistent", cli.get_double("noise"), 3, {},
       RoutingKind::kClassBacklog, 5.0},
      {"class-mix", 0.0, 2, {0.7, 0.3}, RoutingKind::kClassBacklog, 5.0},
  };
  const std::vector<int> shard_counts = {1, 2, 4, 8};

  std::cout << "=== sharded service vs single portfolio ===\n"
            << "total budget " << budget_ms << " ms/activation (split over "
            << "active shards), " << base.num_machines << " machines, "
            << base.arrival_rate << " jobs/s for " << base.horizon
            << " s, period " << base.scheduler_period << " s, " << seeds
            << " seed(s) from " << base.seed << "\n\n";

  bool acceptance_ok = true;
  for (const Scenario& scenario : scenarios) {
    SimConfig sim_config = base;
    sim_config.consistency_noise = scenario.noise;
    sim_config.num_job_classes = scenario.job_classes;
    sim_config.class_speedup = cli.get_double("class-speedup");
    if (!scenario.class_weights.empty()) {
      sim_config.workload = std::make_shared<ClassMixWorkload>(
          std::make_shared<PoissonWorkload>(
              sim_config.arrival_rate,
              LogNormalSize{sim_config.workload_log_mean,
                            sim_config.workload_log_sigma}),
          scenario.class_weights);
    }

    // The latency column shows the p99 flowtime tail (from the fixed-
    // bucket histogram), not the mean: a shard meltdown that slows 1% of
    // jobs 100x barely moves the mean. The paired verdicts below still
    // compare mean flowtime — their bounds predate the histogram.
    TablePrinter table({"shards", "routing", "makespan (s)", "p99 ft (s)",
                        "class ft (s)", "util", "cpu (ms)", "max act (ms)",
                        "ovr (ms)", "migr", "stl"});
    // (shards, routing) -> summary; the 1-shard baseline is routing-free.
    std::map<std::pair<int, RoutingKind>, ConfigSummary> summaries;

    // Replays one configuration over the seed set (seed i = the same
    // arrival trace in every configuration, so verdicts pair per seed).
    const auto run_config = [&](int num_shards, RoutingKind routing,
                                bool steal, const std::string& label) {
      ConfigSummary summary;
      for (int rep = 0; rep < seeds; ++rep) {
        SimConfig run_sim = sim_config;
        run_sim.seed = sim_config.seed + static_cast<std::uint64_t>(rep);
        ServiceConfig service_config;
        service_config.num_shards = num_shards;
        service_config.routing = routing;
        service_config.total_budget_ms = budget_ms;
        service_config.imbalance_factor = cli.get_double("imbalance");
        service_config.drain_steal = steal;
        service_config.seed = run_sim.seed;
        const RunOutcome outcome = run_once(run_sim, service_config);
        if (outcome.jobs_completed != outcome.jobs_arrived) {
          std::cout << "DROP: " << scenario.name << " " << label << " seed "
                    << rep << " completed " << outcome.jobs_completed << "/"
                    << outcome.jobs_arrived << " jobs\n";
          acceptance_ok = false;
        }
        add_outcome(summary, outcome);
      }
      return summary;
    };

    for (const int num_shards : shard_counts) {
      const std::span<const RoutingKind> kinds =
          num_shards == 1
              ? std::span<const RoutingKind>(all_routing_kinds().first(1))
              : all_routing_kinds();
      for (const RoutingKind routing : kinds) {
        const std::string label = std::to_string(num_shards) + " shards x " +
                                  std::string(routing_name(routing));
        ConfigSummary& summary = summaries[{num_shards, routing}];
        summary = run_config(num_shards, routing, steal_on, label);
        table.add_row({std::to_string(num_shards),
                       num_shards == 1 ? "(single queue)"
                                       : std::string(routing_name(routing)),
                       TablePrinter::mean_ci(summary.makespan, 1),
                       p99_cell(summary.flowtime_p99,
                                summary.flowtime_p99_overflow),
                       summary.class_flowtime.count() > 0
                           ? TablePrinter::mean_ci(summary.class_flowtime, 1)
                           : "-",
                       TablePrinter::num(summary.utilization.mean(), 2),
                       TablePrinter::num(summary.cpu_ms.mean(), 0),
                       TablePrinter::num(summary.max_act_wall_ms.mean(), 1),
                       TablePrinter::num(summary.max_overshoot_ms.mean(), 1),
                       TablePrinter::num(summary.migrations.mean(), 0),
                       TablePrinter::num(summary.steals.mean(), 0)});
      }
    }

    std::cout << "--- " << scenario.name << " ---\n";
    table.print(std::cout);

    // Acceptance focus: 4 shards + the scenario's candidate routing vs
    // the 1-shard baseline at equal total budget (paired per seed —
    // identical arrival traces), plus the latency contract: a shard must
    // stay within its budget slice up to the cooperative-cancellation
    // overshoot, which the single queue visibly cannot at these batch
    // sizes.
    const ConfigSummary& baseline =
        summaries[{1, RoutingKind::kRoundRobin}];
    const ConfigSummary& sharded = summaries[{4, scenario.candidate}];
    const PairedDelta mk = paired_delta(sharded.makespans,
                                        baseline.makespans);
    const PairedDelta ft = paired_delta(sharded.flowtimes,
                                        baseline.flowtimes);
    // The overshoot bound is a cooperative-cancellation contract: a
    // member may overrun its deadline by at most one uncancellable move.
    // Concurrent activation makes ALL shards' members runnable at once
    // (4 shards x 5 members here); when the host has fewer cores than
    // that, every "one move" is time-shared and the observed overshoot
    // stretches by the oversubscription factor, so the tolerance scales
    // with it (on a >= 20-core host the factor is 1 and the bound is the
    // flag verbatim).
    const double oversubscription = std::max(
        1.0, 20.0 / std::max(1u, std::thread::hardware_concurrency()));
    const double tolerance =
        cli.get_double("lat-tolerance") * oversubscription;
    const double overshoot = sharded.max_overshoot_ms.max();
    const bool latency_ok = overshoot <= tolerance;
    const bool ok = mk.no_worse(scenario.makespan_margin) && ft.no_worse() &&
                    latency_ok;
    std::cout << "verdict: 4 shards x " << routing_name(scenario.candidate)
              << " vs single queue "
              << "(paired over " << seeds << " seed(s)): makespan "
              << TablePrinter::pct(mk.mean, 2) << "% ± "
              << TablePrinter::num(mk.ci, 2) << ", flowtime "
              << TablePrinter::pct(ft.mean, 2) << "% ± "
              << TablePrinter::num(ft.ci, 2)
              << "; worst shard budget overshoot "
              << TablePrinter::num(overshoot, 2) << " ms (bound "
              << TablePrinter::num(tolerance, 1) << ", single queue "
              << TablePrinter::num(baseline.max_overshoot_ms.max(), 2)
              << " ms) -> " << (ok ? "OK" : "REGRESSION") << "\n";
    if (!ok) acceptance_ok = false;
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = scenario.name + "/vs-single-queue",
        .ok = ok,
        .metrics = {{"makespan_pct", mk.mean},
                    {"makespan_ci", mk.ci},
                    {"flowtime_pct", ft.mean},
                    {"flowtime_ci", ft.ci},
                    {"max_overshoot_ms", overshoot},
                    {"overshoot_bound_ms", tolerance}},
        // Whole flowtime distributions (merged over seeds): bench_diff
        // reads the tails, not just the scalar deltas above.
        .histograms = {{"candidate_flowtime", sharded.flowtime_hist},
                       {"baseline_flowtime", baseline.flowtime_hist}}});

    // Class-routing verdict, on the scenario built for it: class-backlog
    // must hold makespan parity with least-backlog AND improve the
    // macro-averaged per-class flowtime — the QoS per-class queue story.
    if (!scenario.class_weights.empty()) {
      const ConfigSummary& least =
          summaries[{4, RoutingKind::kLeastBacklog}];
      const ConfigSummary& classed =
          summaries[{4, RoutingKind::kClassBacklog}];
      const PairedDelta cmk = paired_delta(classed.makespans,
                                           least.makespans);
      const PairedDelta cft = paired_delta(classed.class_flowtimes,
                                           least.class_flowtimes);
      const bool class_ok = cmk.no_worse() && cft.improves();
      std::cout << "verdict: 4 shards class-backlog vs least-backlog "
                << "(paired over " << seeds << " seed(s)): makespan "
                << TablePrinter::pct(cmk.mean, 2) << "% ± "
                << TablePrinter::num(cmk.ci, 2) << ", per-class flowtime "
                << TablePrinter::pct(cft.mean, 2) << "% ± "
                << TablePrinter::num(cft.ci, 2) << " -> "
                << (class_ok ? "OK" : "REGRESSION") << "\n";
      if (!class_ok) acceptance_ok = false;
      bench_report.verdicts.push_back(obs::BenchVerdict{
          .name = scenario.name + "/class-routing",
          .ok = class_ok,
          .metrics = {{"makespan_pct", cmk.mean},
                      {"makespan_ci", cmk.ci},
                      {"class_flowtime_pct", cft.mean},
                      {"class_flowtime_ci", cft.ci}},
        .histograms = {}});
    }

    // Drain-tail verdict, on the scenarios carrying the documented 5%
    // residue band (class-structured grids): cross-shard work stealing
    // must tighten the 4-shard makespan premium vs the single queue to
    // <= 2%. Both sides run regardless of --steal — the grid supplies the
    // flag's setting, the complement is replayed here — so the reclaim is
    // enforced at the bench's defaults, paired per seed.
    if (scenario.job_classes > 0) {
      const ConfigSummary complement = run_config(
          4, scenario.candidate,
          !steal_on,
          "4 shards x " + std::string(routing_name(scenario.candidate)) +
              (steal_on ? " (steal off)" : " (steal on)"));
      const ConfigSummary& with_steal = steal_on ? sharded : complement;
      const ConfigSummary& without_steal = steal_on ? complement : sharded;
      const PairedDelta mk_on = paired_delta(with_steal.makespans,
                                             baseline.makespans);
      const PairedDelta mk_off = paired_delta(without_steal.makespans,
                                              baseline.makespans);
      const bool drain_ok = mk_on.no_worse(2.0);
      std::cout << "verdict: drain tail, 4 shards x "
                << routing_name(scenario.candidate)
                << " vs single queue (paired over " << seeds
                << " seed(s)): makespan steal-off "
                << TablePrinter::pct(mk_off.mean, 2) << "% ± "
                << TablePrinter::num(mk_off.ci, 2) << " (bound "
                << TablePrinter::num(scenario.makespan_margin, 0)
                << "), steal-on " << TablePrinter::pct(mk_on.mean, 2)
                << "% ± " << TablePrinter::num(mk_on.ci, 2)
                << " (bound 2, "
                << TablePrinter::num(with_steal.steals.mean(), 0)
                << " steals/run) -> "
                << (drain_ok ? "OK" : "REGRESSION") << "\n";
      if (!drain_ok) acceptance_ok = false;
      bench_report.verdicts.push_back(obs::BenchVerdict{
          .name = scenario.name + "/drain-tail-steal",
          .ok = drain_ok,
          .metrics = {{"makespan_steal_on_pct", mk_on.mean},
                      {"makespan_steal_on_ci", mk_on.ci},
                      {"makespan_steal_off_pct", mk_off.mean},
                      {"makespan_steal_off_ci", mk_off.ci},
                      {"steals_per_run", with_steal.steals.mean()}},
        .histograms = {}});
    }
    std::cout << "\n";
  }

  // --- Overlap: sequential vs concurrent shard activation at equal total
  // budget, on the class-mix workload with the candidate routing. The
  // sequential mode pays the budget slices one after another (wall ~ the
  // whole budget); concurrent activation overlaps them on the shared pool
  // (wall ~ one slice), which is the whole point of group-scoped racing.
  {
    SimConfig sim_config = base;
    // The overlap measurement is a scheduler-LATENCY microbenchmark: its
    // operating point is deadline-dominated races (members stop at their
    // wall deadline, so overlapping turns N queued slices into one).
    // Long horizons push batches into the compute-bound regime where a
    // core-starved host serializes the same total work either way and
    // the contrast measures the machine, not the service — cap the
    // horizon so the comparison stays about activation overlap.
    sim_config.horizon = std::min(sim_config.horizon, 180.0);
    sim_config.num_job_classes = 2;
    sim_config.class_speedup = cli.get_double("class-speedup");
    sim_config.workload = std::make_shared<ClassMixWorkload>(
        std::make_shared<PoissonWorkload>(
            sim_config.arrival_rate,
            LogNormalSize{sim_config.workload_log_mean,
                          sim_config.workload_log_sigma}),
        std::vector<double>{0.7, 0.3});

    TablePrinter table({"activation", "mean act (ms)", "max act (ms)",
                        "makespan (s)", "p99 ft (s)"});
    RunningStats wall[2];  // 0 = sequential, 1 = concurrent
    RunningStats wall_max[2];
    RunningStats makespan[2];
    RunningStats flowtime[2];
    for (int mode = 0; mode < 2; ++mode) {
      for (int rep = 0; rep < seeds; ++rep) {
        SimConfig run_sim = sim_config;
        run_sim.seed = sim_config.seed + static_cast<std::uint64_t>(rep);
        ServiceConfig service_config;
        service_config.num_shards = 4;
        service_config.routing = overlap_routing;
        service_config.total_budget_ms = budget_ms;
        service_config.imbalance_factor = cli.get_double("imbalance");
        service_config.threads =
            static_cast<std::size_t>(cli.get_int("pool-threads"));
        service_config.concurrent_shards = mode == 1;
        service_config.drain_steal = steal_on;
        service_config.seed = run_sim.seed;
        const RunOutcome outcome = run_once(run_sim, service_config);
        if (outcome.jobs_completed != outcome.jobs_arrived) {
          std::cout << "DROP: overlap mode " << mode << " seed " << rep
                    << " completed " << outcome.jobs_completed << "/"
                    << outcome.jobs_arrived << " jobs\n";
          acceptance_ok = false;
        }
        wall[mode].add(outcome.mean_act_wall_ms);
        wall_max[mode].add(outcome.max_act_wall_ms);
        makespan[mode].add(outcome.makespan);
        flowtime[mode].add(outcome.flowtime_p99);
      }
      table.add_row({mode == 0 ? "sequential" : "concurrent",
                     TablePrinter::mean_ci(wall[mode], 2),
                     TablePrinter::num(wall_max[mode].max(), 2),
                     TablePrinter::mean_ci(makespan[mode], 1),
                     TablePrinter::mean_ci(flowtime[mode], 1)});
    }
    std::cout << "--- overlap: sequential vs concurrent activation (4 "
              << "shards x " << routing_name(overlap_routing) << ", "
              << cli.get("pool-threads") << " pool threads, class-mix) ---\n";
    table.print(std::cout);
    const double speedup = wall[1].mean() > 0
                               ? wall[0].mean() / wall[1].mean()
                               : 0.0;
    // "Measurably less": at least a 1.2x mean per-activation speedup. The
    // ideal with 4 busy shards is ~4x; even a fully time-shared single
    // core clears 1.2x easily because the members are deadline-bounded —
    // overlapped shards run to the SAME wall deadline instead of queueing
    // their slices back to back.
    const bool overlap_ok = speedup >= 1.2;
    std::cout << "verdict: concurrent activation "
              << TablePrinter::num(speedup, 2)
              << "x faster per activation at equal total budget -> "
              << (overlap_ok ? "OK" : "REGRESSION") << "\n\n";
    if (!overlap_ok) acceptance_ok = false;
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = "overlap/concurrent-activation",
        .ok = overlap_ok,
        .metrics = {{"speedup", speedup},
                    {"sequential_mean_act_ms", wall[0].mean()},
                    {"concurrent_mean_act_ms", wall[1].mean()}},
        .histograms = {}});
  }

  // --- Observability overhead: the same configuration with tracing off
  // (null recorder — the deployment default) vs on (spans recorded and
  // flushed every activation), paired per seed. The disabled path is one
  // null check per site, so its cost must vanish into run-to-run noise;
  // the bound leaves headroom for scheduler jitter on shared runners
  // rather than gating at measurement resolution.
  {
    SimConfig sim_config = base;
    sim_config.horizon = std::min(sim_config.horizon, 180.0);
    sim_config.num_job_classes = 2;
    sim_config.class_speedup = cli.get_double("class-speedup");
    sim_config.workload = std::make_shared<ClassMixWorkload>(
        std::make_shared<PoissonWorkload>(
            sim_config.arrival_rate,
            LogNormalSize{sim_config.workload_log_mean,
                          sim_config.workload_log_sigma}),
        std::vector<double>{0.7, 0.3});

    RunningStats wall[2];  // 0 = tracing off, 1 = tracing on
    std::size_t trace_events = 0;
    for (int mode = 0; mode < 2; ++mode) {
      for (int rep = 0; rep < seeds; ++rep) {
        SimConfig run_sim = sim_config;
        run_sim.seed = sim_config.seed + static_cast<std::uint64_t>(rep);
        ServiceConfig service_config;
        service_config.num_shards = 4;
        service_config.routing = overlap_routing;
        service_config.total_budget_ms = budget_ms;
        service_config.imbalance_factor = cli.get_double("imbalance");
        service_config.threads =
            static_cast<std::size_t>(cli.get_int("pool-threads"));
        service_config.drain_steal = steal_on;
        service_config.seed = run_sim.seed;
        obs::TraceRecorder recorder;
        if (mode == 1) service_config.trace = &recorder;
        const RunOutcome outcome = run_once(run_sim, service_config);
        wall[mode].add(outcome.mean_act_wall_ms);
        if (mode == 1) trace_events += recorder.event_count();
      }
    }
    const double off_ms = wall[0].mean();
    const double on_ms = wall[1].mean();
    // 1.5x + 2 ms: multiplicative headroom for noise at realistic
    // activation walls, the additive floor for sub-millisecond ones.
    const double bound_ms = off_ms * 1.5 + 2.0;
    const bool overhead_ok = on_ms <= bound_ms;
    std::cout << "verdict: tracing overhead (4 shards x "
              << routing_name(overlap_routing) << ", paired over " << seeds
              << " seed(s)): mean activation wall off "
              << TablePrinter::num(off_ms, 3) << " ms, on "
              << TablePrinter::num(on_ms, 3) << " ms ("
              << trace_events / static_cast<std::size_t>(seeds)
              << " events/run; bound " << TablePrinter::num(bound_ms, 3)
              << ") -> " << (overhead_ok ? "OK" : "REGRESSION") << "\n\n";
    if (!overhead_ok) acceptance_ok = false;
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = "observability/trace-overhead",
        .ok = overhead_ok,
        .metrics = {{"trace_off_mean_act_ms", off_ms},
                    {"trace_on_mean_act_ms", on_ms},
                    {"overhead_bound_ms", bound_ms}},
        .histograms = {}});
  }

  // --- Quality anchor: how close the service's scheduling core gets to
  // the makespan lower bound (bounds/lower_bound.h, docs/bounds.md) on
  // a fixed canonical instance. Evaluation-bounded rather than wall-clock-
  // bounded, so the result is a pure function of the seed — CI gates the
  // gap across commits without runner speed in the loop. Every other
  // verdict in this report measures the service against ITSELF (vs a
  // single queue, vs stealing off); this one measures it against a proven
  // floor no configuration can beat.
  {
    InstanceSpec spec;  // defaults: consistent hi-hi, the paper-table class
    spec.num_jobs = 64;
    spec.num_machines = 8;
    const EtcMatrix anchor_etc = generate_instance(spec);
    PortfolioConfig portfolio_config;
    // A generous deadline: the evaluation bound binds.
    portfolio_config.stop = {.max_time_ms = 60'000.0,
                             .max_evaluations = 20'000};
    portfolio_config.threads = 2;
    portfolio_config.seed = base.seed;
    PortfolioBatchScheduler portfolio(
        portfolio_config,
        PortfolioBatchScheduler::default_members(portfolio_config));
    const Schedule schedule = portfolio.schedule_batch(anchor_etc);
    const double makespan =
        make_individual(schedule, anchor_etc, portfolio_config.weights)
            .objectives.makespan;
    const auto bound = bounds::makespan_bound(anchor_etc);
    const double gap = bounds::optimality_gap_pct(makespan, bound.value);
    const bool anchor_ok = makespan >= bound.value * (1.0 - 1e-9);
    std::cout << "verdict: quality anchor (" << spec.num_jobs << "x"
              << spec.num_machines << " " << spec.name() << ", "
              << portfolio_config.stop.max_evaluations
              << " evals/member, seed " << base.seed << "): makespan "
              << TablePrinter::num(makespan, 1) << " vs lower bound "
              << TablePrinter::num(bound.value, 1) << " -> gap "
              << TablePrinter::num(gap, 2) << "% "
              << (anchor_ok ? "OK" : "BELOW BOUND (evaluator bug)")
              << "\n\n";
    if (!anchor_ok) acceptance_ok = false;
    obs::BenchVerdict verdict;
    verdict.name = "quality/gap-anchor";
    verdict.ok = anchor_ok;
    verdict.metrics.emplace_back("anchor_makespan", makespan);
    obs::add_gap_metric(verdict, "anchor_makespan", makespan, bound.value);
    bench_report.verdicts.push_back(std::move(verdict));
  }

  // --- Dedicated traced run: one class-mix configuration with every
  // subsystem engaged (stealing, resizing left at defaults), its Chrome
  // trace written for CI to upload.
  if (!cli.get("trace").empty()) {
    SimConfig sim_config = base;
    sim_config.horizon = std::min(sim_config.horizon, 180.0);
    sim_config.num_job_classes = 2;
    sim_config.class_speedup = cli.get_double("class-speedup");
    sim_config.workload = std::make_shared<ClassMixWorkload>(
        std::make_shared<PoissonWorkload>(
            sim_config.arrival_rate,
            LogNormalSize{sim_config.workload_log_mean,
                          sim_config.workload_log_sigma}),
        std::vector<double>{0.7, 0.3});
    ServiceConfig service_config;
    service_config.num_shards = 4;
    service_config.routing = overlap_routing;
    service_config.total_budget_ms = budget_ms;
    service_config.imbalance_factor = cli.get_double("imbalance");
    service_config.threads =
        static_cast<std::size_t>(cli.get_int("pool-threads"));
    service_config.drain_steal = true;
    service_config.seed = sim_config.seed;
    obs::TraceRecorder recorder;
    service_config.trace = &recorder;
    (void)run_once(sim_config, service_config);
    if (recorder.write_file(cli.get("trace"))) {
      std::cout << "wrote " << cli.get("trace") << " ("
                << recorder.event_count() << " trace events)\n";
    } else {
      acceptance_ok = false;
    }
  }

  if (!cli.get("json").empty()) {
    bench_report.ok = acceptance_ok;
    bench_report.write_file(cli.get("json"));
  }

  std::cout << (acceptance_ok
                    ? "sharded service holds the single-queue baseline at "
                      "equal total budget\n"
                    : "sharded service REGRESSED against the single-queue "
                      "baseline\n");
  return acceptance_ok ? 0 : 1;
}
