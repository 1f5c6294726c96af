// Deadline SLOs vs offered load under the sharded service.
//
//   $ ./qos_slo [--minutes 4] [--seeds 3]
//               [--loads 1.0,1.2,1.5] [--json BENCH_qos_slo.json]
//
// A QoS-annotated workload (QosWorkload: 70% of jobs carry a deadline of
// 1.5-4x their reference service time) is replayed on a class-structured
// grid at increasing offered load — the arrival rate scaled to roughly
// 1.0x, 1.2x and 1.5x the grid's service capacity — across shard counts,
// comparing two deployments at every operating point, paired per seed
// (same seed = same arrival trace, machine speeds and churn):
//
//   baseline    least-backlog routing, admission OFF: every job is
//               admitted and routed deadline-blind — the PR 5 service.
//   candidate   deadline-aware routing + admission ON: deadline jobs
//               chase the shard minimizing their completion estimate,
//               already-doomed jobs degrade to best effort, and under
//               overload (mean per-machine backlog above the threshold)
//               doomed jobs are shed at ingress (Schedule::kRejected).
//
// Reported per configuration: the deadline miss rate (late + rejected +
// unfinished, over deadline-carrying jobs — rejections COUNT as misses,
// so admission cannot game the SLO by hiding jobs), p99 tardiness of the
// late completions, best-effort completions, jobs shed, and executed
// cost. Job accounting treats completed + rejected = arrived as lossless:
// a shed job is a recorded decision, not a dropped one.
//
// Verdicts (exit 1 on failure), paired per seed at every shard count:
//   * at every overloaded point (load >= 1.2): the candidate's miss rate
//     is STRICTLY below the baseline's (mean paired delta in percentage
//     points < 0) — deadline-aware routing plus shedding must buy real
//     SLO headroom exactly where it is claimed to;
//   * at every point: candidate best-effort completions stay within 5%
//     of the baseline's — the SLO win must not come from starving or
//     shedding the patient work (best-effort jobs are never rejected).
//
// Every member race stops on its evaluation count (kMemberEvaluations;
// the wall budget is a backstop that never binds first), so the table and
// verdicts are a pure function of the seed.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchutil/table.h"
#include "common/cli.h"
#include "common/stats.h"
#include "obs/bench_report.h"
#include "qos/qos_workload.h"
#include "service/sharded_driver.h"
#include "workload/workload_source.h"

namespace gridsched {
namespace {

// Evaluations per member per race. A 15 ms wall-clock race on a 4-core
// host made about this much search: Struggle GA ~2.9k, LAHC ~11.5k, cMA
// ~0.5k and cMA-sync ~0.2k evaluations (median ~1.7k).
constexpr std::int64_t kMemberEvaluations = 2'000;
// Wall budget per activation: a backstop the evaluation count undercuts.
constexpr double kBackstopBudgetMs = 600'000.0;

struct RunOutcome {
  double miss_rate = 0.0;       // global deadline miss rate, [0, 1]
  double tardiness_p99 = 0.0;   // of late completions (s)
  bool tardiness_p99_overflow = false;  // p99 clamped at histogram range end
  int deadline_jobs = 0;
  int rejected = 0;             // shed at ingress
  int best_effort_done = 0;     // completed jobs without a deadline
  double total_cost = 0.0;
  int jobs_arrived = 0;
  int jobs_completed = 0;
};

struct ConfigSummary {
  RunningStats miss_rate;
  RunningStats tardiness_p99;
  // True when ANY seed's p99 was clamped at the histogram range end — the
  // tardiness_p99 mean is then a floor, and the table flags it.
  bool tardiness_p99_overflow = false;
  RunningStats rejected;
  RunningStats best_effort_done;
  RunningStats total_cost;
  // Raw per-seed values for the paired verdicts.
  std::vector<double> miss_rates;
  std::vector<double> best_efforts;
};

RunOutcome run_once(const SimConfig& sim_config,
                    const ServiceConfig& service_config) {
  GridSimulator sim(sim_config);
  GridSchedulingService service(service_config);
  const ShardedSimReport report = run_sharded(sim, service);

  RunOutcome outcome;
  outcome.miss_rate = report.global_slo.miss_rate();
  outcome.tardiness_p99 = report.global_slo.tardiness_p99;
  outcome.tardiness_p99_overflow = report.global_slo.tardiness_p99_overflow;
  outcome.deadline_jobs = report.global_slo.deadline_jobs;
  outcome.rejected = report.global.jobs_rejected;
  outcome.total_cost = report.global.total_cost;
  outcome.jobs_arrived = report.global.jobs_arrived;
  outcome.jobs_completed = report.global.jobs_completed;
  const std::vector<TraceJob>& trace = sim.arrival_trace();
  for (const SimJobRecord& record : sim.job_records()) {
    if (trace[static_cast<std::size_t>(record.id)].deadline < 0 &&
        record.finish >= 0) {
      ++outcome.best_effort_done;
    }
  }
  return outcome;
}

void add_outcome(ConfigSummary& summary, const RunOutcome& outcome) {
  summary.miss_rate.add(outcome.miss_rate * 100.0);
  summary.tardiness_p99.add(outcome.tardiness_p99);
  summary.tardiness_p99_overflow |= outcome.tardiness_p99_overflow;
  summary.rejected.add(outcome.rejected);
  summary.best_effort_done.add(outcome.best_effort_done);
  summary.total_cost.add(outcome.total_cost);
  summary.miss_rates.push_back(outcome.miss_rate * 100.0);
  summary.best_efforts.push_back(outcome.best_effort_done);
}

/// Paired per-seed delta in absolute units (percentage points for miss
/// rates — a relative delta would explode when the baseline is near
/// zero).
struct PairedDelta {
  double mean = 0.0;
  double ci = 0.0;

  [[nodiscard]] bool improves() const noexcept { return mean < 0.0; }
};

PairedDelta paired_abs_delta(const std::vector<double>& candidate,
                             const std::vector<double>& baseline) {
  std::vector<double> deltas;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    deltas.push_back(candidate[i] - baseline[i]);
  }
  const Summary summary = summarize(deltas);
  return {summary.mean, ci95_half_width(deltas.size(), summary.stddev)};
}

/// Mean ± CI cell with the overflow marker: a ">" prefix says the p99
/// rank fell among samples clamped at the histogram's range end, so the
/// printed value is a floor, not an estimate.
std::string p99_cell(const RunningStats& stats, bool overflow) {
  const std::string cell = TablePrinter::mean_ci(stats, 1);
  return overflow ? ">" + cell : cell;
}

std::vector<double> parse_loads(const std::string& spec) {
  std::vector<double> loads;
  std::stringstream stream(spec);
  std::string field;
  while (std::getline(stream, field, ',')) {
    if (!field.empty()) loads.push_back(std::stod(field));
  }
  return loads;
}

}  // namespace
}  // namespace gridsched

int main(int argc, char** argv) {
  using namespace gridsched;

  CliParser cli("Deadline SLOs vs offered load: deadline-aware routing + "
                "admission control vs deadline-blind least-backlog");
  cli.flag("minutes", "4", "simulated minutes of job arrivals");
  cli.flag("machines", "24", "grid machines");
  cli.flag("period", "20", "scheduler activation period (simulated s)");
  cli.flag("base-rate", "2.0", "arrivals/s that count as offered load 1.0 "
                               "(roughly the grid's service capacity at "
                               "the default machine count)");
  cli.flag("loads", "1.0,1.2,1.5", "offered-load multipliers to sweep");
  cli.flag("overload-backlog", "30", "admission overload threshold: mean "
                                     "per-machine backlog (s) above which "
                                     "doomed deadline jobs are shed");
  cli.flag("deadline-fraction", "0.7", "fraction of jobs with a deadline");
  cli.flag("cost-rate", "1.0", "machine cost rate (cost units per busy "
                               "second at the fastest machine)");
  cli.flag("seed", "7", "base simulation seed");
  cli.flag("seeds", "3", "repetitions per configuration (mean ± 95% CI)");
  cli.flag("json", "", "write every verdict as machine-readable JSON to "
                       "this path (CI uploads it as the BENCH_qos_slo.json "
                       "perf artifact)");
  if (!cli.parse(argc, argv)) return 0;

  const int seeds = static_cast<int>(cli.get_int("seeds"));
  const std::vector<double> loads = parse_loads(cli.get("loads"));
  const std::vector<int> shard_counts = {2, 4};
  obs::BenchReport bench_report;
  bench_report.bench = "qos_slo";

  SimConfig base;
  base.horizon = cli.get_double("minutes") * 60.0;
  base.scheduler_period = cli.get_double("period");
  base.num_machines = static_cast<int>(cli.get_int("machines"));
  base.mips_min = 500.0;
  base.mips_max = 2'000.0;
  // Two machine types under four shards make the shards class-pure (the
  // hard regime: a deadline job's matched machines all live elsewhere),
  // which is exactly where deadline-aware routing's class-corrected
  // completion estimate has something to know that least-backlog does not.
  base.num_job_classes = 2;
  base.class_speedup = 3.0;
  base.machine_cost_rate = cli.get_double("cost-rate");
  base.seed = static_cast<std::uint64_t>(cli.get_double("seed"));

  std::cout << "=== deadline SLOs vs offered load ===\n"
            << base.num_machines << " machines, period "
            << base.scheduler_period << " s, horizon " << base.horizon
            << " s, deadline fraction " << cli.get("deadline-fraction")
            << ", " << seeds << " seed(s) from " << base.seed << "\n\n";

  bool acceptance_ok = true;
  TablePrinter table({"load", "shards", "policy", "miss %", "p99 tard (s)",
                      "shed", "best-effort", "cost"});
  // (load index, shards, candidate?) -> summary
  std::map<std::tuple<std::size_t, int, bool>, ConfigSummary> summaries;

  for (std::size_t li = 0; li < loads.size(); ++li) {
    const double load = loads[li];
    for (const int num_shards : shard_counts) {
      for (const bool candidate : {false, true}) {
        ConfigSummary summary;
        for (int rep = 0; rep < seeds; ++rep) {
          SimConfig sim_config = base;
          sim_config.seed = base.seed + static_cast<std::uint64_t>(rep);
          sim_config.arrival_rate = cli.get_double("base-rate") * load;
          QosWorkloadConfig qos;
          qos.deadline_fraction = cli.get_double("deadline-fraction");
          sim_config.workload = std::make_shared<QosWorkload>(
              std::make_shared<PoissonWorkload>(
                  sim_config.arrival_rate,
                  LogNormalSize{sim_config.workload_log_mean,
                                sim_config.workload_log_sigma}),
              qos);
          ServiceConfig service_config;
          service_config.num_shards = num_shards;
          service_config.total_budget_ms = kBackstopBudgetMs;
          service_config.member_stop.max_evaluations = kMemberEvaluations;
          service_config.seed = sim_config.seed;
          service_config.routing = candidate ? RoutingKind::kDeadlineAware
                                             : RoutingKind::kLeastBacklog;
          service_config.admission.enabled = candidate;
          service_config.admission.overload_backlog =
              cli.get_double("overload-backlog");
          const RunOutcome outcome = run_once(sim_config, service_config);
          // Lossless accounting: every arrived job either completed or
          // was shed as an explicit, recorded admission decision.
          if (outcome.jobs_completed + outcome.rejected !=
              outcome.jobs_arrived) {
            std::cout << "DROP: load " << load << " " << num_shards
                      << " shards " << (candidate ? "candidate" : "baseline")
                      << " seed " << rep << " completed "
                      << outcome.jobs_completed << " + " << outcome.rejected
                      << " shed != " << outcome.jobs_arrived << " arrived\n";
            acceptance_ok = false;
          }
          add_outcome(summary, outcome);
        }
        table.add_row({TablePrinter::num(load, 1),
                       std::to_string(num_shards),
                       candidate ? "deadline-aware+admission"
                                 : "least-backlog",
                       TablePrinter::mean_ci(summary.miss_rate, 1),
                       p99_cell(summary.tardiness_p99,
                                summary.tardiness_p99_overflow),
                       TablePrinter::num(summary.rejected.mean(), 0),
                       TablePrinter::num(summary.best_effort_done.mean(), 0),
                       TablePrinter::num(summary.total_cost.mean(), 0)});
        summaries[{li, num_shards, candidate}] = std::move(summary);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n";

  // --- Paired verdicts per operating point. ---
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const double load = loads[li];
    for (const int num_shards : shard_counts) {
      const ConfigSummary& baseline = summaries[{li, num_shards, false}];
      const ConfigSummary& cand = summaries[{li, num_shards, true}];
      const PairedDelta miss =
          paired_abs_delta(cand.miss_rates, baseline.miss_rates);
      const PairedDelta effort =
          paired_abs_delta(cand.best_efforts, baseline.best_efforts);
      const double effort_base = baseline.best_effort_done.mean();
      // Within 5% of the baseline's best-effort completions (absolute
      // paired mean; a positive delta — MORE best-effort work done — is
      // always fine).
      const bool effort_ok =
          effort.mean >= -0.05 * std::max(effort_base, 1.0);
      const bool overloaded = load >= 1.2;
      const bool miss_ok = !overloaded || miss.improves();
      const bool ok = miss_ok && effort_ok;
      std::cout << "verdict: load " << TablePrinter::num(load, 1) << ", "
                << num_shards << " shards (paired over " << seeds
                << " seed(s)): miss-rate delta "
                << TablePrinter::num(miss.mean, 2) << " pp ± "
                << TablePrinter::num(miss.ci, 2)
                << (overloaded ? " (must be < 0)" : " (informational)")
                << ", best-effort delta " << TablePrinter::num(effort.mean, 1)
                << " jobs (floor -5%) -> " << (ok ? "OK" : "REGRESSION")
                << "\n";
      if (!ok) acceptance_ok = false;
      bench_report.verdicts.push_back(obs::BenchVerdict{
          .name = "load-" + TablePrinter::num(load, 1) + "/shards-" +
                  std::to_string(num_shards),
          .ok = ok,
          .metrics = {{"miss_pp", miss.mean},
                      {"miss_ci", miss.ci},
                      {"candidate_miss_pct", cand.miss_rate.mean()},
                      {"baseline_miss_pct", baseline.miss_rate.mean()},
                      {"best_effort_delta", effort.mean},
                      {"shed_per_run", cand.rejected.mean()}},
          .histograms = {}});
    }
  }

  if (!cli.get("json").empty()) {
    bench_report.ok = acceptance_ok;
    bench_report.write_file(cli.get("json"));
  }

  std::cout << (acceptance_ok
                    ? "\ndeadline-aware routing + admission holds the QoS "
                      "bar at overload\n"
                    : "\nQoS REGRESSION: deadline-aware routing + admission "
                      "failed the SLO bar\n");
  return acceptance_ok ? 0 : 1;
}
