// Portfolio vs single-algorithm dynamic scheduling.
//
//   $ ./portfolio_dynamic [--minutes 10] [--budget-ms 25] [--seed 7]
//   $ ./portfolio_dynamic --evals 1000 [--json BENCH_portfolio_dynamic.json]
//
// Four grid scenarios (consistent / inconsistent ETC, each with and
// without machine churn) are replayed with the same arrival trace under
// every scheduler: the constructive heuristics, the Struggle GA and cMA
// (each floored at Min-Min), and the racing portfolio. For each scheduler
// we accumulate the *batch fitness* of every activation's committed
// schedule (the quantity the portfolio optimizes) next to the end-to-end
// simulation metrics, and we track per-activation scheduling latency.
// `--seeds N` repeats every scenario over N seeds and reports mean ± 95%
// CI (common/stats).
//
// Every row runs under one StopCondition per activation. By default that
// is the wall-clock `--budget-ms`, so quality moves with host speed and
// the verdicts are informational. `--evals N` bounds every row and every
// portfolio member by N evaluations instead (the wall clock becomes a
// 60 s backstop): the quality columns, the verdicts and the `--json`
// report are then a pure function of the seed, and the bench exits 1 when
// the portfolio trails the best single row in any scenario. The JSON
// holds only those evaluation-determined numbers; latency stays on stdout.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/table.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "obs/bench_report.h"
#include "portfolio/portfolio.h"
#include "sim/grid_simulator.h"

namespace gridsched {
namespace {

/// Decorator that measures what the simulator alone cannot see: the batch
/// fitness of each committed schedule and the wall latency per activation.
class BatchFitnessProbe final : public BatchScheduler {
 public:
  BatchFitnessProbe(BatchScheduler& inner, FitnessWeights weights)
      : inner_(inner), weights_(weights) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }

  using BatchScheduler::schedule_batch;
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& ctx) override {
    Stopwatch watch;
    Schedule plan = inner_.schedule_batch(etc, ctx);
    const double latency = watch.elapsed_ms();
    max_latency_ms = std::max(max_latency_ms, latency);
    total_latency_ms += latency;
    cumulative_fitness +=
        make_individual(plan, etc, weights_).fitness;
    ++activations;
    return plan;
  }

  double cumulative_fitness = 0.0;
  double max_latency_ms = 0.0;
  double total_latency_ms = 0.0;
  int activations = 0;

 private:
  BatchScheduler& inner_;
  FitnessWeights weights_;
};

struct Scenario {
  std::string name;
  double noise = 0.0;
  bool churn = false;
};

struct Outcome {
  std::string scheduler;
  RunningStats jobs;
  RunningStats makespan;
  RunningStats flowtime;
  RunningStats cumulative_fitness;
  RunningStats mean_latency_ms;
  RunningStats max_latency_ms;
};

}  // namespace
}  // namespace gridsched

int main(int argc, char** argv) {
  using namespace gridsched;

  CliParser cli("Portfolio vs single-algorithm dynamic grid scheduling");
  cli.flag("minutes", "10", "simulated minutes of job arrivals");
  cli.flag("budget-ms", "25", "wall-clock budget per activation");
  cli.flag("evals", "0",
           "bound every row and portfolio member by this many evaluations "
           "per activation (0 = wall clock only)");
  cli.flag("json", "", "with --evals, write every verdict as JSON here");
  cli.flag("rate", "0.5", "job arrivals per simulated second");
  cli.flag("period", "60", "scheduler activation period (simulated s)");
  cli.flag("seed", "7", "simulation seed");
  cli.flag("seeds", "1", "repetitions per scenario (mean ± 95% CI)");
  if (!cli.parse(argc, argv)) return 0;
  const int seeds = static_cast<int>(cli.get_int("seeds"));

  const double budget_ms = cli.get_double("budget-ms");
  const long long evals = cli.get_int("evals");
  if (!(budget_ms > 0 && std::isfinite(budget_ms))) {
    std::cerr << "portfolio_dynamic: --budget-ms must be finite and > 0, got "
              << budget_ms << "\n";
    return 2;
  }
  if (evals < 0) {
    std::cerr << "portfolio_dynamic: --evals must be >= 0\n";
    return 2;
  }
  if (!cli.get("json").empty() && evals == 0) {
    std::cerr << "portfolio_dynamic: --json needs --evals (wall-clock "
                 "results are not reproducible)\n";
    return 2;
  }
  // One stop condition for every row and every portfolio member.
  constexpr double kBackstopMs = 60'000.0;
  const StopCondition stop =
      evals > 0 ? StopCondition{.max_time_ms = kBackstopMs,
                                .max_evaluations = evals}
                : StopCondition{.max_time_ms = budget_ms};
  SimConfig base;
  base.horizon = cli.get_double("minutes") * 60.0;
  base.arrival_rate = cli.get_double("rate");
  base.scheduler_period = cli.get_double("period");
  base.num_machines = 12;
  base.mips_min = 500.0;
  base.mips_max = 2'000.0;
  base.seed = static_cast<std::uint64_t>(cli.get_double("seed"));

  const std::vector<Scenario> scenarios = {
      {"consistent", 0.0, false},
      {"inconsistent", 0.6, false},
      {"consistent + churn", 0.0, true},
      {"inconsistent + churn", 0.6, true},
  };

  std::cout << "=== portfolio vs single-algorithm dynamic scheduling ===\n"
            << "budget "
            << (evals > 0 ? std::to_string(evals) + " evaluations"
                          : TablePrinter::num(budget_ms, 1) + " ms")
            << "/activation, "
            << base.num_machines << " machines, " << base.arrival_rate
            << " jobs/s for " << base.horizon << " s, period "
            << base.scheduler_period << " s, seed " << base.seed << "\n\n";

  int scenarios_where_portfolio_wins = 0;
  obs::BenchReport report{.bench = "portfolio_dynamic", .ok = true,
                          .verdicts = {}};
  for (const Scenario& scenario : scenarios) {
    SimConfig sim_config = base;
    sim_config.consistency_noise = scenario.noise;
    if (scenario.churn) {
      sim_config.machine_mtbf = 900.0;
      sim_config.machine_mttr = 120.0;
    }

    TablePrinter table({"scheduler", "jobs", "makespan (s)", "flowtime (s)",
                        "cum batch fitness", "mean lat (ms)", "max lat (ms)"});
    std::vector<Outcome> outcomes;
    // The portfolio's member-win scoreboard (who supplied the committed
    // schedule, summed over activations and seed repetitions) — the
    // docs/portfolio.md "which member earns its seat" evidence.
    std::map<std::string, int> member_wins;

    // Schedulers are stateful (warm caches), so every seed repetition gets
    // a freshly built one via its factory.
    using SchedulerFactory = std::function<std::unique_ptr<BatchScheduler>(
        std::uint64_t seed)>;
    auto simulate = [&](const SchedulerFactory& make_scheduler) {
      Outcome outcome;
      for (int rep = 0; rep < seeds; ++rep) {
        SimConfig run_sim = sim_config;
        run_sim.seed = sim_config.seed + static_cast<std::uint64_t>(rep);
        const std::unique_ptr<BatchScheduler> scheduler =
            make_scheduler(run_sim.seed);
        BatchFitnessProbe probe(*scheduler, FitnessWeights{});
        GridSimulator sim(run_sim);  // same seed -> same arrival trace
        const SimMetrics metrics = sim.run(probe);
        outcome.scheduler = std::string(scheduler->name());
        outcome.jobs.add(metrics.jobs_completed);
        outcome.makespan.add(metrics.makespan);
        outcome.flowtime.add(metrics.mean_flowtime);
        outcome.cumulative_fitness.add(probe.cumulative_fitness);
        outcome.mean_latency_ms.add(
            probe.activations > 0
                ? probe.total_latency_ms / probe.activations
                : 0.0);
        outcome.max_latency_ms.add(probe.max_latency_ms);
        if (const auto* portfolio = dynamic_cast<const PortfolioBatchScheduler*>(
                scheduler.get())) {
          for (const MemberStats& stats : portfolio->member_stats()) {
            member_wins[stats.name] += stats.wins;
          }
        }
      }
      table.add_row({outcome.scheduler,
                     TablePrinter::num(outcome.jobs.mean(), 0),
                     TablePrinter::mean_ci(outcome.makespan, 1),
                     TablePrinter::mean_ci(outcome.flowtime, 1),
                     TablePrinter::mean_ci(outcome.cumulative_fitness, 0),
                     TablePrinter::num(outcome.mean_latency_ms.mean(), 1),
                     TablePrinter::num(outcome.max_latency_ms.max(), 1)});
      outcomes.push_back(std::move(outcome));
    };

    // --- Single-algorithm baselines; the search rows are floored at
    // Min-Min. ---
    for (const HeuristicKind kind : {HeuristicKind::kMct,
                                     HeuristicKind::kMinMin}) {
      simulate([&](std::uint64_t) {
        return std::make_unique<MemberBatchScheduler>(
            std::make_unique<HeuristicMember>(kind), stop);
      });
    }
    simulate([&](std::uint64_t) {
      return std::make_unique<MemberBatchScheduler>(
          std::make_unique<FlooredMember>(
              std::make_unique<StruggleGaMember>(StruggleGaConfig{})),
          stop);
    });
    simulate([&](std::uint64_t) {
      return std::make_unique<MemberBatchScheduler>(
          std::make_unique<FlooredMember>(
              std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false)),
          stop);
    });
    const std::size_t num_single = outcomes.size();

    // --- The portfolio: every member races every activation under the
    // same stop condition, MCT/Min-Min as the safety net. ---
    simulate([&](std::uint64_t seed) {
      PortfolioConfig config;
      config.stop = stop;
      config.seed = seed;
      return std::make_unique<PortfolioBatchScheduler>(
          config, PortfolioBatchScheduler::default_members(config));
    });

    std::cout << "--- " << scenario.name << " ---\n";
    table.print(std::cout);
    std::cout << "member wins (" << outcomes.back().scheduler << "):";
    for (const auto& [member, count] : member_wins) {
      if (count > 0) std::cout << "  " << member << " " << count;
    }
    std::cout << "\n";

    double best_single = std::numeric_limits<double>::infinity();
    std::string best_single_name;
    for (std::size_t i = 0; i < num_single; ++i) {
      if (outcomes[i].cumulative_fitness.mean() < best_single) {
        best_single = outcomes[i].cumulative_fitness.mean();
        best_single_name = outcomes[i].scheduler;
      }
    }
    const Outcome& portfolio = outcomes.back();
    const bool wins = portfolio.cumulative_fitness.mean() <=
                      best_single * (1.0 + 1e-9);
    if (wins) ++scenarios_where_portfolio_wins;
    const double gap_pct =
        (portfolio.cumulative_fitness.mean() - best_single) / best_single *
        100.0;
    std::cout << "verdict: " << portfolio.scheduler
              << (wins ? " matches or beats " : " trails ")
              << "the best single member (" << best_single_name << ") by "
              << TablePrinter::pct(-gap_pct, 2)
              << "% cumulative batch fitness; max portfolio latency "
              << TablePrinter::num(portfolio.max_latency_ms.max(), 1)
              << " ms against a " << stop.max_time_ms << " ms deadline\n\n";

    obs::BenchVerdict verdict{.name = scenario.name, .ok = wins,
                              .metrics = {}, .histograms = {}};
    for (const Outcome& outcome : outcomes) {
      const std::string& row = outcome.scheduler;
      verdict.metrics.emplace_back(row + "_jobs_completed",
                                   outcome.jobs.mean());
      verdict.metrics.emplace_back(row + "_makespan", outcome.makespan.mean());
      verdict.metrics.emplace_back(row + "_flowtime", outcome.flowtime.mean());
      verdict.metrics.emplace_back(row + "_cum_fitness",
                                   outcome.cumulative_fitness.mean());
    }
    report.ok = report.ok && wins;
    report.verdicts.push_back(std::move(verdict));
  }

  std::cout << "portfolio matched or beat the best single member in "
            << scenarios_where_portfolio_wins << "/" << scenarios.size()
            << " scenarios\n";
  if (evals == 0) return 0;  // wall-clock verdicts move with host speed
  if (!cli.get("json").empty() && !report.write_file(cli.get("json"))) {
    return 2;
  }
  return report.ok ? 0 : 1;
}
