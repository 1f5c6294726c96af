// Portfolio vs single-algorithm dynamic scheduling.
//
//   $ ./portfolio_dynamic [--minutes 10] [--budget-ms 25] [--seed 7]
//
// Four grid scenarios (consistent / inconsistent ETC, each with and
// without machine churn) are replayed with the same arrival trace under
// every scheduler: the constructive heuristics, the budgeted Struggle GA
// and cMA, and the racing portfolio. For each scheduler we accumulate the
// *batch fitness* of every activation's committed schedule (the quantity
// the portfolio optimizes) next to the end-to-end simulation metrics, and
// we track per-activation scheduling latency against the configured
// budget. `--seeds N` repeats every scenario over N seeds and reports
// mean ± 95% CI (common/stats).
#include <algorithm>
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

  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc) override {
    return schedule_batch(etc, BatchContext::identity(etc));
  }

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
  cli.flag("rate", "0.5", "job arrivals per simulated second");
  cli.flag("period", "60", "scheduler activation period (simulated s)");
  cli.flag("seed", "7", "simulation seed");
  cli.flag("seeds", "1", "repetitions per scenario (mean ± 95% CI)");
  if (!cli.parse(argc, argv)) return 0;
  const int seeds = static_cast<int>(cli.get_int("seeds"));

  const double budget_ms = cli.get_double("budget-ms");
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
            << "budget " << budget_ms << " ms/activation, "
            << base.num_machines << " machines, " << base.arrival_rate
            << " jobs/s for " << base.horizon << " s, period "
            << base.scheduler_period << " s, seed " << base.seed << "\n\n";

  int scenarios_where_portfolio_wins = 0;
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

    // --- Single-algorithm baselines. ---
    simulate([](std::uint64_t) {
      return std::make_unique<HeuristicBatchScheduler>(HeuristicKind::kMct);
    });
    simulate([](std::uint64_t) {
      return std::make_unique<HeuristicBatchScheduler>(HeuristicKind::kMinMin);
    });
    simulate([&](std::uint64_t) {
      return std::make_unique<MemberBatchScheduler>(
          std::make_unique<StruggleGaMember>(StruggleGaConfig{}), budget_ms);
    });
    simulate([&](std::uint64_t) {
      return std::make_unique<MemberBatchScheduler>(
          std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false),
          budget_ms);
    });
    const std::size_t num_single = outcomes.size();

    // --- The portfolio: every member races every activation under one
    // shared deadline, MCT/Min-Min as the safety net. ---
    simulate([&](std::uint64_t seed) {
      PortfolioConfig config;
      config.budget_ms = budget_ms;
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
    std::cout << "verdict: " << portfolio.scheduler
              << (wins ? " matches or beats " : " trails ")
              << "the best single member (" << best_single_name << ") by "
              << TablePrinter::pct(
                     (best_single - portfolio.cumulative_fitness.mean()) /
                         best_single * 100.0,
                     2)
              << "% cumulative batch fitness; max portfolio latency "
              << TablePrinter::num(portfolio.max_latency_ms.max(), 1)
              << " ms against a " << budget_ms << " ms budget\n\n";
  }

  std::cout << "portfolio matched or beat the best single member in "
            << scenarios_where_portfolio_wins << "/" << scenarios.size()
            << " scenarios\n";
  return 0;
}
