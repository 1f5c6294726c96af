// Dynamic grid: the deployment scenario from the paper's abstract — "run
// the cMA-based scheduler in batch mode for a very short time to schedule
// jobs arriving to the system since the last activation".
//
//   $ ./dynamic_grid [--hours 1] [--budget-ms 25] [--churn]
//
// An event-driven grid receives a Poisson stream of jobs; every activation
// period the pending batch is handed to a scheduler. We compare an
// immediate-mode heuristic (MCT), Min-Min, the cMA with a small
// per-activation budget, and the racing portfolio: all six members (MCT
// and Min-Min as the safety net, Struggle GA, LAHC, async and sync cMA)
// race every activation under one shared deadline, warm-started from the
// previous activation's elites. All runs share the arrival trace; --churn
// adds machine failures and repairs.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "benchutil/table.h"
#include "common/cli.h"
#include "portfolio/portfolio.h"
#include "sim/grid_simulator.h"

int main(int argc, char** argv) {
  using namespace gridsched;

  CliParser cli("Dynamic grid with periodic batch scheduling");
  cli.flag("hours", "0.5", "simulated hours of job arrivals");
  cli.flag("budget-ms", "25", "real CPU budget per cMA activation");
  cli.flag("rate", "0.6", "job arrivals per simulated second");
  cli.flag("period", "120", "scheduler activation period (simulated s)");
  cli.flag("churn", "false", "enable machine failures (MTBF 20 min)");
  if (!cli.parse(argc, argv)) return 0;
  const double budget_ms = cli.get_double("budget-ms");
  if (!(budget_ms > 0 && std::isfinite(budget_ms))) {
    std::cerr << "dynamic_grid: --budget-ms must be finite and > 0, got "
              << budget_ms << "\n";
    return 2;
  }

  // A grid at ~70% load with ~70-job batches: heavy enough that placement
  // matters, light enough that queueing does not drown the scheduler out.
  SimConfig sim_config;
  sim_config.horizon = cli.get_double("hours") * 3600.0;
  sim_config.arrival_rate = cli.get_double("rate");
  sim_config.scheduler_period = cli.get_double("period");
  sim_config.num_machines = 16;
  sim_config.mips_min = 500.0;
  sim_config.mips_max = 2'000.0;
  sim_config.consistency_noise = 0.4;  // a mildly inconsistent grid
  sim_config.seed = 99;
  if (cli.get_bool("churn")) {
    sim_config.machine_mtbf = 1200.0;
    sim_config.machine_mttr = 180.0;
  }

  std::cout << "grid: " << sim_config.num_machines << " machines, "
            << sim_config.arrival_rate << " jobs/s for "
            << sim_config.horizon << " s, activation every "
            << sim_config.scheduler_period << " s"
            << (cli.get_bool("churn") ? ", with machine churn" : "") << "\n\n";

  TablePrinter table({"scheduler", "jobs", "makespan (s)",
                      "mean flowtime (s)", "mean wait (s)", "slowdown",
                      "utilization", "scheduler CPU (ms)"});

  auto simulate = [&](BatchScheduler& scheduler) {
    GridSimulator sim(sim_config);  // same seed -> same arrival trace
    const SimMetrics metrics = sim.run(scheduler);
    table.add_row({std::string(scheduler.name()),
                   std::to_string(metrics.jobs_completed),
                   TablePrinter::num(metrics.makespan, 1),
                   TablePrinter::num(metrics.mean_flowtime, 1),
                   TablePrinter::num(metrics.mean_wait, 1),
                   TablePrinter::num(metrics.mean_slowdown, 2),
                   TablePrinter::num(metrics.utilization, 3),
                   TablePrinter::num(metrics.scheduler_cpu_ms, 0)});
    return metrics;
  };

  MemberBatchScheduler mct_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics mct_metrics = simulate(mct_sched);

  MemberBatchScheduler minmin_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics minmin_metrics = simulate(minmin_sched);

  MemberBatchScheduler cma_sched(  // Table 1 defaults
      std::make_unique<FlooredMember>(
          std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false)),
      StopCondition{.max_time_ms = budget_ms});
  const SimMetrics cma_metrics = simulate(cma_sched);

  PortfolioConfig portfolio_config;
  portfolio_config.stop.max_time_ms = budget_ms;
  portfolio_config.seed = sim_config.seed;
  PortfolioBatchScheduler portfolio(
      portfolio_config,
      PortfolioBatchScheduler::default_members(portfolio_config));
  const SimMetrics portfolio_metrics = simulate(portfolio);

  table.print(std::cout);

  // --- Who won each activation inside the portfolio? ---
  std::cout << "\nportfolio activations (winner per batch):\n";
  TablePrinter race({"activation", "batch jobs", "winner", "batch fitness",
                     "race (ms)"});
  const auto& activations = portfolio.activations();
  const std::size_t shown = std::min<std::size_t>(activations.size(), 12);
  for (std::size_t i = 0; i < shown; ++i) {
    const ActivationRecord& r = activations[i];
    race.add_row({std::to_string(r.activation),
                  std::to_string(r.batch_jobs), r.winner_name,
                  TablePrinter::num(r.best_fitness, 1),
                  TablePrinter::num(r.race_ms, 1)});
  }
  race.print(std::cout);
  if (activations.size() > shown) {
    std::cout << "... (" << activations.size() - shown << " more)\n";
  }
  std::cout << "member scoreboard:";
  for (const MemberStats& stat : portfolio.member_stats()) {
    std::cout << "  " << stat.name << " " << stat.wins << "/" << stat.runs;
  }
  std::cout << "  (wins/races)\n";

  // --- Cumulative outcome: portfolio vs the plain budgeted cMA. ---
  const double cma_total_flow =
      cma_metrics.mean_flowtime * cma_metrics.jobs_completed;
  const double portfolio_total_flow =
      portfolio_metrics.mean_flowtime * portfolio_metrics.jobs_completed;
  std::cout << "\nportfolio vs cMA alone: cumulative makespan "
            << TablePrinter::num(portfolio_metrics.makespan, 1) << " vs "
            << TablePrinter::num(cma_metrics.makespan, 1)
            << " s, cumulative flowtime "
            << TablePrinter::num(portfolio_total_flow, 0) << " vs "
            << TablePrinter::num(cma_total_flow, 0) << " s ("
            << TablePrinter::pct((cma_total_flow - portfolio_total_flow) /
                                     cma_total_flow * 100.0,
                                 1)
            << "% flowtime, positive = portfolio better)\n";
  const double best_heuristic_flow =
      std::min(mct_metrics.mean_flowtime, minmin_metrics.mean_flowtime);
  const double best_heuristic_makespan =
      std::min(mct_metrics.makespan, minmin_metrics.makespan);
  std::cout << "\nthe cMA spends "
            << TablePrinter::num(
                   cma_metrics.scheduler_cpu_ms /
                       std::max(1, cma_metrics.activations),
                   1)
            << " ms of real CPU per activation; vs the best one-shot "
               "heuristic: makespan "
            << TablePrinter::pct((best_heuristic_makespan -
                                  cma_metrics.makespan) /
                                     best_heuristic_makespan * 100.0,
                                 1)
            << "%, mean flowtime "
            << TablePrinter::pct(
                   (best_heuristic_flow - cma_metrics.mean_flowtime) /
                       best_heuristic_flow * 100.0,
                   1)
            << "% (positive = cMA better). lambda = 0.75 favors throughput; "
               "lower it in CmaConfig for QoS-leaning schedules, and raise "
               "--budget-ms to widen both gaps\n";
  return 0;
}
