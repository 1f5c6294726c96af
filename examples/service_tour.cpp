// Tour of the sharded scheduling service.
//
//   $ ./service_tour [--shards 3] [--routing least-backlog] [--minutes 5]
//
// Builds a GridSchedulingService over a class-structured heterogeneous
// grid, replays a dynamic workload through it, and prints the per-shard
// story: how the router spread the jobs, what rebalancing migrated, how
// each shard's portfolio spent its budget slice, and the per-shard slice
// of the end-to-end metrics next to the global ones.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "benchutil/table.h"
#include "common/cli.h"
#include "service/sharded_driver.h"

int main(int argc, char** argv) {
  using namespace gridsched;

  std::string routing_names;
  for (const RoutingKind kind : all_routing_kinds()) {
    if (!routing_names.empty()) routing_names += " | ";
    routing_names += routing_name(kind);
  }
  CliParser cli("Sharded scheduling service tour");
  cli.flag("shards", "3", "number of machine shards");
  cli.flag("routing", "least-backlog", routing_names);
  cli.flag("minutes", "5", "simulated minutes of job arrivals");
  cli.flag("rate", "4", "job arrivals per simulated second");
  cli.flag("machines", "24", "grid machines");
  cli.flag("budget-ms", "24", "total scheduling budget per activation");
  if (!cli.parse(argc, argv)) return 0;
  const double budget_ms = cli.get_double("budget-ms");
  if (!(budget_ms > 0 && std::isfinite(budget_ms))) {
    std::cerr << "service_tour: --budget-ms must be finite and > 0, got "
              << budget_ms << "\n";
    return 2;
  }

  RoutingKind routing{};
  try {
    routing = routing_kind_from_name(cli.get("routing"));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }

  SimConfig sim_config;
  sim_config.horizon = cli.get_double("minutes") * 60.0;
  sim_config.arrival_rate = cli.get_double("rate");
  sim_config.scheduler_period = 45.0;
  sim_config.num_machines = static_cast<int>(cli.get_int("machines"));
  sim_config.mips_min = 500.0;
  sim_config.mips_max = 2'000.0;
  sim_config.num_job_classes = 3;   // interleaved machine types
  sim_config.consistency_noise = 0.15;
  sim_config.machine_mtbf = 600.0;  // churn: shards shrink and recover
  sim_config.machine_mttr = 90.0;
  sim_config.seed = 42;

  ServiceConfig service_config;
  service_config.num_shards = static_cast<int>(cli.get_int("shards"));
  service_config.routing = routing;
  service_config.total_budget_ms = budget_ms;
  service_config.seed = sim_config.seed;

  GridSimulator sim(sim_config);
  GridSchedulingService service(service_config);
  const ShardedSimReport report = run_sharded(sim, service);

  std::cout << "=== " << service.name() << " on a " << sim_config.num_machines
            << "-machine class-structured grid ===\n"
            << "router " << routing_name(routing) << ", "
            << service_config.total_budget_ms
            << " ms total budget per activation, machine churn enabled\n\n";

  TablePrinter shard_table({"shard", "machines", "activations", "jobs",
                            "migr in", "migr out", "mean race (ms)",
                            "max race (ms)", "completed", "flowtime (s)",
                            "util"});
  for (const ShardStats& stat : service.shard_stats()) {
    int machines = 0;
    for (int m = 0; m < sim_config.num_machines; ++m) {
      if (service.shard_of_machine(m) == stat.shard) ++machines;
    }
    const SimMetrics& slice =
        report.per_shard[static_cast<std::size_t>(stat.shard)];
    shard_table.add_row(
        {std::to_string(stat.shard), std::to_string(machines),
         std::to_string(stat.activations), std::to_string(stat.jobs_scheduled),
         std::to_string(stat.migrated_in), std::to_string(stat.migrated_out),
         TablePrinter::num(stat.activations > 0
                               ? stat.total_race_ms / stat.activations
                               : 0.0,
                           2),
         TablePrinter::num(stat.max_race_ms, 2),
         std::to_string(slice.jobs_completed),
         TablePrinter::num(slice.mean_flowtime, 1),
         TablePrinter::num(slice.utilization, 2)});
  }
  shard_table.print(std::cout);

  std::cout << "\nglobal: " << report.global.jobs_completed << "/"
            << report.global.jobs_arrived << " jobs, makespan "
            << report.global.makespan << " s, mean flowtime "
            << report.global.mean_flowtime << " s, " << report.migrations
            << " rebalancing migration(s), "
            << report.global.jobs_requeued << " churn re-queue(s)\n\n";

  // Peek inside one shard's portfolio: the same scoreboard the
  // single-queue example prints, but per shard.
  const PortfolioBatchScheduler& shard0 = service.shard_scheduler(0);
  TablePrinter member_table({"member", "runs", "wins", "total ms"});
  for (const MemberStats& stat : shard0.member_stats()) {
    member_table.add_row({stat.name, std::to_string(stat.runs),
                          std::to_string(stat.wins),
                          TablePrinter::num(stat.total_ms, 1)});
  }
  std::cout << "shard 0 portfolio scoreboard ("
            << shard0.activations().size() << " activations):\n";
  member_table.print(std::cout);
  return 0;
}
