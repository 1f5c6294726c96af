// Tour of the workload subsystem: what each arrival pattern looks like,
// and the record -> replay loop every trace-driven experiment builds on.
//
//   $ ./workload_tour
//
// For each synthetic scenario (all calibrated to the same offered load)
// we print the realized arrival stream's shape — count, burstiest window,
// largest job — then record one simulated run to a trace, replay it, and
// show that the replay reproduced the run exactly.
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "benchutil/table.h"
#include "portfolio/member.h"
#include "sim/grid_simulator.h"
#include "workload/trace_io.h"

int main() {
  using namespace gridsched;

  const double horizon = 1'200.0;
  const double rate = 2.0;

  std::cout << "=== workload scenarios at " << rate << " jobs/s over "
            << horizon << " s ===\n\n";
  TablePrinter table({"scenario", "jobs", "peak 30s window", "mean 30s",
                      "largest job (MI)"});
  for (const WorkloadKind kind : all_workload_kinds()) {
    const auto source = make_workload(kind, rate, horizon);
    Rng rng(11);
    Rng arrival_rng = rng.split();
    Rng workload_rng = rng.split();
    const std::vector<TraceJob> jobs =
        source->generate(horizon, arrival_rng, workload_rng);

    const int windows = static_cast<int>(horizon / 30.0);
    std::vector<int> counts(static_cast<std::size_t>(windows), 0);
    double largest = 0.0;
    for (const TraceJob& job : jobs) {
      const int w = std::min(windows - 1,
                             static_cast<int>(job.arrival / 30.0));
      ++counts[static_cast<std::size_t>(w)];
      largest = std::max(largest, job.workload_mi);
    }
    const int peak = *std::max_element(counts.begin(), counts.end());
    table.add_row({std::string(workload_name(kind)),
                   std::to_string(jobs.size()), std::to_string(peak),
                   TablePrinter::num(static_cast<double>(jobs.size()) /
                                         windows, 1),
                   TablePrinter::num(largest, 0)});
  }
  table.print(std::cout);

  // --- Record one bursty run, replay it from the serialized trace. ---
  std::cout << "\n=== record -> replay ===\n";
  SimConfig config;
  config.horizon = 600.0;
  config.scheduler_period = 30.0;
  config.num_machines = 12;
  config.num_job_classes = 3;
  config.seed = 5;
  config.workload = make_workload(WorkloadKind::kBursty, rate, config.horizon);

  GridSimulator recorded(config);
  MemberBatchScheduler record_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics original = recorded.run(record_sched);

  std::ostringstream trace_text;
  write_trace(trace_text, recorded.arrival_trace());
  std::cout << "recorded " << recorded.arrival_trace().size()
            << " jobs (" << trace_text.str().size() << " bytes of trace)\n";

  std::istringstream in(trace_text.str());
  SimConfig replay_config = config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler replay_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics replay = replayed.run(replay_sched);

  std::cout << "original: makespan " << original.makespan << " s, flowtime "
            << original.mean_flowtime << " s\n"
            << "replay:   makespan " << replay.makespan << " s, flowtime "
            << replay.mean_flowtime << " s\n"
            << (original.makespan == replay.makespan &&
                        original.mean_flowtime == replay.mean_flowtime
                    ? "bit-identical replay\n"
                    : "REPLAY DIVERGED\n");
  return 0;
}
