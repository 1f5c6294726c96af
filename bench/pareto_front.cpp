// Multi-objective extension (the paper's future work): approximate the
// (makespan, flowtime) Pareto front by sweeping the scalarization weight
// lambda through the cMA and archiving the non-dominated outcomes.
#include "bench_common.h"

#include <algorithm>

#include "core/pareto.h"

namespace gridsched::bench {
namespace {

int run(const BenchArgs& args) {
  print_header("Pareto front via lambda sweep (future-work extension)",
               args);
  const EtcMatrix etc = tuning_instance(args);

  const std::vector<double> lambdas{0.0,  0.1, 0.25, 0.4, 0.5,
                                    0.65, 0.75, 0.85, 0.95, 1.0};
  std::vector<SeededRun> jobs;
  for (double lambda : lambdas) {
    jobs.push_back([&, lambda](std::uint64_t seed) {
      CmaConfig config = paper_cma_config(args);
      config.seed = seed;
      config.weights.lambda = lambda;
      return CellularMemeticAlgorithm(config).run(etc);
    });
  }
  const auto results = run_matrix(jobs, args.runs, args.seed,
                                  shared_pool(args));

  ParetoArchive archive;
  std::size_t offered = 0;
  for (const auto& result : results) {
    for (const auto& run : result.runs) {
      archive.offer(run.best);
      ++offered;
    }
  }

  const auto front = archive.front();
  // With --gap, anchor both axes of the front: the makespan corner against
  // the dual bound, the flowtime corner against the closed-form floor.
  bounds::MakespanBoundResult makespan_bound_result;
  double flow_lb = 0.0;
  if (args.gap) {
    makespan_bound_result = bounds::makespan_bound(etc);
    flow_lb = flowtime_lower_bound(etc);
  }

  std::vector<std::string> headers = {"makespan", "flowtime",
                                      "mean flowtime"};
  if (args.gap) {
    headers.insert(headers.begin() + 1, "makespan gap%");
    headers.push_back("flowtime gap%");
  }
  TablePrinter table(headers);
  for (const auto& member : front) {
    std::vector<std::string> row = {
        TablePrinter::num(member.objectives.makespan, 1),
        TablePrinter::num(member.objectives.flowtime, 1),
        TablePrinter::num(member.objectives.mean_flowtime(etc.num_machines()),
                          1)};
    if (args.gap) {
      row.insert(row.begin() + 1,
                 gap_cell(member.objectives.makespan, makespan_bound_result));
      const double fgap =
          bounds::optimality_gap_pct(member.objectives.flowtime, flow_lb);
      row.push_back(std::isfinite(fgap) ? TablePrinter::num(fgap, 2) : "-");
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n" << front.size() << " non-dominated solutions out of "
            << offered << " runs across " << lambdas.size()
            << " lambda values; the paper's fixed lambda=0.75 picks one "
               "point on this front\n";

  obs::BenchReport report;
  report.bench = "pareto_front";
  if (args.gap && !front.empty()) {
    // The front's corners: best makespan and best flowtime anyone achieved.
    double best_makespan = front.front().objectives.makespan;
    double best_flowtime = front.front().objectives.flowtime;
    for (const auto& member : front) {
      best_makespan = std::min(best_makespan, member.objectives.makespan);
      best_flowtime = std::min(best_flowtime, member.objectives.flowtime);
    }
    obs::BenchVerdict verdict;
    verdict.name = "front_corners";
    verdict.metrics.emplace_back("front_size",
                                 static_cast<double>(front.size()));
    verdict.metrics.emplace_back("best_makespan", best_makespan);
    verdict.metrics.emplace_back("best_flowtime", best_flowtime);
    obs::add_gap_metric(verdict, "best_makespan", best_makespan,
                        makespan_bound_result.value);
    obs::add_gap_metric(verdict, "best_flowtime", best_flowtime, flow_lb);
    verdict.ok =
        best_makespan >= makespan_bound_result.value * (1.0 - 1e-9) &&
        best_flowtime >= flow_lb * (1.0 - 1e-9);
    report.verdicts.push_back(std::move(verdict));
  }
  return finish_report(report, args);
}

}  // namespace
}  // namespace gridsched::bench

int main(int argc, char** argv) {
  const auto args = gridsched::bench::parse_args(
      argc, argv, "Pareto front of (makespan, flowtime) via lambda sweep");
  if (!args) return 0;
  return gridsched::bench::run(*args);
}
