// Reproduces Table 2 of the paper: best makespan of the Braun-style GA vs
// the cMA over the 12 benchmark instances, plus the paper's published rows.
//
// With --gap (implied by --json) each row also reports how far both
// algorithms sit from the in-repo makespan lower bound (docs/bounds.md) —
// an absolute quality anchor next to the paper's relative Delta column.
#include "bench_common.h"

#include "common/stats.h"

namespace gridsched::bench {
namespace {

int run(const BenchArgs& args) {
  print_header("Table 2: makespan, Braun et al. GA vs cMA", args);
  const auto instances = benchmark_instances(args);

  // One flat task matrix: (instance x {GA, cMA}) x runs, pool-saturating.
  std::vector<SeededRun> jobs;
  for (const auto& instance : instances) {
    const EtcMatrix* etc = &instance.etc;
    jobs.push_back([etc, &args](std::uint64_t seed) {
      BraunGaConfig config;
      config.stop = bench_stop(args);
      config.seed = seed;
      return BraunGa(config).run(*etc);
    });
    jobs.push_back([etc, &args](std::uint64_t seed) {
      CmaConfig config = paper_cma_config(args);
      config.seed = seed;
      return CellularMemeticAlgorithm(config).run(*etc);
    });
  }
  const auto results = run_matrix(jobs, args.runs, args.seed,
                                  shared_pool(args));

  std::vector<std::string> headers = {"Instance",  "GA (meas)",
                                      "cMA (meas)", "d% (meas)",
                                      "GA (paper)", "cMA (paper)",
                                      "d% (paper)"};
  if (args.gap) {
    headers.insert(headers.begin() + 4, {"LB", "cMA gap%"});
  }
  TablePrinter table(headers);

  obs::BenchReport report;
  report.bench = "table2_makespan_vs_braun_ga";
  int cma_wins = 0;
  int consistent_wins = 0;
  int consistent_total = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::string& label = instances[i].label;
    const double ga_best = results[2 * i].makespan.min;
    const double cma_best = results[2 * i + 1].makespan.min;
    // The paper's Delta column: how far the GA's best sits from the cMA's.
    const double measured_delta = percent_delta(ga_best, cma_best);
    cma_wins += (cma_best < ga_best) ? 1 : 0;
    if (label[2] == 'c' || label[2] == 's') {
      ++consistent_total;
      consistent_wins += (cma_best < ga_best) ? 1 : 0;
    }

    const auto paper = paper_reference(label);
    std::vector<std::string> row = {
        label,
        TablePrinter::num(ga_best),
        TablePrinter::num(cma_best),
        TablePrinter::pct(measured_delta),
        paper ? TablePrinter::num(paper->braun_ga_makespan) : "-",
        paper ? TablePrinter::num(paper->cma_makespan) : "-",
        paper ? TablePrinter::pct(percent_delta(paper->braun_ga_makespan,
                                                paper->cma_makespan))
              : "-"};
    if (args.gap) {
      const auto bound = bounds::makespan_bound(instances[i].etc);
      row.insert(row.begin() + 4,
                 {TablePrinter::num(bound.value), gap_cell(cma_best, bound)});

      obs::BenchVerdict verdict;
      verdict.name = label;
      verdict.metrics.emplace_back("ga_makespan", ga_best);
      verdict.metrics.emplace_back("cma_makespan", cma_best);
      obs::add_gap_metric(verdict, "ga_makespan", ga_best, bound.value);
      obs::add_gap_metric(verdict, "cma_makespan", cma_best, bound.value);
      // A result below a proven lower bound is an evaluator bug.
      const double floor = bound.value * (1.0 - 1e-9);
      verdict.ok = ga_best >= floor && cma_best >= floor;
      report.verdicts.push_back(std::move(verdict));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\ncMA best-of-" << args.runs << " beats GA on " << cma_wins
            << "/12 instances (" << consistent_wins << "/" << consistent_total
            << " on consistent+semi-consistent; the paper reports wins on "
               "all 8 of those and losses on inconsistent ones)\n";
  return finish_report(report, args);
}

}  // namespace
}  // namespace gridsched::bench

int main(int argc, char** argv) {
  const auto args = gridsched::bench::parse_args(
      argc, argv, "Table 2: best makespan, Braun et al. GA vs cMA");
  if (!args) return 0;
  return gridsched::bench::run(*args);
}
