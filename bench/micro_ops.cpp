// google-benchmark micro suite for the hot paths of the library: the
// incremental evaluator (what local search spends its time in), the
// evolutionary operators, the constructive heuristics and instance
// generation. These bound the evaluations-per-second the cMA can sustain.
//
// Run with `--json <path>` to additionally write a BENCH_micro_ops.json
// verdict report (obs::BenchReport schema) with one `<name>_ns` metric per
// benchmark plus an `offspring_speedup` gauge (full-reset pipeline time
// over delta pipeline time). bench_diff treats `_ns` metrics as
// time-class: informational by default, gated with --gate-time.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bounds/lower_bound.h"
#include "cma/crossover.h"
#include "cma/local_search.h"
#include "cma/mutation.h"
#include "core/evaluator.h"
#include "core/individual.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"
#include "obs/bench_report.h"
#include "portfolio/portfolio.h"
#include "service/grid_scheduling_service.h"

namespace gridsched {
namespace {

EtcMatrix bench_instance(int jobs = 512, int machines = 16) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  return generate_instance(spec);
}

/// A mid-run cMA population: every resident is the same ancestor plus a
/// few random gene reassignments, so offspring sit a bounded gene-diff
/// from whatever the evaluator last held — the regime the delta
/// (reset_to) offspring path is built for.
std::vector<Schedule> converged_population(const EtcMatrix& etc, Rng& rng,
                                           int size = 16,
                                           int perturbations = 24) {
  const Schedule base =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  std::vector<Schedule> population(static_cast<std::size_t>(size), base);
  for (auto& resident : population) {
    for (int p = 0; p < perturbations; ++p) {
      const JobId j = rng.uniform_int(0, etc.num_jobs() - 1);
      resident[j] = rng.uniform_int(0, etc.num_machines() - 1);
    }
  }
  return population;
}

void BM_EvaluatorReset(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  Rng rng(1);
  const Schedule s = Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  ScheduleEvaluator eval(etc);
  for (auto _ : state) {
    eval.reset(s);
    benchmark::DoNotOptimize(eval.makespan());
  }
}
BENCHMARK(BM_EvaluatorReset);

// Machine-count sweep: the point of the top-3 cache is that preview cost
// does NOT grow with the fleet (the seed scanned all m completions per
// preview). 512 jobs throughout; only the machine count varies.
void BM_PreviewMove(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  const EtcMatrix etc = bench_instance(512, machines);
  Rng rng(2);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  JobId j = 0;
  for (auto _ : state) {
    const MachineId to =
        static_cast<MachineId>((eval.schedule()[j] + 1) % etc.num_machines());
    benchmark::DoNotOptimize(eval.preview_move(j, to));
    j = (j + 1) % etc.num_jobs();
  }
}
BENCHMARK(BM_PreviewMove)->Arg(16)->Arg(64)->Arg(256);

void BM_PreviewSwap(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  const EtcMatrix etc = bench_instance(512, machines);
  Rng rng(3);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  JobId a = 0;
  for (auto _ : state) {
    JobId b = (a + 1) % etc.num_jobs();
    while (eval.schedule()[a] == eval.schedule()[b]) {
      b = (b + 1) % etc.num_jobs();
    }
    benchmark::DoNotOptimize(eval.preview_swap(a, b));
    a = (a + 1) % etc.num_jobs();
  }
}
BENCHMARK(BM_PreviewSwap)->Arg(16)->Arg(64)->Arg(256);

// Gene-diff re-target: evaluator flips between two schedules 32 genes
// apart, the surgery path reset() replaced for offspring evaluation.
void BM_EvaluatorResetTo(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  Rng rng(8);
  const Schedule a = Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  Schedule b = a;
  for (int p = 0; p < 32; ++p) {
    b[rng.uniform_int(0, etc.num_jobs() - 1)] =
        rng.uniform_int(0, etc.num_machines() - 1);
  }
  ScheduleEvaluator eval(etc);
  eval.reset(a);
  bool to_b = true;
  for (auto _ : state) {
    eval.reset_to(to_b ? b : a);
    benchmark::DoNotOptimize(eval.makespan());
    to_b = !to_b;
  }
}
BENCHMARK(BM_EvaluatorResetTo);

// The offspring evaluation pipeline at 512x16 on a late-run population
// (residents a few gene flips from a common ancestor): crossover +
// evaluator load + objective readback. Local search is deliberately NOT in
// the loop — it has its own benchmark (BM_LocalSearchLmctsStep) and costs
// the same in both variants; this pair isolates the evaluation machinery.
// The FullReset variant is the seed-era shape (allocating crossover, full
// reset(), allocating readback); the Delta variant is what the
// evolutionary loops now run (crossover_into, reset_to gene-diff surgery,
// canonicalizing in-place readback). Same RNG protocol in both, so the
// offspring produced are identical — only the machinery differs.
void BM_OffspringPipelineFullReset(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  const FitnessWeights weights{};
  Rng rng(9);
  const std::vector<Schedule> population =
      converged_population(etc, rng, 16, 8);
  ScheduleEvaluator eval(etc);
  for (auto _ : state) {
    const int a = rng.uniform_int(0, 15);
    const int b = rng.uniform_int(0, 15);
    Schedule child =
        crossover(CrossoverKind::kOnePoint,
                  population[static_cast<std::size_t>(a)],
                  population[static_cast<std::size_t>(b)], rng);
    eval.reset(child);
    Individual offspring = individual_from_evaluator(eval, weights);
    benchmark::DoNotOptimize(offspring.fitness);
  }
}
BENCHMARK(BM_OffspringPipelineFullReset);

void BM_OffspringPipelineDelta(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  const FitnessWeights weights{};
  Rng rng(9);
  const std::vector<Schedule> population =
      converged_population(etc, rng, 16, 8);
  ScheduleEvaluator eval(etc);
  Schedule child;
  Individual offspring;
  for (auto _ : state) {
    const int a = rng.uniform_int(0, 15);
    const int b = rng.uniform_int(0, 15);
    crossover_into(child, CrossoverKind::kOnePoint,
                   population[static_cast<std::size_t>(a)],
                   population[static_cast<std::size_t>(b)], rng);
    eval.reset_to(child);
    assign_from_evaluator(offspring, eval, weights);
    benchmark::DoNotOptimize(offspring.fitness);
  }
}
BENCHMARK(BM_OffspringPipelineDelta);

void BM_ApplyMove(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  Rng rng(4);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  JobId j = 0;
  for (auto _ : state) {
    const MachineId to =
        static_cast<MachineId>((eval.schedule()[j] + 1) % etc.num_machines());
    eval.apply_move(j, to);
    j = (j + 1) % etc.num_jobs();
  }
}
BENCHMARK(BM_ApplyMove);

void BM_LocalSearchLmctsStep(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  Rng rng(5);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const LocalSearchConfig config{LocalSearchKind::kLmcts, 1};
  const FitnessWeights weights{};
  for (auto _ : state) {
    state.PauseTiming();
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    state.ResumeTiming();
    benchmark::DoNotOptimize(local_search(config, weights, eval, rng));
  }
}
BENCHMARK(BM_LocalSearchLmctsStep);

// The LMCTS swap scan alone: one focus job on the makespan machine
// previewed against every job on the other machines. The schedule sits at
// a local optimum of the all-critical-jobs scan, so no focus job finds an
// improving swap, nothing is applied and every iteration times the same
// scan on the same state. Two shapes: one shard of perfbench's swf-stream
// workload (24x12, from Min-Min) and the paper's 512x16 u_i_hihi.0.
void BM_LmctsScan(benchmark::State& state, const char* label, int jobs,
                  int machines) {
  InstanceSpec spec = *parse_instance_name(label);
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  const EtcMatrix etc = generate_instance(spec);
  const FitnessWeights weights{};
  ScheduleEvaluator eval(etc);
  eval.reset(min_min(etc));
  Rng rng(11);
  LocalSearchConfig converge{LocalSearchKind::kLmcts, 1'000};
  converge.scan = LmctsScan::kCriticalAllJobs;
  while (local_search(converge, weights, eval, rng).improvements > 0) {
  }
  const LocalSearchConfig step{LocalSearchKind::kLmcts, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(local_search(step, weights, eval, rng));
  }
}
BENCHMARK_CAPTURE(BM_LmctsScan, shard_24x12, "u_c_hihi.0", 24, 12);
BENCHMARK_CAPTURE(BM_LmctsScan, u_i_hihi_512x16, "u_i_hihi.0", 512, 16);

void BM_OnePointCrossover(benchmark::State& state) {
  Rng rng(6);
  const Schedule a = Schedule::random(512, 16, rng);
  const Schedule b = Schedule::random(512, 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crossover(CrossoverKind::kOnePoint, a, b, rng));
  }
}
BENCHMARK(BM_OnePointCrossover);

void BM_RebalanceMutation(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  Rng rng(7);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  for (auto _ : state) {
    mutate(MutationKind::kRebalance, eval, rng);
  }
}
BENCHMARK(BM_RebalanceMutation);

void BM_MinMin(benchmark::State& state) {
  const EtcMatrix etc =
      bench_instance(static_cast<int>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_min(etc));
  }
}
BENCHMARK(BM_MinMin)->Arg(128)->Arg(512);

// The fixed floor one portfolio race pays per search member: population
// seeding and its evaluation dominate a solve this short. The shape is one
// shard of perfbench's swf-stream workload (24 jobs x 12 machines, 8
// warm-start elites) under a 60-evaluation stop; the member's whole solve
// is timed end to end.
void BM_MemberFloor(benchmark::State& state, std::string_view member_name) {
  const EtcMatrix etc = bench_instance(24, 12);
  Rng rng(10);
  std::vector<Schedule> warm;
  for (int e = 0; e < 8; ++e) {
    warm.push_back(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  }
  auto members = PortfolioBatchScheduler::default_members(PortfolioConfig{});
  PortfolioMember* member = nullptr;
  for (const auto& candidate : members) {
    if (candidate->name() == member_name) member = candidate.get();
  }
  if (member == nullptr) {
    state.SkipWithError("unknown portfolio member");
    return;
  }
  const StopCondition stop{.max_evaluations = 60};
  for (auto _ : state) {
    benchmark::DoNotOptimize(member->solve(etc, stop, warm, /*seed=*/1));
  }
}
BENCHMARK_CAPTURE(BM_MemberFloor, StruggleGA, "StruggleGA");
BENCHMARK_CAPTURE(BM_MemberFloor, cMA, "cMA");
BENCHMARK_CAPTURE(BM_MemberFloor, cMA_sync, "cMA-sync");

// One whole shard race: a 4-shard service activation on a swf-sized batch
// (96 jobs x 48 machines, so about 24 x 12 per shard) with every member
// stopped at 60 evaluations, on a 4-thread pool. Steady state: each
// activation warm-starts from the previous one's elites, as in a service.
void BM_ShardRace(benchmark::State& state) {
  const EtcMatrix etc = bench_instance(96, 48);
  ServiceConfig config;
  config.num_shards = 4;
  config.threads = 4;
  config.total_budget_ms = 60'000.0;
  config.member_stop = StopCondition{.max_evaluations = 60};
  GridSchedulingService service(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.schedule_batch(etc));
  }
}
BENCHMARK(BM_ShardRace);

// Lagrangian-dual makespan bound on the paper's 512x16 u_c_hihi.0 (every
// class costs about the same: the pivot budget binds on all twelve).
void BM_MakespanBound(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::makespan_bound(etc));
  }
}
BENCHMARK(BM_MakespanBound);

void BM_LjfrSjfr(benchmark::State& state) {
  const EtcMatrix etc = bench_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ljfr_sjfr(etc));
  }
}
BENCHMARK(BM_LjfrSjfr);

void BM_GenerateInstance(benchmark::State& state) {
  InstanceSpec spec;
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_instance(spec, ++k));
  }
}
BENCHMARK(BM_GenerateInstance);

}  // namespace
}  // namespace gridsched

namespace {

/// Console reporter that additionally captures (name, adjusted real ns per
/// iteration) for every non-aggregate run, for the --json report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<std::pair<std::string, double>> rows;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        rows.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
      }
    }
    ConsoleReporter::ReportRuns(report);
  }
};

/// "BM_PreviewMove/16" -> "BM_PreviewMove_16_ns" (bench_diff metric keys).
std::string metric_key(std::string_view name) {
  std::string key(name);
  for (char& c : key) {
    if (c == '/' || c == ':') c = '_';
  }
  return key + "_ns";
}

bool write_json_report(const std::string& path,
                       const std::vector<std::pair<std::string, double>>& rows) {
  gridsched::obs::BenchReport report;
  report.bench = "micro_ops";
  gridsched::obs::BenchVerdict verdict;
  verdict.name = "hot_paths";
  double full_reset_ns = 0.0;
  double delta_ns = 0.0;
  for (const auto& [name, ns] : rows) {
    verdict.metrics.emplace_back(metric_key(name), ns);
    if (name == "BM_OffspringPipelineFullReset") full_reset_ns = ns;
    if (name == "BM_OffspringPipelineDelta") delta_ns = ns;
  }
  if (full_reset_ns > 0.0 && delta_ns > 0.0) {
    // Evals/sec ratio of the delta offspring pipeline over the seed-shaped
    // full-reset pipeline; higher is better, gated as a throughput metric.
    verdict.metrics.emplace_back("offspring_speedup",
                                 full_reset_ns / delta_ns);
  }
  report.verdicts.push_back(std::move(verdict));
  return report.write_file(path);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json <path> before google-benchmark parses the rest.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !write_json_report(json_path, reporter.rows)) {
    return 1;
  }
  return 0;
}
