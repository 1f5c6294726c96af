// Trace-driven workloads: single queue vs sharded service per scenario,
// plus the trace-I/O acceptance gates of the streaming replay path.
//
//   $ ./trace_replay [--minutes 4] [--budget-ms 15] [--seeds 3]
//                    [--swf FILE] [--stress-jobs N] [--json PATH]
//
// The Braun-style batches of the paper and the Poisson benches of PR 1/2
// say nothing about bursty, diurnal or heavy-tailed traffic — the
// patterns real grids actually serve, and the ones under which scheduler
// rankings flip. This bench replays every synthetic workload scenario
// (poisson, bursty, diurnal, heavy-tail, flash-crowd, all calibrated to
// the same offered load) through the sharded scheduling service at 1/2/4
// shards and EQUAL TOTAL BUDGET, reporting makespan and mean flowtime
// with 95% CIs over `--seeds` replications. A scenario run that drops a
// job (completed != arrived) fails the bench.
//
// It also proves the recorder loop end to end: for each scenario, one run
// is recorded via GridSimulator::arrival_trace(), serialized through the
// trace format (workload/trace_io.h) and replayed with
// TraceWorkloadSource under a deterministic scheduler — the per-job
// records must come back bit-identical. (The service itself races under a
// wall-clock budget, so its commits are not replay-stable; determinism is
// a property of the trace + scheduler, which is exactly what the
// round-trip isolates.) `--record DIR` additionally writes each
// scenario's trace to DIR/trace_<scenario>.csv as reusable fixtures.
//
// The PR 8 gates on top (see docs/workloads.md):
//
//   churn round-trip   a churny run's failures are recorded next to its
//                      arrivals (churn sidecar), serialized through text
//                      and replayed via SimConfig::churn_replay — records
//                      AND churn must come back bit-identical.
//   --swf FILE         imports a real Standard Workload Format excerpt
//                      twice — materialized (read_swf) and streaming
//                      (SwfStreamReader) — runs both through the
//                      simulator under churn with a deterministic
//                      scheduler and demands bit-identical per-job
//                      records; then replays the stream through the
//                      sharded service with lossless accounting.
//   --stress-jobs N    writes an N-job synthetic SWF to disk row by row,
//                      streams it through the sharded service (a
//                      deterministic evaluation-bounded configuration)
//                      and gates the O(1)-memory contract: the in-flight
//                      window (peak_resident_jobs) must stay a small
//                      fraction of the trace; peak process RSS is
//                      reported informationally.
//
// `--json PATH` writes every verdict as a BENCH_trace_replay.json
// artifact for bench_diff to compare across commits.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/table.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "obs/bench_report.h"
#include "portfolio/member.h"
#include "service/sharded_driver.h"
#include "workload/swf_io.h"
#include "workload/trace_io.h"

namespace gridsched {
namespace {

struct ScenarioOutcome {
  RunningStats makespan;
  RunningStats flowtime;
  RunningStats utilization;
  RunningStats cpu_ms;
  bool dropped = false;
};

struct RoundTrip {
  bool identical = false;
  std::vector<TraceJob> trace;  // the recorded stream, for --record
};

bool same_record(const SimJobRecord& a, const SimJobRecord& b) {
  return a.arrival == b.arrival && a.start == b.start &&
         a.finish == b.finish && a.machine == b.machine &&
         a.attempts == b.attempts && a.rejected == b.rejected;
}

/// Record one run under a deterministic scheduler, round-trip the trace
/// through its text format, replay, and compare every per-job record.
RoundTrip record_and_replay(const SimConfig& config) {
  GridSimulator recorded(config);
  MemberBatchScheduler record_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  (void)recorded.run(record_sched);
  const std::vector<SimJobRecord> original = recorded.job_records();

  RoundTrip result;
  result.trace = recorded.arrival_trace();
  std::ostringstream out;
  write_trace(out, result.trace);
  std::istringstream in(out.str());
  SimConfig replay_config = config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler replay_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  (void)replayed.run(replay_sched);

  const std::vector<SimJobRecord>& replay = replayed.job_records();
  if (replay.size() != original.size()) return result;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (!same_record(original[i], replay[i])) return result;
  }
  result.identical = true;
  return result;
}

struct ChurnRoundTrip {
  bool identical = false;
  std::size_t churn_events = 0;
  int jobs_requeued = 0;
};

/// The churn sidecar loop: record a churny run, serialize arrivals AND
/// failures through text, replay with the drawn process off — records
/// and applied churn must come back bit for bit.
ChurnRoundTrip churn_round_trip(const SimConfig& base) {
  SimConfig config = base;
  config.machine_mtbf = config.scheduler_period * 4.0;
  config.machine_mttr = config.scheduler_period;
  GridSimulator recorded(config);
  MemberBatchScheduler record_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics original = recorded.run(record_sched);

  ChurnRoundTrip result;
  result.churn_events = recorded.churn_trace().size();
  result.jobs_requeued = original.jobs_requeued;
  if (result.churn_events == 0) return result;  // weak draw = failure

  std::ostringstream arrivals_out;
  write_trace(arrivals_out, recorded.arrival_trace());
  std::ostringstream churn_out;
  write_churn_trace(churn_out, recorded.churn_trace());

  SimConfig replay_config = config;
  replay_config.machine_mtbf = 0.0;
  replay_config.machine_mttr = 0.0;
  std::istringstream arrivals_in(arrivals_out.str());
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(arrivals_in));
  std::istringstream churn_in(churn_out.str());
  replay_config.churn_replay = std::make_shared<const std::vector<ChurnEvent>>(
      read_churn_trace(churn_in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler replay_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  (void)replayed.run(replay_sched);

  if (replayed.churn_trace() != recorded.churn_trace()) return result;
  const auto& replay = replayed.job_records();
  const auto& records = recorded.job_records();
  if (replay.size() != records.size()) return result;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!same_record(records[i], replay[i])) return result;
  }
  result.identical = true;
  return result;
}

/// Peak resident set size of this process so far, in MiB (Linux
/// ru_maxrss is KiB). Informational: absolute RSS depends on the
/// allocator and everything the bench ran before this point.
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Writes an n-job synthetic SWF row by row — never materializing the
/// trace — with arrivals at `rate` jobs/s and LogNormal run times sized
/// so a ~48-machine grid sits at moderate load. Returns the horizon
/// (last arrival + 1).
double write_stress_swf(const std::string& path, long jobs, double rate) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "; synthetic SWF stress trace, " << jobs << " jobs at " << rate
      << " jobs/s\n";
  Rng rng(2026);
  double t = 0.0;
  for (long i = 0; i < jobs; ++i) {
    t += rng.exponential(rate);
    // run seconds = exp(N(7, 1)) / 1000 reference MIPS -> mean ~1.8 s of
    // work at reference speed, a moderate offered load on the grid.
    const double run_seconds = std::exp(rng.normal(7.0, 1.0)) / 1000.0;
    const double requested =
        i % 4 == 0 ? run_seconds * 3.0 + 300.0 : -1.0;  // 25% deadlines
    write_swf_row(out, i + 1, t, run_seconds, /*procs=*/1,
                  /*user=*/static_cast<int>(i % 50),
                  /*queue=*/static_cast<int>(i % 3), requested);
  }
  return t + 1.0;
}

}  // namespace
}  // namespace gridsched

int main(int argc, char** argv) {
  using namespace gridsched;

  CliParser cli("Workload scenarios (trace replay) across shard counts");
  cli.flag("minutes", "4", "simulated minutes of job arrivals");
  cli.flag("budget-ms", "15", "total wall-clock budget per activation");
  cli.flag("rate", "6", "offered load, jobs per simulated second");
  cli.flag("period", "30", "scheduler activation period (simulated s)");
  cli.flag("machines", "48", "grid machines");
  cli.flag("classes", "3", "job/machine classes of the grid (0 = none)");
  cli.flag("seed", "7", "base simulation seed");
  cli.flag("seeds", "3", "repetitions per configuration (mean ± 95% CI)");
  cli.flag("record", "", "also write each scenario's trace to this directory");
  cli.flag("swf", "", "SWF log to import and gate streaming parity on");
  cli.flag("stress-jobs", "0", "size of the synthetic SWF streaming stress "
                               "(0 = skip)");
  cli.flag("stress-rate", "20", "stress arrivals per simulated second");
  cli.flag("stress-file", "trace_replay_stress.swf",
           "scratch path for the stress trace (written row by row, "
           "deleted afterwards)");
  cli.flag("json", "", "write every verdict as machine-readable JSON to "
                       "this path (CI uploads it as the "
                       "BENCH_trace_replay.json perf artifact)");
  if (!cli.parse(argc, argv)) return 0;

  SimConfig base;
  base.horizon = cli.get_double("minutes") * 60.0;
  base.arrival_rate = cli.get_double("rate");
  base.scheduler_period = cli.get_double("period");
  base.num_machines = static_cast<int>(cli.get_int("machines"));
  base.mips_min = 500.0;
  base.mips_max = 2'000.0;
  base.num_job_classes = static_cast<int>(cli.get_int("classes"));
  base.seed = static_cast<std::uint64_t>(cli.get_double("seed"));
  const int seeds = static_cast<int>(cli.get_int("seeds"));
  const double budget_ms = cli.get_double("budget-ms");
  const std::vector<int> shard_counts = {1, 2, 4};
  if (!(budget_ms > 0 && std::isfinite(budget_ms))) {
    std::cerr << "trace_replay: --budget-ms must be finite and > 0, got "
              << budget_ms << "\n";
    return 2;
  }

  obs::BenchReport bench_report;
  bench_report.bench = "trace_replay";

  std::cout << "=== workload scenarios x shard counts (equal total budget) "
            << "===\n"
            << base.arrival_rate << " jobs/s offered for " << base.horizon
            << " s, " << base.num_machines << " machines, period "
            << base.scheduler_period << " s, budget " << budget_ms
            << " ms/activation, " << seeds << " seed(s) from " << base.seed
            << "\n\n";

  bool acceptance_ok = true;
  TablePrinter table({"scenario", "shards", "makespan (s)", "flowtime (s)",
                      "util", "cpu (ms)", "jobs"});
  for (const WorkloadKind kind : all_workload_kinds()) {
    for (const int num_shards : shard_counts) {
      ScenarioOutcome outcome;
      RunningStats arrived;
      for (int rep = 0; rep < seeds; ++rep) {
        SimConfig sim_config = base;
        sim_config.seed = base.seed + static_cast<std::uint64_t>(rep);
        sim_config.workload = make_workload(kind, base.arrival_rate,
                                            base.horizon);
        GridSimulator sim(sim_config);
        ServiceConfig service_config;
        service_config.num_shards = num_shards;
        service_config.routing = RoutingKind::kLeastBacklog;
        service_config.total_budget_ms = budget_ms;
        service_config.seed = sim_config.seed;
        GridSchedulingService service(service_config);
        const ShardedSimReport report = run_sharded(sim, service);
        outcome.makespan.add(report.global.makespan);
        outcome.flowtime.add(report.global.mean_flowtime);
        outcome.utilization.add(report.global.utilization);
        outcome.cpu_ms.add(report.global.scheduler_cpu_ms);
        arrived.add(static_cast<double>(report.global.jobs_arrived));
        if (report.global.jobs_completed != report.global.jobs_arrived) {
          outcome.dropped = true;
        }
      }
      if (outcome.dropped) acceptance_ok = false;
      table.add_row({num_shards == shard_counts.front()
                         ? std::string(workload_name(kind))
                         : "",
                     std::to_string(num_shards),
                     TablePrinter::mean_ci(outcome.makespan, 1),
                     TablePrinter::mean_ci(outcome.flowtime, 1),
                     TablePrinter::num(outcome.utilization.mean(), 2),
                     TablePrinter::num(outcome.cpu_ms.mean(), 0),
                     TablePrinter::num(arrived.mean(), 0) +
                         (outcome.dropped ? " DROPPED" : "")});
    }
    if (kind != all_workload_kinds().back()) table.add_separator();
  }
  table.print(std::cout);

  std::cout << "\n--- record -> replay round-trips (deterministic "
            << "scheduler) ---\n";
  for (const WorkloadKind kind : all_workload_kinds()) {
    SimConfig sim_config = base;
    sim_config.workload =
        make_workload(kind, base.arrival_rate, base.horizon);
    const RoundTrip round_trip = record_and_replay(sim_config);
    if (!round_trip.identical) acceptance_ok = false;
    std::cout << workload_name(kind) << ": "
              << (round_trip.identical ? "bit-identical" : "DIVERGED")
              << "\n";
    if (const std::string dir = cli.get("record"); !dir.empty()) {
      const std::string path =
          dir + "/trace_" + std::string(workload_name(kind)) + ".csv";
      write_trace_file(path, round_trip.trace);
      std::cout << "  recorded " << round_trip.trace.size() << " jobs to "
                << path << "\n";
    }
  }

  // --- Churn sidecar round-trip: arrivals alone do not reproduce a
  // churny run; arrivals + recorded failures must. ---
  {
    const ChurnRoundTrip churn = churn_round_trip(base);
    if (!churn.identical) acceptance_ok = false;
    std::cout << "\nchurn round-trip: " << churn.churn_events
              << " failure(s), " << churn.jobs_requeued << " requeue(s) -> "
              << (churn.identical ? "bit-identical" : "DIVERGED") << "\n";
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = "churn-round-trip",
        .ok = churn.identical,
        .metrics = {{"churn_events",
                     static_cast<double>(churn.churn_events)},
                    {"jobs_requeued",
                     static_cast<double>(churn.jobs_requeued)}},
        .histograms = {}});
  }

  // --- SWF import: materialized vs streaming parity under churn, then
  // the stream through the sharded service with lossless accounting. ---
  if (const std::string swf_path = cli.get("swf"); !swf_path.empty()) {
    std::size_t skipped = 0;
    const std::vector<TraceJob> jobs =
        read_swf_file(swf_path, SwfMapping{}, &skipped);
    double last_arrival = 0.0;
    for (const TraceJob& job : jobs) {
      last_arrival = std::max(last_arrival, job.arrival);
    }

    SimConfig swf_config = base;
    swf_config.horizon = last_arrival + 1.0;
    swf_config.machine_mtbf = base.scheduler_period * 4.0;
    swf_config.machine_mttr = base.scheduler_period;

    SimConfig materialized_config = swf_config;
    materialized_config.workload =
        std::make_shared<TraceWorkloadSource>(jobs);
    GridSimulator materialized(materialized_config);
    MemberBatchScheduler sched_a(
        std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
    const SimMetrics metrics_a = materialized.run(sched_a);

    SimConfig streaming_config = swf_config;
    std::ifstream swf_stream(swf_path);
    streaming_config.stream =
        std::make_shared<SwfStreamReader>(swf_stream);
    GridSimulator streamed(streaming_config);
    std::vector<SimJobRecord> observed;
    streamed.set_job_observer(
        [&observed](const SimJobRecord& record, const TraceJob&) {
          observed.push_back(record);
        });
    MemberBatchScheduler sched_b(
        std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
    const SimMetrics metrics_b = streamed.run(sched_b);

    bool parity = observed.size() == materialized.job_records().size() &&
                  metrics_a.jobs_requeued == metrics_b.jobs_requeued &&
                  streamed.churn_trace() == materialized.churn_trace();
    if (parity) {
      for (std::size_t i = 0; i < observed.size(); ++i) {
        if (!same_record(observed[i], materialized.job_records()[i])) {
          parity = false;
          break;
        }
      }
    }
    if (!parity) acceptance_ok = false;

    // The same stream drives the sharded service without losing a job.
    std::ifstream swf_again(swf_path);
    SimConfig service_sim_config = swf_config;
    service_sim_config.machine_mtbf = 0.0;
    service_sim_config.machine_mttr = 0.0;
    service_sim_config.stream =
        std::make_shared<SwfStreamReader>(swf_again);
    GridSimulator service_sim(service_sim_config);
    ServiceConfig service_config;
    service_config.num_shards = 2;
    service_config.routing = RoutingKind::kLeastBacklog;
    service_config.total_budget_ms = budget_ms;
    service_config.seed = base.seed;
    GridSchedulingService service(service_config);
    const ShardedSimReport report = run_sharded(service_sim, service);
    const bool lossless = report.global.jobs_completed +
                              report.global.jobs_rejected ==
                          report.global.jobs_arrived;
    if (!lossless) acceptance_ok = false;

    std::cout << "\nswf import (" << swf_path << "): " << jobs.size()
              << " job(s), " << skipped << " skipped row(s), span "
              << TablePrinter::num(last_arrival, 0) << " s\n"
              << "  streaming parity under churn ("
              << streamed.churn_trace().size() << " failure(s)): "
              << (parity ? "bit-identical" : "DIVERGED") << "\n"
              << "  sharded service replay: " << report.global.jobs_completed
              << "/" << report.global.jobs_arrived << " completed -> "
              << (lossless ? "lossless" : "DROPPED") << "\n";
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = "swf-streaming-parity",
        .ok = parity && lossless,
        .metrics = {{"jobs", static_cast<double>(jobs.size())},
                    {"skipped_rows", static_cast<double>(skipped)},
                    {"deadline_jobs",
                     static_cast<double>(metrics_a.deadline_jobs)},
                    {"service_completed",
                     static_cast<double>(report.global.jobs_completed)}},
        .histograms = {}});
  }

  // --- Streaming stress: an SWF far too large to materialize replays
  // through the sharded service in O(in-flight window) memory. ---
  if (const long stress_jobs = cli.get_int("stress-jobs"); stress_jobs > 0) {
    const std::string stress_path = cli.get("stress-file");
    const double horizon =
        write_stress_swf(stress_path, stress_jobs,
                         cli.get_double("stress-rate"));
    std::ifstream stress_stream(stress_path);
    SimConfig stress_config = base;
    stress_config.horizon = horizon;
    stress_config.stream = std::make_shared<SwfStreamReader>(stress_stream);
    GridSimulator sim(stress_config);
    // Evaluation-bounded service: deterministic (the gate diffs the
    // resident-window metric across commits), and the wall budget never
    // binds first.
    ServiceConfig service_config;
    service_config.num_shards = 4;
    service_config.routing = RoutingKind::kLeastBacklog;
    service_config.total_budget_ms = 60'000.0;
    service_config.member_stop = StopCondition{.max_evaluations = 60};
    service_config.seed = base.seed;
    GridSchedulingService service(service_config);
    Stopwatch wall;
    const ShardedSimReport report = run_sharded(sim, service);
    const double wall_ms = wall.elapsed_ms();
    std::remove(stress_path.c_str());

    const bool lossless = report.global.jobs_completed +
                              report.global.jobs_rejected ==
                          report.global.jobs_arrived;
    // The O(1)-memory gate: the in-flight window must stay a small
    // fraction of the trace — it scales with offered load and flowtime,
    // not with how many jobs the file holds.
    const bool bounded =
        report.global.peak_resident_jobs <
        std::max(static_cast<int>(stress_jobs / 10), 1'000);
    if (!lossless || !bounded) acceptance_ok = false;
    std::cout << "\nstreaming stress: " << report.global.jobs_arrived
              << " job(s) over " << TablePrinter::num(horizon, 0)
              << " s, peak resident " << report.global.peak_resident_jobs
              << " job(s), peak RSS "
              << TablePrinter::num(peak_rss_mb(), 0) << " MB, "
              << TablePrinter::num(wall_ms / 1000.0, 1) << " s wall -> "
              << (lossless && bounded ? "bounded + lossless" : "FAILED")
              << "\n";
    bench_report.verdicts.push_back(obs::BenchVerdict{
        .name = "streaming-stress",
        .ok = lossless && bounded,
        .metrics = {{"jobs_arrived",
                     static_cast<double>(report.global.jobs_arrived)},
                    {"peak_resident_jobs",
                     static_cast<double>(report.global.peak_resident_jobs)},
                    {"peak_rss_bound_mb", peak_rss_mb()},
                    {"wall_ms", wall_ms}},
        .histograms = {}});
  }

  if (!cli.get("json").empty()) {
    bench_report.ok = acceptance_ok;
    bench_report.write_file(cli.get("json"));
  }

  std::cout << (acceptance_ok
                    ? "\nall scenarios completed without drops; replays "
                      "bit-identical\n"
                    : "\nFAILURE: a scenario dropped jobs, a replay "
                      "diverged, or a streaming gate failed\n");
  return acceptance_ok ? 0 : 1;
}
