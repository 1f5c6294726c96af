// Thin driver gluing GridSimulator to the sharded service's reporting.
//
// The service is a BatchScheduler, so the simulator already pushes machine
// failures, re-queues and per-job records through it unchanged. What the
// simulator cannot produce on its own is the per-shard and per-class view:
// this driver runs one simulation and then folds the simulator's per-job
// records and per-machine busy times back onto the service's machine
// partition (one SimMetrics per shard next to the global one) and onto the
// workload's job classes (one SimMetrics per class — the view class-aware
// routing is judged by). Jobs are attributed to the shard of the machine
// that finally completed them, under the machine partition as it stands at
// the END of the run (identical to the service's own routing map except
// for jobs still unfinished at the end of a no-drain run, which belong to
// no shard; with dynamic split/merge enabled, jobs completed before a
// resize are attributed to their machine's final shard).
#pragma once

#include <string>
#include <vector>

#include "service/grid_scheduling_service.h"
#include "sim/grid_simulator.h"

namespace gridsched {

/// Deadline SLO outcome of one job class (or of the whole run when
/// `job_class` is -1). Tardiness percentiles are over LATE COMPLETED jobs
/// only — a job that was rejected or never finished counts as missed but
/// contributes no tardiness sample (there is no finish time to measure).
struct ClassSlo {
  int job_class = -1;
  int deadline_jobs = 0;
  int missed = 0;  // late, rejected at ingress, or never finished
  double tardiness_p50 = 0.0;
  double tardiness_p99 = 0.0;
  /// True when the p99 rank fell among samples at or beyond the
  /// histogram's range end — tardiness_p99 is then a clamped floor, not
  /// an estimate, and tables should print ">1e5" instead of the value.
  bool tardiness_p99_overflow = false;

  [[nodiscard]] double miss_rate() const noexcept {
    return deadline_jobs > 0 ? static_cast<double>(missed) / deadline_jobs
                             : 0.0;
  }
};

struct ShardedSimReport {
  SimMetrics global;
  /// Which workload source fed the run ("poisson", "bursty", "trace", ...)
  /// so multi-scenario benches can label rows from the report alone.
  std::string workload;
  /// Index = shard id. Per-shard fields: jobs_completed, jobs_requeued,
  /// activations, mean/max flowtime, mean_wait, makespan, utilization and
  /// scheduler_cpu_ms are shard-local; arrival/batch statistics stay 0
  /// (arrivals are a property of the grid, not of a shard).
  std::vector<SimMetrics> per_shard;
  /// Index = job class; empty on classless runs. Per-class fields:
  /// jobs_arrived, jobs_completed, jobs_requeued, mean/max flowtime,
  /// mean_wait and makespan; grid-level fields (utilization, activations)
  /// stay 0. Macro-averaging mean_flowtime over classes is the QoS view
  /// bench/sharded_service's class-routing verdict uses.
  std::vector<SimMetrics> per_class;
  /// Run-wide deadline SLO (job_class = -1); zeros when the workload
  /// carries no deadlines.
  ClassSlo global_slo;
  /// Per-class deadline SLOs (index = job class); empty on classless runs
  /// or when no job carries a deadline. The view bench/qos_slo's
  /// miss-rate-vs-load verdict reads.
  std::vector<ClassSlo> per_class_slo;
  /// Jobs that crossed shards during rebalancing, summed over activations.
  int migrations = 0;
  /// Jobs that crossed shards via drain-tail work stealing (post-race
  /// moves onto a neighbor's earlier-draining machine), summed likewise.
  int steals = 0;
};

/// Runs `sim` with `service` and splits the outcome per shard and per job
/// class. The service's books (activations, migrations, race times) are
/// cumulative, so pass a freshly constructed service for an exact per-run
/// report.
///
/// The driver installs its own job observer (clobbering any
/// caller-installed one) and folds each job as it finalizes, so a
/// `workload` and a `stream` run of the same jobs report identically bit
/// for bit. Shard attribution under dynamic split/merge uses the
/// partition at the time each job's outcome became final.
[[nodiscard]] ShardedSimReport run_sharded(GridSimulator& sim,
                                           GridSchedulingService& service);

}  // namespace gridsched
