#include "service/sharded_driver.h"

#include <algorithm>
#include <utility>

namespace gridsched {
namespace {

/// One pass over per-job outcomes, folding each job as the simulator
/// finalizes it via the job observer. Jobs arrive in id order whatever
/// the arrival source, so every floating-point accumulation happens in
/// the same sequence — the per-shard/per-class views are bit-identical
/// between a `workload` and a `stream` run of the same jobs. Shard
/// attribution calls shard_of_machine at fold time, i.e. the partition
/// when the job's outcome became final.
struct JobFold {
  GridSchedulingService& service;
  int num_classes;

  std::vector<SimMetrics> shard_metrics;
  std::vector<double> shard_flow;
  std::vector<double> shard_wait;

  std::vector<SimMetrics> class_metrics;
  std::vector<double> class_flow;
  std::vector<double> class_wait;

  ClassSlo global_slo;
  LatencyHistogram global_tardiness;
  std::vector<ClassSlo> class_slo;
  std::vector<LatencyHistogram> class_tardiness;

  JobFold(GridSchedulingService& svc, int classes)
      : service(svc), num_classes(classes) {
    if (num_classes > 0) {
      const auto n = static_cast<std::size_t>(num_classes);
      class_metrics.assign(n, SimMetrics{});
      class_flow.assign(n, 0.0);
      class_wait.assign(n, 0.0);
      class_slo.assign(n, ClassSlo{});
      class_tardiness.resize(n);
      for (std::size_t job_class = 0; job_class < n; ++job_class) {
        class_slo[job_class].job_class = static_cast<int>(job_class);
      }
    }
  }

  void ensure_shards(std::size_t count) {
    if (shard_metrics.size() < count) {
      shard_metrics.resize(count);
      shard_flow.resize(count, 0.0);
      shard_wait.resize(count, 0.0);
    }
  }

  void add(const SimJobRecord& record, const TraceJob& job) {
    // --- Completing machine's shard. ---
    if (record.finish >= 0) {
      const auto shard = static_cast<std::size_t>(
          service.shard_of_machine(record.machine));
      ensure_shards(shard + 1);
      SimMetrics& metrics = shard_metrics[shard];
      ++metrics.jobs_completed;
      metrics.jobs_requeued += record.attempts - 1;
      shard_flow[shard] += record.flowtime();
      shard_wait[shard] += record.wait();
      metrics.max_flowtime = std::max(metrics.max_flowtime,
                                      record.flowtime());
      metrics.makespan = std::max(metrics.makespan, record.finish);
    }

    // --- Job class (class-structured runs only: the simulator resolves
    // every job's effective class before handing it over). ---
    if (job.job_class >= 0 && job.job_class < num_classes) {
      SimMetrics& metrics =
          class_metrics[static_cast<std::size_t>(job.job_class)];
      ++metrics.jobs_arrived;
      if (record.finish >= 0) {
        ++metrics.jobs_completed;
        metrics.jobs_requeued += record.attempts - 1;
        class_flow[static_cast<std::size_t>(job.job_class)] +=
            record.flowtime();
        class_wait[static_cast<std::size_t>(job.job_class)] += record.wait();
        metrics.max_flowtime = std::max(metrics.max_flowtime,
                                        record.flowtime());
        metrics.makespan = std::max(metrics.makespan, record.finish);
      }
    }

    // --- Deadline SLOs. Misses follow the simulator's accounting
    // exactly (late, rejected, or unfinished); tardiness percentiles
    // come from fixed-bucket histograms over the late completions. ---
    if (job.deadline >= 0) {
      const bool missed = record.rejected || record.finish < 0 ||
                          record.finish > job.deadline;
      const bool late = record.finish >= 0 && record.finish > job.deadline;
      const double tardiness = late ? record.finish - job.deadline : 0.0;
      global_slo.deadline_jobs += 1;
      if (missed) global_slo.missed += 1;
      if (late) global_tardiness.add(tardiness);
      if (job.job_class >= 0 && job.job_class < num_classes) {
        ClassSlo& slo = class_slo[static_cast<std::size_t>(job.job_class)];
        slo.deadline_jobs += 1;
        if (missed) slo.missed += 1;
        if (late) {
          class_tardiness[static_cast<std::size_t>(job.job_class)].add(
              tardiness);
        }
      }
    }
  }
};

}  // namespace

ShardedSimReport run_sharded(GridSimulator& sim,
                             GridSchedulingService& service) {
  ShardedSimReport report;
  const int num_classes = sim.config().num_job_classes;
  JobFold fold(service, num_classes);
  sim.set_job_observer([&fold](const SimJobRecord& record,
                               const TraceJob& job) {
    fold.add(record, job);
  });
  report.global = sim.run(service);
  sim.set_job_observer({});
  report.workload = std::string(sim.workload_name());

  // num_shards() reflects the end-of-run partition (splits may have grown
  // it); merged-away slots simply report zeros.
  fold.ensure_shards(static_cast<std::size_t>(service.num_shards()));
  report.per_shard = std::move(fold.shard_metrics);

  if (num_classes > 0) {
    report.per_class = std::move(fold.class_metrics);
    for (std::size_t job_class = 0; job_class < report.per_class.size();
         ++job_class) {
      SimMetrics& metrics = report.per_class[job_class];
      if (metrics.jobs_completed > 0) {
        metrics.mean_flowtime = fold.class_flow[job_class] /
                                metrics.jobs_completed;
        metrics.mean_wait = fold.class_wait[job_class] /
                            metrics.jobs_completed;
      }
    }
  }

  if (fold.global_slo.deadline_jobs > 0) {
    report.global_slo = fold.global_slo;
    report.global_slo.tardiness_p50 = fold.global_tardiness.p50();
    report.global_slo.tardiness_p99 = fold.global_tardiness.p99();
    report.global_slo.tardiness_p99_overflow =
        fold.global_tardiness.percentile_overflows(99.0);
    if (num_classes > 0) {
      report.per_class_slo = std::move(fold.class_slo);
      for (std::size_t job_class = 0;
           job_class < report.per_class_slo.size(); ++job_class) {
        report.per_class_slo[job_class].tardiness_p50 =
            fold.class_tardiness[job_class].p50();
        report.per_class_slo[job_class].tardiness_p99 =
            fold.class_tardiness[job_class].p99();
        report.per_class_slo[job_class].tardiness_p99_overflow =
            fold.class_tardiness[job_class].percentile_overflows(99.0);
      }
    }
  }

  // --- Shard-local machine utilization over the global elapsed time. ---
  const std::vector<double>& busy = sim.machine_busy();
  std::vector<double> busy_sum(report.per_shard.size(), 0.0);
  std::vector<int> machine_count(report.per_shard.size(), 0);
  for (std::size_t machine = 0; machine < busy.size(); ++machine) {
    const auto shard = static_cast<std::size_t>(
        service.shard_of_machine(static_cast<int>(machine)));
    busy_sum[shard] += busy[machine];
    machine_count[shard] += 1;
  }

  const double elapsed =
      std::max(report.global.makespan, sim.config().horizon);
  for (std::size_t shard = 0; shard < report.per_shard.size(); ++shard) {
    SimMetrics& metrics = report.per_shard[shard];
    if (metrics.jobs_completed > 0) {
      metrics.mean_flowtime = fold.shard_flow[shard] /
                              metrics.jobs_completed;
      metrics.mean_wait = fold.shard_wait[shard] / metrics.jobs_completed;
    }
    if (machine_count[shard] > 0 && elapsed > 0) {
      metrics.utilization =
          busy_sum[shard] /
          (elapsed * static_cast<double>(machine_count[shard]));
    }
  }

  // --- Scheduler-side books: one fold over the service's per-activation
  // shard records. ---
  for (const ShardStats& stat : service.shard_stats()) {
    SimMetrics& metrics = report.per_shard[static_cast<std::size_t>(
        stat.shard)];
    metrics.activations = stat.activations;
    metrics.scheduler_cpu_ms = stat.total_race_ms;
    report.migrations += stat.migrated_in;
    report.steals += stat.stolen_in;
  }
  return report;
}

}  // namespace gridsched
