// Event-driven dynamic grid simulator.
//
// Models the scenario the paper positions the cMA for: independent jobs
// arrive continuously, and every `scheduler_period` simulated seconds the
// batch scheduler is activated on the jobs that arrived since the last
// activation (plus any re-queued ones). Ready times passed to the
// scheduler encode each machine's current backlog, exactly as in Eq. 1 of
// the paper. Machines can optionally fail and recover (exponential
// MTBF/MTTR); jobs on a failed machine are re-queued, since execution is
// non-preemptive.
//
// Arrivals come from a pluggable source (workload/workload_source.h), and
// every run consumes them the same way: each activation pulls the jobs
// that arrived since the last one, validates them, and holds only the
// in-flight window, finalizing jobs in id order as their outcomes become
// final. The source is either a `SimConfig::stream`, consumed chunk by
// chunk, or a `SimConfig::workload` — trace replay, bursty, diurnal,
// heavy-tailed, flash-crowd, or, when unset, the historical Poisson
// process with LogNormal sizes, reproduced draw for draw — generated once
// over the horizon and pulled by cursor. A workload run also keeps its
// per-job records and its arrival stream, with effective job classes
// filled in (`job_records()`, `arrival_trace()`), so it can be recorded
// (workload/trace_io.h) and replayed bit-for-bit.
//
// ETC entries for a (job, machine) pair derive from job workload (MI) and
// machine speed (MIPS), optionally distorted by two independent
// inconsistency mechanisms:
//
//   * class affinity (`num_job_classes` > 0): machines carry a hardware
//     class (machine id modulo the class count, i.e. types interleave
//     across the grid like alternating racks) and every job gets a
//     deterministic class; a job on a class-matched machine runs
//     `class_speedup` times faster. This is the structured inconsistency
//     of real heterogeneous grids — orderings differ per job CLASS — and
//     the regime QoS brokers partition work by.
//   * per-pair noise (`consistency_noise` > 0): a deterministic hash
//     normal distorts each pair, `etc *= exp(noise * z)` — unstructured
//     inconsistency with no exploitable pattern.
//
// Both disabled yields a perfectly consistent grid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "sim/batch_scheduler.h"
#include "workload/workload_source.h"

namespace gridsched {

struct SimConfig {
  double horizon = 2'000.0;        // arrival window (simulated seconds)
  double arrival_rate = 0.5;       // mean jobs per simulated second
  double scheduler_period = 50.0;  // batch activation interval
  int num_machines = 16;
  double mips_min = 100.0;
  double mips_max = 1'000.0;
  // Job workloads ~ LogNormal(log_mean, log_sigma), in millions of instrs.
  double workload_log_mean = 10.0;  // exp(10) ~ 22k MI
  double workload_log_sigma = 0.8;
  double consistency_noise = 0.0;  // 0 = consistent grid; ~0.5 = inconsistent
  // Class-structured inconsistency (0 disables): machine class = machine
  // id % num_job_classes, job class hashed from the job id; a matched
  // pair runs `class_speedup` x faster. Keep the class count coprime to
  // the shard count when sharding (see docs/service.md) so every shard
  // inherits every hardware class.
  int num_job_classes = 0;
  double class_speedup = 3.0;
  // Machine churn (0 disables): mean time between failures / to repair.
  double machine_mtbf = 0.0;
  double machine_mttr = 0.0;
  /// Cost model for QoS budgets (0 disables): machine m charges
  /// `machine_cost_rate * mips_m / mips_max` cost units per busy second —
  /// faster machines cost proportionally more, the Buyya-style cost-time
  /// trade-off. Passed to schedulers via BatchContext::machine_cost_rates.
  double machine_cost_rate = 0.0;
  bool drain = true;  // keep activating past the horizon until queue empties
  std::uint64_t seed = 1;
  /// Arrival stream. Unset = Poisson(arrival_rate) with
  /// LogNormal(workload_log_mean, workload_log_sigma) sizes, exactly the
  /// stream this simulator always produced. Shared so SimConfig stays
  /// copyable (benches clone a base config per run); sources are
  /// stateless across runs.
  std::shared_ptr<WorkloadSource> workload;
  /// Streaming arrival stream, mutually exclusive with `workload`: the
  /// simulator pulls `next_chunk(now)` each activation, so a
  /// multi-million-job trace replays in O(1) memory without ever being
  /// materialized. Unlike `workload`, a stream carries a cursor and is
  /// CONSUMED by one run — build a fresh one per run. A stream run keeps
  /// no `job_records()`/`arrival_trace()`; observe per-job outcomes via
  /// set_job_observer.
  std::shared_ptr<StreamingWorkloadSource> stream;
  /// Recorded churn to replay (workload/trace_io.h sidecar): when set,
  /// machine failures come from this event sequence instead of the
  /// MTBF/MTTR draws, making a churny run reproducible under ANY
  /// scheduler and either arrival source. Events must be the recorded
  /// order (non-decreasing activation windows), validated at run().
  std::shared_ptr<const std::vector<ChurnEvent>> churn_replay;
};

/// Per-job outcome record.
struct SimJobRecord {
  int id = 0;
  double arrival = 0.0;
  double start = -1.0;
  double finish = -1.0;
  MachineId machine = -1;
  int attempts = 0;  // > 1 when re-queued by machine failures
  /// Dropped at ingress by admission control (Schedule::kRejected gene);
  /// start/finish/machine stay unset.
  bool rejected = false;

  [[nodiscard]] double flowtime() const noexcept { return finish - arrival; }
  [[nodiscard]] double wait() const noexcept { return start - arrival; }
};

struct SimMetrics {
  int jobs_arrived = 0;
  int jobs_completed = 0;
  int jobs_requeued = 0;  // requeue events (failures)
  int activations = 0;
  double mean_batch_size = 0.0;
  double mean_flowtime = 0.0;   // completion - arrival, averaged
  double mean_wait = 0.0;       // start - arrival, averaged
  /// Mean of flowtime / ideal-execution-time per job, where the ideal is
  /// the job's fastest possible ETC on any machine of the grid (>= 1; the
  /// classic QoS ratio: how much slower the grid felt than a dedicated
  /// best machine).
  double mean_slowdown = 0.0;
  double max_flowtime = 0.0;
  double makespan = 0.0;        // finish time of the last job
  double utilization = 0.0;     // busy machine-time / elapsed machine-time
  double scheduler_cpu_ms = 0.0;  // real time spent inside the scheduler
  /// Flowtime distribution of completed jobs — mean-only latency hides
  /// the tail, so p50/p99 come from here (flowtime_hist.p99()).
  LatencyHistogram flowtime_hist;
  // QoS outcomes (all zero when the trace carries no deadlines).
  /// High-water mark of the in-flight window: jobs arrived but not yet
  /// final. Bounded by scheduling locality, independent of trace length —
  /// the O(1)-memory guarantee of a stream run, gated by
  /// bench/trace_replay. (A workload run also keeps its generated jobs
  /// and records for arrival_trace()/job_records(); those are not
  /// counted.)
  int peak_resident_jobs = 0;
  int jobs_rejected = 0;   // dropped at ingress by admission control
  int deadline_jobs = 0;   // jobs that carried a deadline
  int deadline_missed = 0; // of those: late, rejected, or unfinished
  double total_tardiness = 0.0;  // sum of (finish - deadline) over late jobs
  double total_cost = 0.0;       // executed work priced by machine cost rates

  [[nodiscard]] double deadline_miss_rate() const noexcept {
    return deadline_jobs > 0
               ? static_cast<double>(deadline_missed) / deadline_jobs
               : 0.0;
  }
};

class GridSimulator {
 public:
  /// Fires once per job, in job-id (= arrival) order, when the job's
  /// outcome is final, as the in-flight window drains. The TraceJob
  /// carries the normalized fields (resolved class, -1 sentinels) the run
  /// actually used. The call sequence is the same whether the jobs come
  /// from a `workload` or a `stream`.
  using JobObserver = std::function<void(const SimJobRecord&, const TraceJob&)>;

  explicit GridSimulator(SimConfig config);

  /// Runs one full simulation with the given scheduler. Deterministic in
  /// (config.seed, scheduler behaviour).
  [[nodiscard]] SimMetrics run(BatchScheduler& scheduler);

  void set_job_observer(JobObserver observer) {
    observer_ = std::move(observer);
  }

  /// Per-job records of the last workload run, in id order (empty before
  /// the first run, and always empty for a stream run — use
  /// set_job_observer there).
  [[nodiscard]] const std::vector<SimJobRecord>& job_records() const noexcept {
    return records_;
  }

  /// The arrival stream of the last workload run (empty for a stream
  /// run), with the job class each ETC actually used filled in (when
  /// classes are enabled).
  /// `write_trace(out, sim.arrival_trace())` re-emits the run as a trace
  /// that TraceWorkloadSource replays bit-for-bit under the same config.
  [[nodiscard]] const std::vector<TraceJob>& arrival_trace() const noexcept {
    return trace_;
  }

  /// The churn events of the last run, in application order — recorded
  /// whether they were drawn (MTBF/MTTR) or replayed. `write_churn_trace`
  /// of this plus SimConfig::churn_replay of the read-back closes the
  /// record→replay loop for the failure process.
  [[nodiscard]] const std::vector<ChurnEvent>& churn_trace() const noexcept {
    return churn_trace_;
  }

  /// Name of the configured workload source ("poisson" when unset).
  [[nodiscard]] std::string_view workload_name() const noexcept {
    if (config_.stream) return config_.stream->name();
    return config_.workload ? config_.workload->name() : "poisson";
  }

  /// Per-machine busy time (executed work, seconds) of the last run. The
  /// sharded driver folds these into per-shard utilization; empty before
  /// the first run.
  [[nodiscard]] const std::vector<double>& machine_busy() const noexcept {
    return machine_busy_;
  }

  /// The sampled MIPS rating of each machine (set on the first run).
  [[nodiscard]] const std::vector<double>& machine_mips() const noexcept {
    return machine_mips_;
  }

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  SimConfig config_;
  std::vector<SimJobRecord> records_;
  std::vector<TraceJob> trace_;
  std::vector<ChurnEvent> churn_trace_;
  std::vector<double> machine_busy_;
  std::vector<double> machine_mips_;
  JobObserver observer_;
};

}  // namespace gridsched
