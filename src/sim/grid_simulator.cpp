#include "sim/grid_simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "common/stopwatch.h"

namespace gridsched {
namespace {

/// Deterministic per-(job, machine) standard normal from a hash, so the
/// same pair gets the same ETC distortion in every activation (the grid's
/// inconsistency is a property of the pair, not of time).
double pair_noise(std::uint64_t seed, int job_id, int machine) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(job_id) << 20) ^
                    static_cast<std::uint64_t>(machine);
  Rng rng(splitmix64(h));
  return rng.normal();
}

struct MachineState {
  double mips = 0.0;
  double free_at = 0.0;       // when current backlog drains
  double busy_until_now = 0.0;  // accumulated busy time
  bool alive = true;
  double repair_at = 0.0;     // when a dead machine comes back
  std::vector<int> queued_jobs;  // jobs committed but not finished
};

/// Pulls, by cursor, the arrivals generated up front for a run without a
/// SimConfig::stream — the streaming contract over a vector the simulator
/// owns, with no sort and no copy (the source already promised arrival
/// order; the pull loop validates it).
class GeneratedArrivals final : public StreamingWorkloadSource {
 public:
  explicit GeneratedArrivals(const std::vector<TraceJob>& jobs)
      : jobs_(jobs), qos_(stream_qos_of(jobs)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "generated";
  }
  bool next_chunk(double until, std::vector<TraceJob>& out) override {
    // Negated so a NaN arrival reaches the pull loop's validator.
    while (cursor_ < jobs_.size() && !(jobs_[cursor_].arrival > until)) {
      out.push_back(jobs_[cursor_]);
      ++cursor_;
    }
    return cursor_ < jobs_.size();
  }
  [[nodiscard]] StreamQos qos() const noexcept override { return qos_; }

 private:
  const std::vector<TraceJob>& jobs_;
  std::size_t cursor_ = 0;
  StreamQos qos_;
};

}  // namespace

GridSimulator::GridSimulator(SimConfig config) : config_(std::move(config)) {
  if (config_.num_machines <= 0) {
    throw std::invalid_argument("SimConfig: need at least one machine");
  }
  if (config_.workload && config_.stream) {
    throw std::invalid_argument(
        "SimConfig: workload and stream are mutually exclusive");
  }
  // arrival_rate only feeds the default Poisson stream; a config with an
  // explicit workload source may leave it at anything.
  if ((!config_.workload && !config_.stream && config_.arrival_rate <= 0) ||
      config_.horizon <= 0 || config_.scheduler_period <= 0) {
    throw std::invalid_argument("SimConfig: rates and horizon must be > 0");
  }
  // Negated comparisons reject NaN alongside genuine range violations.
  if (!(config_.mips_min > 0) || !std::isfinite(config_.mips_min) ||
      !(config_.mips_max >= config_.mips_min) ||
      !std::isfinite(config_.mips_max)) {
    throw std::invalid_argument(
        "SimConfig: need finite MIPS with 0 < mips_min <= mips_max");
  }
  if ((config_.machine_mtbf > 0) != (config_.machine_mttr > 0)) {
    throw std::invalid_argument(
        "SimConfig: mtbf and mttr must be enabled together");
  }
  if (config_.num_job_classes < 0 ||
      (config_.num_job_classes > 0 && config_.class_speedup < 1.0)) {
    throw std::invalid_argument(
        "SimConfig: class_speedup must be >= 1 when classes are enabled");
  }
}

SimMetrics GridSimulator::run(BatchScheduler& scheduler) {
  Rng rng(config_.seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  Rng machine_rng = rng.split();
  Rng churn_rng = rng.split();

  const bool replaying_churn = config_.churn_replay != nullptr;
  const bool churn_enabled = config_.machine_mtbf > 0 || replaying_churn;

  // --- Build the grid. ---
  std::vector<MachineState> machines(
      static_cast<std::size_t>(config_.num_machines));
  for (auto& m : machines) {
    m.mips = machine_rng.uniform(config_.mips_min, config_.mips_max);
  }

  // --- Validate replayed churn up front: events must be applicable in
  // recorded order (non-decreasing activation windows), target real
  // machines, and be internally consistent. ---
  if (replaying_churn) {
    double prev_window = 0.0;
    for (const ChurnEvent& e : *config_.churn_replay) {
      if (e.machine < 0 || e.machine >= config_.num_machines) {
        throw std::runtime_error(
            "GridSimulator: churn_replay event targets an unknown machine");
      }
      if (!(e.fail_at >= 0) || !std::isfinite(e.fail_at) ||
          !(e.repair_at >= e.fail_at) || !std::isfinite(e.repair_at)) {
        throw std::runtime_error(
            "GridSimulator: churn_replay event times must be finite, "
            "0 <= fail_at <= repair_at");
      }
      const double window = std::ceil(e.fail_at / config_.scheduler_period);
      if (window < prev_window) {
        throw std::runtime_error(
            "GridSimulator: churn_replay events out of recorded order");
      }
      prev_window = window;
    }
  }

  records_.clear();
  trace_.clear();
  churn_trace_.clear();
  auto hashed_class = [&](int job_id) {
    std::uint64_t state =
        config_.seed ^ (static_cast<std::uint64_t>(job_id) * 0x2545f4914f6cdd1dULL);
    return static_cast<int>(splitmix64(state) %
                            static_cast<std::uint64_t>(config_.num_job_classes));
  };
  // Resolve the effective class so downstream consumers see exactly what
  // the ETCs use (trace-supplied class wins, else the historical per-id
  // hash), and normalize QoS sentinels to exactly -1 so a recorded trace
  // round-trips bit for bit (the writer emits an empty field for any
  // negative value, which reads back as -1.0; non-finite = unset too).
  auto normalize_job = [&](TraceJob& job, int id) {
    if (config_.num_job_classes > 0) {
      job.job_class = job.job_class >= 0
                          ? job.job_class % config_.num_job_classes
                          : hashed_class(id);
    }
    if (!(job.deadline >= 0) || !std::isfinite(job.deadline)) {
      job.deadline = -1.0;
    }
    if (!(job.budget >= 0) || !std::isfinite(job.budget)) job.budget = -1.0;
    if (job.user < 0) job.user = -1;
  };

  // --- The arrival source: the configured stream, or the workload (the
  // default Poisson process when unset) generated once over the horizon
  // and pulled by cursor. Either way, arrivals enter an in-flight window,
  // jobs [first_live, next_id) keyed by id, and leave it only once their
  // outcome can never change again. A generated run also keeps its jobs
  // and records for job_records()/arrival_trace(). ---
  const bool recording = config_.stream == nullptr;
  if (recording) {
    if (config_.workload) {
      trace_ = config_.workload->generate(config_.horizon, arrival_rng,
                                          workload_rng);
    } else {
      PoissonWorkload poisson(
          config_.arrival_rate,
          LogNormalSize{config_.workload_log_mean, config_.workload_log_sigma});
      trace_ = poisson.generate(config_.horizon, arrival_rng, workload_rng);
    }
    records_.reserve(trace_.size());
  }
  GeneratedArrivals generated(trace_);
  StreamingWorkloadSource& arrivals =
      recording ? generated : *config_.stream;
  // The QoS regime is fixed once, here: a stream cannot be scanned up
  // front, so it is the source's declaration. A declared-but-unset column
  // is behaviorally inert (infinite slack / no users), pinned by test.
  const StreamQos qos = arrivals.qos();

  std::deque<TraceJob> live_jobs;
  std::deque<SimJobRecord> live_records;
  int first_live = 0;
  int next_id = 0;
  double last_arrival = 0.0;
  std::vector<TraceJob> chunk;
  bool arrivals_open = true;

  auto job_of = [&](int id) -> TraceJob& {
    return live_jobs[static_cast<std::size_t>(id - first_live)];
  };
  auto record_of = [&](int id) -> SimJobRecord& {
    return live_records[static_cast<std::size_t>(id - first_live)];
  };

  auto cost_rate_of = [&](int machine) {
    return config_.machine_cost_rate *
           machines[static_cast<std::size_t>(machine)].mips /
           config_.mips_max;
  };

  auto etc_of = [&](const TraceJob& job, int job_id, int machine) {
    double base =
        job.workload_mi / machines[static_cast<std::size_t>(machine)].mips;
    if (config_.num_job_classes > 0 &&
        machine % config_.num_job_classes == job.job_class) {
      base /= config_.class_speedup;
    }
    if (config_.consistency_noise <= 0) return base;
    return base * std::exp(config_.consistency_noise *
                           pair_noise(config_.seed, job_id, machine));
  };

  SimMetrics metrics;

  // --- Per-job finalization, always invoked in id order, so every
  // floating-point accumulation happens in the same sequence whatever the
  // arrival source — the stream/workload bit-identity hinges on this. ---
  double flow_sum = 0.0;
  double wait_sum = 0.0;
  double slowdown_sum = 0.0;
  auto finalize_job = [&](const SimJobRecord& r, const TraceJob& job) {
    // Deadline accounting covers every outcome: late, rejected at
    // ingress, or never finished all count as misses — admission control
    // cannot improve the SLO by hiding jobs.
    const double deadline = job.deadline;
    if (deadline >= 0) {
      ++metrics.deadline_jobs;
      if (r.rejected || r.finish < 0 || r.finish > deadline) {
        ++metrics.deadline_missed;
        if (r.finish > deadline) {
          metrics.total_tardiness += r.finish - deadline;
        }
      }
    }
    if (observer_) observer_(r, job);
    if (recording) {
      records_.push_back(r);
      trace_[static_cast<std::size_t>(r.id)] = job;
    }
    if (r.finish < 0) return;
    ++metrics.jobs_completed;
    flow_sum += r.flowtime();
    wait_sum += r.wait();
    metrics.flowtime_hist.add(r.flowtime());
    if (config_.machine_cost_rate > 0) {
      metrics.total_cost += (r.finish - r.start) * cost_rate_of(r.machine);
    }
    double ideal = std::numeric_limits<double>::infinity();
    for (int m = 0; m < config_.num_machines; ++m) {
      ideal = std::min(ideal, etc_of(job, r.id, m));
    }
    slowdown_sum += r.flowtime() / ideal;
    metrics.max_flowtime = std::max(metrics.max_flowtime, r.flowtime());
    metrics.makespan = std::max(metrics.makespan, r.finish);
  };

  std::deque<int> pending;  // job ids awaiting scheduling
  std::size_t churn_cursor = 0;  // next churn_replay event to apply
  double now = 0.0;
  Stopwatch cpu;
  double total_batch = 0.0;

  // Fails machine `mi` at `fail_at`: jobs not finished by then are lost
  // and re-queued (non-preemptive execution restarts elsewhere). Records
  // the event, so drawn and replayed churn expose the same churn_trace().
  auto fail_machine = [&](int mi, double fail_at, double repair_at) {
    auto& m = machines[static_cast<std::size_t>(mi)];
    m.alive = false;
    m.repair_at = repair_at;
    std::vector<int> survivors;
    for (int job : m.queued_jobs) {
      auto& r = record_of(job);
      if (r.finish <= fail_at) {
        survivors.push_back(job);  // already done, keep the record
      } else {
        r.start = -1.0;
        r.finish = -1.0;
        r.machine = -1;
        pending.push_back(job);
        ++metrics.jobs_requeued;
      }
    }
    m.queued_jobs = std::move(survivors);
    m.free_at = fail_at;
    churn_trace_.push_back(ChurnEvent{mi, fail_at, repair_at});
  };

  const double max_sim_time = config_.horizon * 1000.0;  // runaway guard
  while (now < max_sim_time) {
    now += config_.scheduler_period;

    // --- Machine churn within (now - period, now]. ---
    if (replaying_churn) {
      // Repairs first: a machine repaired this activation rejoins the
      // batch below but cannot fail again until the next one — the same
      // rule the drawn pass enforces, so recorded events never target a
      // just-repaired machine.
      for (auto& m : machines) {
        if (!m.alive && m.repair_at <= now) {
          m.alive = true;
          m.free_at = std::max(m.free_at, m.repair_at);
        }
      }
      const auto& events = *config_.churn_replay;
      while (churn_cursor < events.size() &&
             events[churn_cursor].fail_at <= now) {
        const ChurnEvent& e = events[churn_cursor];
        if (!machines[static_cast<std::size_t>(e.machine)].alive) {
          throw std::runtime_error(
              "GridSimulator: churn_replay event for a machine already down");
        }
        fail_machine(e.machine, e.fail_at, e.repair_at);
        ++churn_cursor;
      }
    } else if (config_.machine_mtbf > 0) {
      for (std::size_t mi = 0; mi < machines.size(); ++mi) {
        auto& m = machines[mi];
        if (!m.alive) {
          if (m.repair_at <= now) {
            m.alive = true;
            m.free_at = std::max(m.free_at, m.repair_at);
          }
          continue;
        }
        const double p_fail =
            1.0 - std::exp(-config_.scheduler_period / config_.machine_mtbf);
        if (churn_rng.chance(p_fail)) {
          const double fail_at =
              now - churn_rng.uniform(0.0, config_.scheduler_period);
          fail_machine(static_cast<int>(mi), fail_at,
                       fail_at +
                           churn_rng.exponential(1.0 / config_.machine_mttr));
        }
      }
    }

    // --- Retire immortal jobs from the in-flight window. After this
    // activation's churn, a job with finish <= now can never be re-queued
    // (every future fail_at lands in a later window), so the contiguous
    // finished/rejected prefix is final, and finalizing exactly that
    // prefix keeps the id order. ---
    const int prune_from = first_live;
    while (!live_records.empty()) {
      const SimJobRecord& r = live_records.front();
      if (!(r.rejected || (r.finish >= 0 && r.finish <= now))) break;
      finalize_job(r, live_jobs.front());
      live_records.pop_front();
      live_jobs.pop_front();
      ++first_live;
    }
    if (churn_enabled && first_live != prune_from) {
      // Retired ids can never be re-queued; drop them so queue scans
      // and memory stay proportional to the live window.
      for (auto& m : machines) {
        std::erase_if(m.queued_jobs, [&](int id) { return id < first_live; });
      }
    }

    // --- Collect arrivals up to now. ---
    if (arrivals_open) {
      chunk.clear();
      arrivals_open = arrivals.next_chunk(now, chunk);
      for (const TraceJob& incoming : chunk) {
        // Horizon convention is half-open [0, horizon) everywhere: a
        // boundary arrival is dropped, exactly as the synthetic
        // generators and TraceWorkloadSource never emit it. Released
        // jobs are sorted, so the rest of the chunk is past it too.
        if (incoming.arrival >= config_.horizon) {
          arrivals_open = false;
          break;
        }
        if (!(incoming.arrival >= 0) || !std::isfinite(incoming.arrival) ||
            !(incoming.workload_mi > 0) ||
            !std::isfinite(incoming.workload_mi) ||
            incoming.arrival < last_arrival) {
          throw std::runtime_error(
              "GridSimulator: streaming source produced an invalid stream "
              "(arrivals must be finite, sorted and >= 0, sizes finite > 0)");
        }
        last_arrival = incoming.arrival;
        SimJobRecord record;
        record.id = next_id;
        record.arrival = incoming.arrival;
        live_records.push_back(record);
        live_jobs.push_back(incoming);
        normalize_job(live_jobs.back(), next_id);
        pending.push_back(next_id);
        ++next_id;
        ++metrics.jobs_arrived;
      }
      if (now >= config_.horizon) arrivals_open = false;
      metrics.peak_resident_jobs =
          std::max(metrics.peak_resident_jobs,
                   static_cast<int>(live_records.size()));
    }

    const bool horizon_passed = !arrivals_open;
    if (pending.empty()) {
      if (horizon_passed) break;  // nothing left to do
      continue;
    }

    // --- Build the batch ETC problem over alive machines. ---
    std::vector<int> alive;  // batch machine index -> grid machine id
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      if (machines[mi].alive) alive.push_back(static_cast<int>(mi));
    }
    if (alive.empty()) {
      if (horizon_passed && !churn_enabled) break;
      continue;  // wait for a repair
    }

    std::vector<int> batch(pending.begin(), pending.end());
    pending.clear();
    EtcMatrix etc(static_cast<int>(batch.size()),
                  static_cast<int>(alive.size()));
    for (std::size_t bj = 0; bj < batch.size(); ++bj) {
      const TraceJob& job = job_of(batch[bj]);
      for (std::size_t bm = 0; bm < alive.size(); ++bm) {
        etc.set(static_cast<JobId>(bj), static_cast<MachineId>(bm),
                etc_of(job, batch[bj], alive[bm]));
      }
    }
    for (std::size_t bm = 0; bm < alive.size(); ++bm) {
      const auto& m = machines[static_cast<std::size_t>(alive[bm])];
      etc.set_ready_time(static_cast<MachineId>(bm),
                         std::max(0.0, m.free_at - now));
    }

    // --- Run the scheduler on the batch. ---
    BatchContext ctx;
    ctx.job_ids = batch;
    ctx.machine_ids = alive;
    ctx.machine_mips.reserve(alive.size());
    for (const int machine : alive) {
      ctx.machine_mips.push_back(
          machines[static_cast<std::size_t>(machine)].mips);
    }
    ctx.activation = static_cast<std::uint64_t>(metrics.activations);
    if (config_.num_job_classes > 0) {
      ctx.num_job_classes = config_.num_job_classes;
      ctx.class_speedup = config_.class_speedup;
      ctx.job_classes.reserve(batch.size());
      for (const int job : batch) {
        ctx.job_classes.push_back(job_of(job).job_class);
      }
    }
    if (qos.deadlines) {
      // Relative slack: absolute deadline minus the activation time, so
      // schedulers compare it against batch completion times directly.
      ctx.job_deadlines.reserve(batch.size());
      for (const int job : batch) {
        const double deadline = job_of(job).deadline;
        ctx.job_deadlines.push_back(
            deadline >= 0 ? deadline - now
                          : std::numeric_limits<double>::infinity());
      }
    }
    if (qos.budgets) {
      ctx.job_users.reserve(batch.size());
      ctx.job_budgets.reserve(batch.size());
      for (const int job : batch) {
        ctx.job_users.push_back(job_of(job).user);
        ctx.job_budgets.push_back(job_of(job).budget);
      }
    }
    if (config_.machine_cost_rate > 0) {
      ctx.machine_cost_rates.reserve(alive.size());
      for (const int machine : alive) {
        ctx.machine_cost_rates.push_back(cost_rate_of(machine));
      }
    }
    cpu.restart();
    const Schedule plan = scheduler.schedule_batch(etc, ctx);
    metrics.scheduler_cpu_ms += cpu.elapsed_ms();
    if (!plan.complete(etc.num_machines()) ||
        plan.num_jobs() != etc.num_jobs()) {
      throw std::runtime_error("GridSimulator: scheduler returned an "
                               "incomplete schedule");
    }
    ++metrics.activations;
    total_batch += static_cast<double>(batch.size());

    // --- Admission rejections: dropped at ingress, never re-queued. ---
    for (std::size_t bj = 0; bj < batch.size(); ++bj) {
      if (plan[static_cast<JobId>(bj)] == Schedule::kRejected) {
        record_of(batch[bj]).rejected = true;
        ++metrics.jobs_rejected;
      }
    }

    // --- Commit: per machine, execute in SPT order (the convention the
    // evaluator optimizes; see core/evaluator.h). ---
    for (std::size_t bm = 0; bm < alive.size(); ++bm) {
      std::vector<std::pair<double, int>> spt;  // (etc, batch job index)
      for (std::size_t bj = 0; bj < batch.size(); ++bj) {
        if (plan[static_cast<JobId>(bj)] == static_cast<MachineId>(bm)) {
          spt.emplace_back(etc(static_cast<JobId>(bj),
                               static_cast<MachineId>(bm)),
                           static_cast<int>(bj));
        }
      }
      std::sort(spt.begin(), spt.end());
      auto& m = machines[static_cast<std::size_t>(alive[bm])];
      double cursor = std::max(m.free_at, now);
      for (const auto& [cost, bj] : spt) {
        auto& r = record_of(batch[static_cast<std::size_t>(bj)]);
        r.start = cursor;
        r.finish = cursor + cost;
        r.machine = static_cast<MachineId>(alive[static_cast<std::size_t>(bm)]);
        r.attempts += 1;
        cursor = r.finish;
        m.busy_until_now += cost;
        // queued_jobs only feeds failure re-queues; without churn,
        // tracking it would grow without bound.
        if (churn_enabled) m.queued_jobs.push_back(r.id);
      }
      m.free_at = cursor;
    }

    if (horizon_passed && !config_.drain) break;
  }

  // --- Flush whatever the in-flight window still holds — jobs whose
  // finish lies past the last activation, or that never got scheduled —
  // then aggregate metrics over completed jobs. A recorded trace drops
  // the jobs the horizon cut off. ---
  while (!live_records.empty()) {
    finalize_job(live_records.front(), live_jobs.front());
    live_records.pop_front();
    live_jobs.pop_front();
    ++first_live;
  }
  trace_.resize(records_.size());
  if (metrics.jobs_completed > 0) {
    metrics.mean_flowtime = flow_sum / metrics.jobs_completed;
    metrics.mean_wait = wait_sum / metrics.jobs_completed;
    metrics.mean_slowdown = slowdown_sum / metrics.jobs_completed;
  }
  if (metrics.activations > 0) {
    metrics.mean_batch_size = total_batch / metrics.activations;
  }
  machine_busy_.clear();
  machine_mips_.clear();
  double busy = 0.0;
  for (const auto& m : machines) {
    busy += m.busy_until_now;
    machine_busy_.push_back(m.busy_until_now);
    machine_mips_.push_back(m.mips);
  }
  const double elapsed = std::max(metrics.makespan, config_.horizon);
  metrics.utilization =
      busy / (elapsed * static_cast<double>(config_.num_machines));
  return metrics;
}

}  // namespace gridsched
