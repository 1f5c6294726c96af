#include "heuristics/constructive.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace gridsched {
namespace {

/// Tracks machine completion times while a heuristic builds a schedule.
///
/// Structure-of-arrays hot path: `completion_` is one contiguous double
/// array, and every per-job scan walks it in lockstep with the job's
/// contiguous ETC row. The scans are split into branch-light passes (a
/// pure min-reduction over four independent lanes, then an index-recovery
/// pass) instead of one branchy argmin loop. Both passes compare the exact
/// same `completion + etc` doubles the one-pass scan would, and FP min is
/// exact, so the split reproduces the classic first-strict-minimum result
/// bitwise — test_heuristics pins that equivalence.
class MachineLoads {
 public:
  explicit MachineLoads(const EtcMatrix& etc) : etc_(&etc) {
    completion_.assign(etc.ready_times().begin(), etc.ready_times().end());
  }

  [[nodiscard]] double completion(MachineId m) const noexcept {
    return completion_[static_cast<std::size_t>(m)];
  }

  [[nodiscard]] double completion_with(JobId j, MachineId m) const noexcept {
    return completion(m) + (*etc_)(j, m);
  }

  /// Argmin machine plus its completion time, fused in one scan pair.
  struct Best {
    MachineId machine;
    double completion;
  };

  /// Best plus the runner-up completion over the *other* machines
  /// (Sufferage's "second-best earliest completion") and the first machine
  /// that reaches it.
  struct BestAndSecond {
    MachineId machine;
    double completion;
    double second;            // +infinity on single-machine instances
    MachineId second_machine;  // -1 on single-machine instances
  };

  /// Machine minimizing the completion time of job j (ties: lowest id),
  /// together with that completion time.
  [[nodiscard]] Best best(JobId j) const noexcept {
    const std::span<const double> row = etc_->row(j);
    const std::size_t m = completion_.size();
    // Four lanes break the serial min dependency chain. The lane order
    // cannot change the minimum's value, only (for a zero) its sign, so
    // the result is read back from the first machine equal to it: that
    // machine and its own sum are exactly the one-pass argmin's.
    double lane[4];
    lane[0] = lane[1] = lane[2] = lane[3] = completion_[0] + row[0];
    std::size_t i = 1;
    for (; i + 4 <= m; i += 4) {
      for (std::size_t k = 0; k < 4; ++k) {
        lane[k] = std::min(lane[k], completion_[i + k] + row[i + k]);
      }
    }
    for (; i < m; ++i) lane[0] = std::min(lane[0], completion_[i] + row[i]);
    const double min_c =
        std::min(std::min(lane[0], lane[1]), std::min(lane[2], lane[3]));
    std::size_t arg = 0;
    while (arg + 1 < m && completion_[arg] + row[arg] != min_c) ++arg;
    return {static_cast<MachineId>(arg), completion_[arg] + row[arg]};
  }

  [[nodiscard]] MachineId best_machine(JobId j) const noexcept {
    return best(j).machine;
  }

  /// best() plus the minimum completion over the remaining machines.
  /// Later duplicates of the minimum feed the runner-up, exactly like the
  /// skip-the-argmin rescan they replace.
  [[nodiscard]] BestAndSecond best_and_second(JobId j) const noexcept {
    const Best b = best(j);
    const std::span<const double> row = etc_->row(j);
    const std::size_t m = completion_.size();
    const std::size_t skip = static_cast<std::size_t>(b.machine);
    double second = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (i == skip) continue;
      second = std::min(second, completion_[i] + row[i]);
    }
    std::size_t arg = 0;
    while (arg < m && (arg == skip || completion_[arg] + row[arg] != second)) {
      ++arg;
    }
    const MachineId second_machine =
        arg < m ? static_cast<MachineId>(arg) : MachineId{-1};
    return {b.machine, b.completion, second, second_machine};
  }

  /// Machine with the lowest current completion time (ties: lowest id).
  [[nodiscard]] MachineId earliest_free() const noexcept {
    return static_cast<MachineId>(std::distance(
        completion_.begin(),
        std::min_element(completion_.begin(), completion_.end())));
  }

  void assign(Schedule& schedule, JobId j, MachineId m) noexcept {
    schedule[j] = m;
    completion_[static_cast<std::size_t>(m)] += (*etc_)(j, m);
  }

 private:
  const EtcMatrix* etc_;
  std::vector<double> completion_;
};

/// Deadline tail of the batch heuristics: one MCT pass over the
/// not-yet-committed jobs (id order, earliest completion given the loads
/// built so far). O(n m) — always affordable, and the schedule stays
/// complete.
void mct_tail(Schedule& schedule, MachineLoads& loads,
              std::vector<JobId>& unassigned) {
  std::sort(unassigned.begin(), unassigned.end());
  for (const JobId j : unassigned) {
    loads.assign(schedule, j, loads.best_machine(j));
  }
  unassigned.clear();
}

/// How often the O(n m) one-pass heuristics poll the token: rarely enough
/// that the clock read disappears against the per-job column scan.
constexpr JobId kPollStride = 64;

/// Deadline tail of the one-pass heuristics: remaining jobs round-robin
/// over the machines, O(1) per job and load-blind — the cheapest complete
/// assignment there is.
void round_robin_tail(Schedule& schedule, MachineLoads& loads,
                      const EtcMatrix& etc, JobId from) {
  for (JobId j = from; j < etc.num_jobs(); ++j) {
    loads.assign(schedule, j, j % etc.num_machines());
  }
}

/// A job's cached pick: the machine it would go to, its score there, and
/// the machines that pick depends on — `machine` always, plus `runner_up`
/// for scores that read a second-best completion (-1 when none).
struct Pick {
  MachineId machine = -1;
  MachineId runner_up = -1;
  double score = 0.0;
};

/// Shared skeleton of Min-Min / Max-Min / Sufferage: repeatedly commit the
/// unassigned job with the highest score (first strict maximum in
/// `unassigned` order) to its target machine; once `cancel` fires, the
/// remaining jobs fall to the MCT tail. `score_job` returns a job's Pick
/// from the current loads.
///
/// Picks are cached in `picks`, parallel to `unassigned` (both shrink by
/// the same swap-with-back removal), and a round re-scores only the jobs
/// whose pick depends on the machine the previous round loaded. That is
/// exact, not a heuristic: loads only grow and FP addition is monotone, so
/// a machine outside a job's dependencies can neither become strictly
/// better than its pick nor become an earlier tie — its cached pick is
/// bitwise what a full rescan would compute. Precondition: every ETC
/// entry is finite and >= 0 and every ready time is finite (true of every
/// matrix the generators, read_instance and the simulator build). Other
/// inputs still yield a complete schedule, but it may differ from the
/// full-rescan one.
template <typename ScoreFn>
Schedule greedy_batch(const EtcMatrix& etc, const CancellationToken& cancel,
                      ScoreFn score_job) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  std::vector<JobId> unassigned(static_cast<std::size_t>(etc.num_jobs()));
  std::iota(unassigned.begin(), unassigned.end(), 0);
  // Every pick starts stale: the first round scores all jobs.
  std::vector<Pick> picks(unassigned.size());
  MachineId loaded = -1;

  while (!unassigned.empty() && !cancel.cancelled()) {
    std::size_t pick_idx = 0;
    double pick_score = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      Pick& pick = picks[i];
      if (pick.machine < 0 || pick.machine == loaded ||
          pick.runner_up == loaded) {
        pick = score_job(loads, unassigned[i]);
      }
      if (pick.score > pick_score) {
        pick_score = pick.score;
        pick_idx = i;
      }
    }
    loaded = picks[pick_idx].machine;
    loads.assign(schedule, unassigned[pick_idx], loaded);
    unassigned[pick_idx] = unassigned.back();
    unassigned.pop_back();
    picks[pick_idx] = picks.back();
    picks.pop_back();
  }
  mct_tail(schedule, loads, unassigned);
  return schedule;
}

}  // namespace

std::string_view heuristic_name(HeuristicKind kind) noexcept {
  switch (kind) {
    case HeuristicKind::kLjfrSjfr: return "LJFR-SJFR";
    case HeuristicKind::kMinMin: return "Min-Min";
    case HeuristicKind::kMaxMin: return "Max-Min";
    case HeuristicKind::kMct: return "MCT";
    case HeuristicKind::kMet: return "MET";
    case HeuristicKind::kOlb: return "OLB";
    case HeuristicKind::kSufferage: return "Sufferage";
    case HeuristicKind::kRandom: return "Random";
  }
  return "?";
}

std::span<const HeuristicKind> all_heuristics() noexcept {
  static constexpr std::array<HeuristicKind, 8> kAll = {
      HeuristicKind::kLjfrSjfr, HeuristicKind::kMinMin,
      HeuristicKind::kMaxMin,   HeuristicKind::kMct,
      HeuristicKind::kMet,      HeuristicKind::kOlb,
      HeuristicKind::kSufferage, HeuristicKind::kRandom,
  };
  return kAll;
}

Schedule construct_schedule(HeuristicKind kind, const EtcMatrix& etc,
                            Rng& rng, const CancellationToken& cancel) {
  switch (kind) {
    case HeuristicKind::kLjfrSjfr: return ljfr_sjfr(etc, cancel);
    case HeuristicKind::kMinMin: return min_min(etc, cancel);
    case HeuristicKind::kMaxMin: return max_min(etc, cancel);
    case HeuristicKind::kMct: return mct(etc, cancel);
    case HeuristicKind::kMet: return met(etc, cancel);
    case HeuristicKind::kOlb: return olb(etc, cancel);
    case HeuristicKind::kSufferage: return sufferage(etc, cancel);
    case HeuristicKind::kRandom:
      return Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  }
  throw std::invalid_argument("construct_schedule: unknown heuristic");
}

Schedule ljfr_sjfr(const EtcMatrix& etc, const CancellationToken& cancel) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  Schedule schedule(n);
  MachineLoads loads(etc);

  // Jobs ascending by workload (mean-ETC proxy); machines descending by
  // speed (smaller mean column ETC = faster machine).
  std::vector<JobId> jobs(static_cast<std::size_t>(n));
  std::iota(jobs.begin(), jobs.end(), 0);
  std::vector<double> workload(static_cast<std::size_t>(n));
  for (JobId j = 0; j < n; ++j) {
    workload[static_cast<std::size_t>(j)] = etc.mean_row(j);
  }
  std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
    const double wa = workload[static_cast<std::size_t>(a)];
    const double wb = workload[static_cast<std::size_t>(b)];
    return wa != wb ? wa < wb : a < b;
  });

  // Column means over the machine-major mirror: one contiguous
  // accumulate per machine (same j-ascending summation order as the old
  // row-major double loop, so the means are bitwise unchanged).
  std::vector<double> column_mean(static_cast<std::size_t>(m), 0.0);
  for (MachineId mm = 0; mm < m; ++mm) {
    const auto col = etc.machine_row(mm);
    column_mean[static_cast<std::size_t>(mm)] =
        std::accumulate(col.begin(), col.end(), 0.0);
  }
  std::vector<MachineId> machines_by_speed(static_cast<std::size_t>(m));
  std::iota(machines_by_speed.begin(), machines_by_speed.end(), 0);
  std::sort(machines_by_speed.begin(), machines_by_speed.end(),
            [&](MachineId a, MachineId b) {
              const double ca = column_mean[static_cast<std::size_t>(a)];
              const double cb = column_mean[static_cast<std::size_t>(b)];
              return ca != cb ? ca < cb : a < b;
            });

  // Phase 1 (pure LJFR): the m longest jobs, longest to the fastest machine.
  std::size_t lo = 0;                         // shortest unassigned
  std::size_t hi = jobs.size();               // one past longest unassigned
  const std::size_t initial = std::min<std::size_t>(
      static_cast<std::size_t>(m), jobs.size());
  for (std::size_t i = 0; i < initial; ++i) {
    loads.assign(schedule, jobs[--hi], machines_by_speed[i]);
  }

  // Phase 2: each step the least-loaded machine takes, alternately, the
  // shortest remaining job (SJFR) then the longest (LJFR).
  bool take_shortest = true;
  JobId since_poll = 0;
  while (lo < hi) {
    if (++since_poll >= kPollStride) {
      since_poll = 0;
      if (cancel.cancelled()) break;
    }
    const MachineId target = loads.earliest_free();
    const JobId job = take_shortest ? jobs[lo++] : jobs[--hi];
    loads.assign(schedule, job, target);
    take_shortest = !take_shortest;
  }
  // Deadline fired: the remaining window goes round-robin over machines.
  for (std::size_t i = lo; i < hi; ++i) {
    loads.assign(schedule, jobs[i],
                 static_cast<MachineId>(i - lo) % etc.num_machines());
  }
  return schedule;
}

Schedule min_min(const EtcMatrix& etc, const CancellationToken& cancel) {
  // Highest score = smallest best completion: negation is exact, so the
  // first strict maximum of -c is the first strict minimum of c.
  return greedy_batch(etc, cancel, [](const MachineLoads& loads, JobId j) {
    const auto b = loads.best(j);
    return Pick{b.machine, -1, -b.completion};
  });
}

Schedule max_min(const EtcMatrix& etc, const CancellationToken& cancel) {
  return greedy_batch(etc, cancel, [](const MachineLoads& loads, JobId j) {
    const auto b = loads.best(j);
    return Pick{b.machine, -1, b.completion};
  });
}

Schedule sufferage(const EtcMatrix& etc, const CancellationToken& cancel) {
  return greedy_batch(etc, cancel, [](const MachineLoads& loads, JobId j) {
    const auto bs = loads.best_and_second(j);
    // Single-machine instances have no second-best; sufferage degenerates
    // to arbitrary order there.
    const double score =
        bs.second == std::numeric_limits<double>::infinity()
            ? 0.0
            : bs.second - bs.completion;
    return Pick{bs.machine, bs.second_machine, score};
  });
}

Schedule mct(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    loads.assign(schedule, j, loads.best_machine(j));
  }
  return schedule;
}

Schedule met(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    const auto row = etc.row(j);
    const auto it = std::min_element(row.begin(), row.end());
    loads.assign(schedule, j,
                 static_cast<MachineId>(std::distance(row.begin(), it)));
  }
  return schedule;
}

Schedule olb(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    loads.assign(schedule, j, loads.earliest_free());
  }
  return schedule;
}

}  // namespace gridsched
