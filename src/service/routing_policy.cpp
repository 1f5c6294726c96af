#include "service/routing_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace gridsched {
namespace {

/// The job's best ETC over the shard's machines, uncorrected — the real
/// cost of running the job THERE (routing scores want this; backlog
/// bookings want the class-corrected shard_work_estimate instead).
double shard_min_etc(const EtcMatrix& etc, JobId job,
                     const ShardSnapshot& shard) {
  double best = std::numeric_limits<double>::infinity();
  for (int column : shard.columns) {
    best = std::min(best, etc(job, static_cast<MachineId>(column)));
  }
  return shard.columns.empty() ? 0.0 : best;
}

/// The least-backlog pick (ties toward the lower index) — the shared
/// definition behind least-backlog routing AND the classless and
/// best-effort fallbacks of class-backlog and deadline-aware routing, so
/// the documented "degrades to least-backlog" guarantee cannot silently
/// diverge.
std::size_t least_backlog_index(std::span<const ShardSnapshot> shards) {
  std::size_t best = 0;
  for (std::size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].backlog() < shards[best].backlog()) best = s;
  }
  return best;
}

/// The estimated-completion pick (ties toward the lower index) shared by
/// class-backlog and deadline-aware routing: the shard's mean
/// per-machine backlog (how long until *a* machine frees up), plus — when
/// `classed` — the job class's queue per matched machine there, plus the
/// job's best run time there.
std::size_t least_completion_index(RoutedJob job, const EtcMatrix& etc,
                                   std::span<const ShardSnapshot> shards,
                                   bool classed) {
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardSnapshot& shard = shards[s];
    const double congestion =
        shard.backlog() / static_cast<double>(shard.columns.size());
    const double class_queue =
        classed ? shard.class_queue(job.job_class) : 0.0;
    const double score =
        congestion + class_queue + shard_min_etc(etc, job.row, shard);
    if (score < best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

}  // namespace

std::string_view routing_name(RoutingKind kind) noexcept {
  switch (kind) {
    case RoutingKind::kRoundRobin: return "round-robin";
    case RoutingKind::kLeastBacklog: return "least-backlog";
    case RoutingKind::kBestFit: return "best-fit";
    case RoutingKind::kClassBacklog: return "class-backlog";
    case RoutingKind::kDeadlineAware: return "deadline-aware";
  }
  return "?";
}

std::span<const RoutingKind> all_routing_kinds() noexcept {
  static constexpr RoutingKind kAll[] = {
      RoutingKind::kRoundRobin,
      RoutingKind::kLeastBacklog,
      RoutingKind::kBestFit,
      RoutingKind::kClassBacklog,
      RoutingKind::kDeadlineAware,
  };
  return kAll;
}

RoutingKind routing_kind_from_name(std::string_view name) {
  for (const RoutingKind kind : all_routing_kinds()) {
    if (routing_name(kind) == name) return kind;
  }
  std::string message = "unknown routing policy '";
  message += name;
  message += "'; valid:";
  for (const RoutingKind kind : all_routing_kinds()) {
    message += ' ';
    message += routing_name(kind);
  }
  throw std::invalid_argument(message);
}

double shard_work_estimate(const EtcMatrix& etc, RoutedJob job,
                           const ShardSnapshot& shard) {
  double best = shard_min_etc(etc, job.row, shard);
  // Normalize class-starved bookings to matched-machine seconds (see the
  // header): only when classes are reported, the job is classed, and the
  // shard holds none of its machines.
  if (job.job_class >= 0 && !shard.class_machines.empty() &&
      !shard.has_class(job.job_class) && shard.class_speedup > 1.0) {
    best /= shard.class_speedup;
  }
  return best;
}

std::vector<StealMove> plan_drain_steals(const EtcMatrix& etc,
                                         const Schedule& plan,
                                         std::span<const int> column_shard,
                                         int max_moves) {
  std::vector<StealMove> moves;
  if (etc.num_jobs() == 0 || etc.num_machines() < 2 || max_moves <= 0) {
    return moves;
  }
  // Exact drain times and per-machine job lists of the committed plan.
  std::vector<double> completion(static_cast<std::size_t>(etc.num_machines()));
  for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
    completion[static_cast<std::size_t>(machine)] = etc.ready_time(machine);
  }
  std::vector<std::vector<JobId>> on_machine(
      static_cast<std::size_t>(etc.num_machines()));
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    if (plan[job] < 0) continue;  // rejected rows run on no machine
    const auto machine = static_cast<std::size_t>(plan[job]);
    completion[machine] += etc(job, plan[job]);
    on_machine[machine].push_back(job);
  }
  // The 1e-9 slack keeps float-identical completions from trading jobs
  // forever; every accepted move must shrink the tail by a real amount.
  constexpr double kGain = 1e-9;
  while (static_cast<int>(moves.size()) < max_moves) {
    std::size_t critical = 0;
    for (std::size_t m = 1; m < completion.size(); ++m) {
      if (completion[m] > completion[critical]) critical = m;
    }
    if (on_machine[critical].empty()) break;
    const int victim_shard = column_shard[critical];
    JobId best_job = -1;
    std::size_t best_target = 0;
    double best_finish = completion[critical] - kGain;
    for (const JobId job : on_machine[critical]) {
      for (std::size_t target = 0; target < completion.size(); ++target) {
        if (column_shard[target] == victim_shard) continue;
        const double finish =
            completion[target] + etc(job, static_cast<MachineId>(target));
        if (finish < best_finish) {
          best_finish = finish;
          best_job = job;
          best_target = target;
        }
      }
    }
    if (best_job < 0) break;  // the straggler machine cannot shed profitably
    completion[critical] -= etc(best_job, static_cast<MachineId>(critical));
    completion[best_target] +=
        etc(best_job, static_cast<MachineId>(best_target));
    auto& queue = on_machine[critical];
    queue.erase(std::find(queue.begin(), queue.end(), best_job));
    on_machine[best_target].push_back(best_job);
    moves.push_back(StealMove{
        .row = best_job,
        .from_column = static_cast<int>(critical),
        .to_column = static_cast<int>(best_target),
        .from_shard = victim_shard,
        .to_shard = column_shard[best_target],
    });
  }
  return moves;
}

std::size_t ShardRouter::route(RoutedJob job, const EtcMatrix& etc,
                               std::span<const ShardSnapshot> shards) {
  switch (kind_) {
    case RoutingKind::kRoundRobin:
      return next_++ % shards.size();
    case RoutingKind::kLeastBacklog:
      return least_backlog_index(shards);
    case RoutingKind::kBestFit: {
      std::size_t best = 0;
      double best_etc = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < shards.size(); ++s) {
        for (int column : shards[s].columns) {
          const double cost = etc(job.row, static_cast<MachineId>(column));
          if (cost < best_etc) {
            best_etc = cost;
            best = s;
          }
        }
      }
      return best;
    }
    case RoutingKind::kClassBacklog:
      // Classless job, or a grid without reported classes: per-class queues
      // do not exist, so fall back to plain least-backlog.
      if (job.job_class < 0 || shards.front().class_machines.empty()) {
        return least_backlog_index(shards);
      }
      return least_completion_index(job, etc, shards, /*classed=*/true);
    case RoutingKind::kDeadlineAware: {
      // Best-effort jobs spread by backlog; the completion-minimizing picks
      // below are reserved for the jobs whose promise depends on them.
      if (!std::isfinite(job.deadline)) return least_backlog_index(shards);
      const bool classed =
          job.job_class >= 0 && !shards.front().class_machines.empty();
      return least_completion_index(job, etc, shards, classed);
    }
  }
  throw std::invalid_argument("ShardRouter: unknown routing kind");
}

}  // namespace gridsched
