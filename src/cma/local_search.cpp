#include "cma/local_search.h"

#include <limits>

namespace gridsched {
namespace {

/// Scalar the local search minimizes for a previewed candidate.
double score_of(const PreviewResult& preview, LsObjective objective,
                const FitnessWeights& weights, int num_machines) {
  return preview.objectives.score(objective, weights, num_machines);
}

double current_score(const ScheduleEvaluator& evaluator, LsObjective objective,
                     const FitnessWeights& weights) {
  return evaluator.objectives().score(objective, weights,
                                      evaluator.num_machines());
}

/// One LM step: random (job, machine); keep if improving.
bool step_local_move(const LocalSearchConfig& config,
                     const FitnessWeights& weights,
                     ScheduleEvaluator& evaluator, Rng& rng,
                     LocalSearchStats& stats) {
  const int n = evaluator.num_jobs();
  const int m = evaluator.num_machines();
  if (m < 2) return false;
  const JobId job = rng.uniform_int(0, n - 1);
  MachineId to = rng.uniform_int(0, m - 2);
  if (to >= evaluator.schedule()[job]) ++to;

  const double before = current_score(evaluator, config.objective, weights);
  const auto preview = evaluator.preview_move(job, to);
  ++stats.previews;
  if (score_of(preview, config.objective, weights, m) < before) {
    evaluator.apply_move(job, to);
    return true;
  }
  return false;
}

/// One SLM step: random job, best machine.
bool step_steepest_move(const LocalSearchConfig& config,
                        const FitnessWeights& weights,
                        ScheduleEvaluator& evaluator, Rng& rng,
                        LocalSearchStats& stats) {
  const int n = evaluator.num_jobs();
  const int m = evaluator.num_machines();
  if (m < 2) return false;
  const JobId job = rng.uniform_int(0, n - 1);
  const MachineId from = evaluator.schedule()[job];

  double best_score = current_score(evaluator, config.objective, weights);
  MachineId best_machine = from;
  for (MachineId to = 0; to < m; ++to) {
    if (to == from) continue;
    const auto preview = evaluator.preview_move(job, to);
    ++stats.previews;
    const double score = score_of(preview, config.objective, weights, m);
    if (score < best_score) {
      best_score = score;
      best_machine = to;
    }
  }
  if (best_machine != from) {
    evaluator.apply_move(job, best_machine);
    return true;
  }
  return false;
}

/// One LMCTS step: best improving swap under the configured scan strategy.
/// The deterministic scans run the evaluator's one-pass swap kernel per
/// focus job, carrying the best score across focus jobs as the strict
/// bound, so they pick the pair a (focus, partner-id)-ordered scan of
/// preview_swap would; only kSampled previews pair by pair.
bool step_lmcts(const LocalSearchConfig& config, const FitnessWeights& weights,
                ScheduleEvaluator& evaluator, Rng& rng,
                LocalSearchStats& stats) {
  const int n = evaluator.num_jobs();
  const int m = evaluator.num_machines();
  if (m < 2 || n < 2) return false;

  double best_score = current_score(evaluator, config.objective, weights);
  JobId best_a = -1;
  JobId best_b = -1;
  auto scan = [&](JobId a, JobId first_partner) {
    const auto pick = evaluator.best_swap(a, first_partner, best_score,
                                          config.objective, weights);
    stats.previews += pick.previews;
    if (pick.partner >= 0) {
      best_score = pick.score;
      best_a = a;
      best_b = pick.partner;
    }
  };

  switch (config.scan) {
    case LmctsScan::kCriticalRandomJob: {
      const auto& critical_jobs =
          evaluator.machine_jobs(evaluator.makespan_machine());
      if (critical_jobs.empty()) break;  // only ready time on the machine
      scan(critical_jobs[static_cast<std::size_t>(
                             rng.bounded(critical_jobs.size()))]
               .second,
           0);
      break;
    }
    case LmctsScan::kCriticalAllJobs: {
      // By reference: the kernel only previews, and previews never touch
      // the job lists.
      for (const auto& [etc_a, a] :
           evaluator.machine_jobs(evaluator.makespan_machine())) {
        scan(a, 0);
      }
      break;
    }
    case LmctsScan::kFull: {
      for (JobId a = 0; a < n; ++a) scan(a, a + 1);
      break;
    }
    case LmctsScan::kSampled: {
      for (int i = 0; i < config.sampled_pairs; ++i) {
        const JobId a = rng.uniform_int(0, n - 1);
        const JobId b = rng.uniform_int(0, n - 1);
        if (a == b || evaluator.schedule()[a] == evaluator.schedule()[b]) {
          continue;
        }
        const auto preview = evaluator.preview_swap(a, b);
        ++stats.previews;
        const double score = score_of(preview, config.objective, weights, m);
        if (score < best_score) {
          best_score = score;
          best_a = a;
          best_b = b;
        }
      }
      break;
    }
  }

  if (best_a >= 0) {
    evaluator.apply_swap(best_a, best_b);
    return true;
  }
  return false;
}

/// One VNS rung-2 step: a two-move ejection chain off the critical
/// machine. Leg 1 moves a random critical job to its best target machine
/// (allowed to worsen); leg 2 relocates the best other job off that
/// target. Commits the better of {leg 1 alone, leg 1 + leg 2} when it
/// beats the starting score, otherwise reverts leg 1 and re-canonicalizes
/// the touched machines so a failed chain leaves no ULP residue in the
/// fast scalars.
bool step_exchange_chain(const LocalSearchConfig& config,
                         const FitnessWeights& weights,
                         ScheduleEvaluator& evaluator, Rng& rng,
                         LocalSearchStats& stats,
                         const CancellationToken& cancel) {
  const int n = evaluator.num_jobs();
  const int m = evaluator.num_machines();
  if (m < 2 || n < 1) return false;
  const MachineId critical = evaluator.makespan_machine();
  const auto& critical_jobs = evaluator.machine_jobs(critical);
  if (critical_jobs.empty()) return false;
  const JobId a =
      critical_jobs[static_cast<std::size_t>(rng.bounded(critical_jobs.size()))]
          .second;
  const double before = current_score(evaluator, config.objective, weights);

  // Leg 1: best target for `a`, improving or not.
  MachineId to1 = -1;
  double score1 = std::numeric_limits<double>::infinity();
  for (MachineId to = 0; to < m; ++to) {
    if (to == critical) continue;
    const auto preview = evaluator.preview_move(a, to);
    ++stats.previews;
    const double score = score_of(preview, config.objective, weights, m);
    if (score < score1) {
      score1 = score;
      to1 = to;
    }
  }
  if (to1 < 0) return false;
  evaluator.apply_move(a, to1);

  // Leg 2: best relocation of another job off the now-heavier target.
  // "Leg 1 alone" competes as the empty second move.
  const auto& target_jobs = evaluator.machine_jobs(to1);
  JobId best_b = -1;
  MachineId to2 = -1;
  double best_chain = score1;
  for (const auto& [etc_b, b] : target_jobs) {
    if (b == a) continue;
    if (cancel.cancelled()) break;
    for (MachineId to = 0; to < m; ++to) {
      if (to == to1) continue;
      const auto preview = evaluator.preview_move(b, to);
      ++stats.previews;
      const double score = score_of(preview, config.objective, weights, m);
      if (score < best_chain) {
        best_chain = score;
        best_b = b;
        to2 = to;
      }
    }
  }

  if (best_chain < before) {
    if (best_b >= 0) evaluator.apply_move(best_b, to2);
    return true;
  }
  evaluator.apply_move(a, critical);
  evaluator.canonicalize();
  return false;
}

}  // namespace

std::string_view local_search_name(LocalSearchKind k) noexcept {
  switch (k) {
    case LocalSearchKind::kNone: return "None";
    case LocalSearchKind::kLocalMove: return "LM";
    case LocalSearchKind::kSteepestLocalMove: return "SLM";
    case LocalSearchKind::kLmcts: return "LMCTS";
    case LocalSearchKind::kVns: return "VNS";
  }
  return "?";
}

LocalSearchStats local_search(const LocalSearchConfig& config,
                              const FitnessWeights& weights,
                              ScheduleEvaluator& evaluator, Rng& rng,
                              const CancellationToken& cancel) {
  LocalSearchStats stats;
  if (config.kind == LocalSearchKind::kNone) return stats;

  // VNS ladder state: the current neighborhood rung. Escalates one rung
  // per stagnant iteration, resets on improvement, wraps past the top
  // (the stochastic rungs draw fresh focus jobs, so a rescan at rung 0
  // is not a wasted iteration the way a deterministic rescan would be).
  int rung = 0;

  for (int it = 0; it < config.iterations; ++it) {
    if (cancel.cancelled()) break;
    bool improved = false;
    switch (config.kind) {
      case LocalSearchKind::kLocalMove:
        improved = step_local_move(config, weights, evaluator, rng, stats);
        break;
      case LocalSearchKind::kSteepestLocalMove:
        improved = step_steepest_move(config, weights, evaluator, rng, stats);
        break;
      case LocalSearchKind::kLmcts:
        improved = step_lmcts(config, weights, evaluator, rng, stats);
        break;
      case LocalSearchKind::kVns:
        if (rung == 0) {
          improved = step_steepest_move(config, weights, evaluator, rng, stats);
        } else if (rung == 1) {
          improved = step_lmcts(config, weights, evaluator, rng, stats);
        } else {
          improved = step_exchange_chain(config, weights, evaluator, rng,
                                         stats, cancel);
        }
        rung = improved || rung >= config.vns_max_rung ? 0 : rung + 1;
        break;
      case LocalSearchKind::kNone:
        break;
    }
    ++stats.iterations_run;
    if (improved) {
      ++stats.improvements;
    } else if (config.kind == LocalSearchKind::kLmcts &&
               (config.scan == LmctsScan::kCriticalAllJobs ||
                config.scan == LmctsScan::kFull)) {
      // A deterministic LMCTS scan that found no improving swap will find
      // none on an identical rescan either. The stochastic variants (and
      // LM/SLM, which draw a fresh random job per iteration) keep using
      // their budget.
      break;
    }
  }
  return stats;
}

}  // namespace gridsched
