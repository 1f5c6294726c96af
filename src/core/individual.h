// An evaluated solution: the unit every evolutionary algorithm in the
// library (cMA, Braun GA, steady-state GA, Struggle GA) manipulates.
#pragma once

#include <limits>

#include "core/evaluator.h"
#include "core/fitness.h"
#include "core/schedule.h"

namespace gridsched {

struct Individual {
  Schedule schedule;
  Objectives objectives;
  double fitness = std::numeric_limits<double>::infinity();

  /// Minimization: lower fitness is better.
  [[nodiscard]] bool better_than(const Individual& other) const noexcept {
    return fitness < other.fitness;
  }
};

/// Fully evaluates `schedule` through `evaluator` (a full reset(), so the
/// result is bitwise what a fresh evaluator gives, whatever the
/// evaluator held before) and packages it. O(n log n). Solver runs pass
/// their one run-scoped evaluator; the forms taking an EtcMatrix build a
/// throwaway one for one-off callers.
[[nodiscard]] Individual make_individual(Schedule schedule,
                                         ScheduleEvaluator& evaluator,
                                         const FitnessWeights& weights);
[[nodiscard]] Individual make_individual(Schedule schedule,
                                         const EtcMatrix& etc,
                                         const FitnessWeights& weights);

/// Re-evaluates an individual in place (after its schedule was mutated).
void evaluate_individual(Individual& individual, ScheduleEvaluator& evaluator,
                         const FitnessWeights& weights);
void evaluate_individual(Individual& individual, const EtcMatrix& etc,
                         const FitnessWeights& weights);

/// Copies the evaluator's current state (schedule + objectives) into an
/// Individual without re-evaluating.
[[nodiscard]] Individual individual_from_evaluator(
    const ScheduleEvaluator& evaluator, const FitnessWeights& weights);

/// In-place variant for the offspring pipeline: canonicalizes the
/// evaluator (so the published objectives are bitwise identical to a
/// from-scratch evaluation) and overwrites `out`, reusing its schedule
/// capacity — allocation-free at steady state.
void assign_from_evaluator(Individual& out, ScheduleEvaluator& evaluator,
                           const FitnessWeights& weights);

}  // namespace gridsched
