// Shared building blocks of the three baseline GAs the paper compares
// against (Tables 2, 3 and 5). None of them is cellular: their populations
// are unstructured (panmictic), which is exactly the property the cMA's
// structured mesh is meant to improve on.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/evolution.h"
#include "core/fitness.h"
#include "core/individual.h"
#include "etc/etc_matrix.h"
#include "heuristics/constructive.h"

namespace gridsched {

/// How a GA population is seeded.
struct GaSeeding {
  /// Heuristics whose solutions are injected once each (the remainder of
  /// the population is uniform random). Braun et al. seed with Min-Min.
  std::vector<HeuristicKind> heuristic_seeds;
};

/// Builds a population of `size` individuals for `evaluator.etc()`: the
/// heuristic seeds first, then uniform random schedules, each evaluated
/// through the run's `evaluator`. `cancel` keeps seeding inside an
/// activation budget: once it fires, remaining heuristic seeds are skipped
/// (the Min-Min seed itself runs budget-honoring) and the population is
/// completed with cheap random schedules, so the caller always gets `size`
/// evaluated individuals.
[[nodiscard]] std::vector<Individual> seed_population(
    int size, const GaSeeding& seeding, ScheduleEvaluator& evaluator,
    const FitnessWeights& weights, Rng& rng,
    const CancellationToken& cancel = {});

/// Roulette-wheel selection for minimization: each individual gets weight
/// (worst - fitness + epsilon), so the best individual has the largest
/// share. Returns an index into `population`.
[[nodiscard]] std::size_t roulette_select(std::span<const Individual> population,
                                          Rng& rng);

/// Index of the fittest individual.
[[nodiscard]] std::size_t best_index(std::span<const Individual> population);

/// Index of the least fit individual.
[[nodiscard]] std::size_t worst_index(std::span<const Individual> population);

/// Index of the individual whose schedule is closest (minimum Hamming
/// distance) to `candidate` — the Struggle GA replacement target.
[[nodiscard]] std::size_t most_similar_index(
    std::span<const Individual> population, const Schedule& candidate);

}  // namespace gridsched
