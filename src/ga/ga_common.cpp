#include "ga/ga_common.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gridsched {

std::vector<Individual> seed_population(int size, const GaSeeding& seeding,
                                        ScheduleEvaluator& evaluator,
                                        const FitnessWeights& weights,
                                        Rng& rng,
                                        const CancellationToken& cancel) {
  if (size <= 0) throw std::invalid_argument("seed_population: empty");
  const EtcMatrix& etc = evaluator.etc();
  std::vector<Individual> population;
  population.reserve(static_cast<std::size_t>(size));
  for (HeuristicKind kind : seeding.heuristic_seeds) {
    if (static_cast<int>(population.size()) >= size) break;
    if (cancel.cancelled()) break;  // random fill is all the budget allows
    const Schedule seed = kind == HeuristicKind::kMinMin
                              ? min_min(etc, cancel)
                              : construct_schedule(kind, etc, rng);
    population.push_back(make_individual(seed, evaluator, weights));
  }
  while (static_cast<int>(population.size()) < size) {
    population.push_back(make_individual(
        Schedule::random(etc.num_jobs(), etc.num_machines(), rng), evaluator,
        weights));
  }
  return population;
}

std::size_t roulette_select(std::span<const Individual> population, Rng& rng) {
  double worst = -std::numeric_limits<double>::infinity();
  for (const auto& individual : population) {
    worst = std::max(worst, individual.fitness);
  }
  // epsilon keeps the worst individual selectable and the wheel non-empty
  // when all fitnesses are equal.
  const double epsilon = 1e-9 * std::max(1.0, std::abs(worst));
  double total = 0.0;
  for (const auto& individual : population) {
    total += worst - individual.fitness + epsilon;
  }
  double ticket = rng.uniform(0.0, total);
  for (std::size_t i = 0; i < population.size(); ++i) {
    ticket -= worst - population[i].fitness + epsilon;
    if (ticket <= 0.0) return i;
  }
  return population.size() - 1;  // numeric edge: land on the last slot
}

std::size_t best_index(std::span<const Individual> population) {
  return static_cast<std::size_t>(std::distance(
      population.begin(),
      std::min_element(population.begin(), population.end(),
                       [](const Individual& a, const Individual& b) {
                         return a.fitness < b.fitness;
                       })));
}

std::size_t worst_index(std::span<const Individual> population) {
  return static_cast<std::size_t>(std::distance(
      population.begin(),
      std::max_element(population.begin(), population.end(),
                       [](const Individual& a, const Individual& b) {
                         return a.fitness < b.fitness;
                       })));
}

std::size_t most_similar_index(std::span<const Individual> population,
                               const Schedule& candidate) {
  std::size_t arg = 0;
  int best_distance = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < population.size(); ++i) {
    const int d = population[i].schedule.hamming_distance(candidate);
    if (d < best_distance) {
      best_distance = d;
      arg = i;
    }
  }
  return arg;
}

}  // namespace gridsched
