#include "ga/braun_ga.h"

#include <algorithm>
#include <stdexcept>

namespace gridsched {

BraunGa::BraunGa(BraunGaConfig config) : config_(std::move(config)) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("BraunGa: population must hold >= 2");
  }
  if (config_.elite_count < 0 ||
      config_.elite_count >= config_.population_size) {
    throw std::invalid_argument("BraunGa: bad elite count");
  }
  config_.stop.require_bound("BraunGa");
}

EvolutionResult BraunGa::run(const EtcMatrix& etc) const {
  Rng rng(config_.seed);
  EvolutionTracker tracker(config_.stop, config_.record_progress);

  // One evaluator for the whole run: it evaluates the seeds, then
  // re-targets every child.
  ScheduleEvaluator evaluator(etc);
  std::vector<Individual> population =
      seed_population(config_.population_size, config_.seeding, evaluator,
                      config_.weights, rng, config_.stop.cancel);
  tracker.count_evaluations(config_.population_size);
  for (const auto& individual : population) tracker.offer(individual);

  MutationScratch mutation_scratch;
  std::vector<Individual> next;
  next.reserve(population.size());

  while (!tracker.should_stop()) {
    next.clear();

    // Elitism: carry over the fittest unchanged.
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + config_.elite_count, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return population[a].fitness < population[b].fitness;
                      });
    for (int e = 0; e < config_.elite_count; ++e) {
      next.push_back(population[order[static_cast<std::size_t>(e)]]);
    }

    while (static_cast<int>(next.size()) < config_.population_size) {
      const Individual& parent_a = population[roulette_select(population, rng)];
      Individual child = parent_a;
      if (rng.chance(config_.crossover_rate)) {
        const Individual& parent_b =
            population[roulette_select(population, rng)];
        crossover_into(child.schedule, config_.crossover, parent_a.schedule,
                       parent_b.schedule, rng);
      }
      // One shared evaluator re-targeted per child: the gene-diff reset
      // replaces both the per-mutation full rebuild and the from-scratch
      // evaluator evaluate_individual() would construct. Same RNG draws,
      // same (canonical) objective values.
      const bool do_mutate = rng.chance(config_.mutation_rate);
      evaluator.reset_to(child.schedule);
      if (do_mutate) {
        mutate(config_.mutation, evaluator, rng, &mutation_scratch);
      }
      assign_from_evaluator(child, evaluator, config_.weights);
      tracker.count_evaluations();
      tracker.offer(child);
      next.push_back(std::move(child));
      if (tracker.should_stop()) break;
    }

    // A truncated last generation (budget hit mid-fill) is discarded; the
    // tracker already saw every evaluated child.
    if (static_cast<int>(next.size()) == config_.population_size) {
      population.swap(next);
    }
    tracker.end_iteration();
  }
  return tracker.finish();
}

}  // namespace gridsched
