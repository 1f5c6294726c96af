#include "ga/steady_state_ga.h"

#include <numeric>
#include <stdexcept>

namespace gridsched {

std::string_view replacement_name(ReplacementPolicy p) noexcept {
  switch (p) {
    case ReplacementPolicy::kWorst: return "ReplaceWorst";
    case ReplacementPolicy::kRandom: return "ReplaceRandom";
    case ReplacementPolicy::kOldest: return "ReplaceOldest";
    case ReplacementPolicy::kMostSimilar: return "Struggle";
    case ReplacementPolicy::kDeterministicCrowding:
      return "DeterministicCrowding";
  }
  return "?";
}

SteadyStateGa::SteadyStateGa(SteadyStateGaConfig config)
    : config_(std::move(config)) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("SteadyStateGa: population must hold >= 2");
  }
  config_.stop.require_bound("SteadyStateGa");
}

EvolutionResult SteadyStateGa::run(const EtcMatrix& etc) const {
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

  // Tournament selection expects candidate *indices*.
  std::vector<int> all_indices(population.size());
  std::iota(all_indices.begin(), all_indices.end(), 0);
  // Birth step of each slot, for kOldest.
  std::vector<std::int64_t> birth(population.size(), 0);
  std::int64_t step_counter = 0;

  MutationScratch mutation_scratch;
  Individual child;  // reused across steps; copy-assigns recycle capacity
  while (!tracker.should_stop()) {
    for (int step = 0; step < config_.steps_per_iteration; ++step) {
      ++step_counter;
      const int pa =
          select_one(config_.selection, all_indices, population, rng);
      int pb = pa;
      child = population[static_cast<std::size_t>(pa)];
      if (rng.chance(config_.crossover_rate)) {
        pb = select_one(config_.selection, all_indices, population, rng);
        crossover_into(
            child.schedule, config_.crossover,
            population[static_cast<std::size_t>(pa)].schedule,
            population[static_cast<std::size_t>(pb)].schedule, rng);
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

      std::size_t victim = 0;
      switch (config_.replacement) {
        case ReplacementPolicy::kWorst:
          victim = worst_index(population);
          break;
        case ReplacementPolicy::kRandom:
          victim = static_cast<std::size_t>(rng.bounded(population.size()));
          break;
        case ReplacementPolicy::kOldest: {
          victim = 0;
          for (std::size_t i = 1; i < population.size(); ++i) {
            if (birth[i] < birth[victim]) victim = i;
          }
          break;
        }
        case ReplacementPolicy::kMostSimilar:
          victim = most_similar_index(population, child.schedule);
          break;
        case ReplacementPolicy::kDeterministicCrowding: {
          const auto& sa = population[static_cast<std::size_t>(pa)].schedule;
          const auto& sb = population[static_cast<std::size_t>(pb)].schedule;
          victim = (child.schedule.hamming_distance(sa) <=
                    child.schedule.hamming_distance(sb))
                       ? static_cast<std::size_t>(pa)
                       : static_cast<std::size_t>(pb);
          break;
        }
      }
      if (child.fitness < population[victim].fitness) {
        population[victim] = child;  // copy: `child` keeps its buffers
        birth[victim] = step_counter;
        tracker.offer(population[victim]);
      }
      if (tracker.should_stop()) break;
    }
    tracker.end_iteration();
  }
  return tracker.finish();
}

}  // namespace gridsched
