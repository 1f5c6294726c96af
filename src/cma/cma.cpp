#include "cma/cma.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "heuristics/constructive.h"

namespace gridsched {

CellularMemeticAlgorithm::CellularMemeticAlgorithm(CmaConfig config)
    : config_(std::move(config)) {
  if (config_.pop_height <= 0 || config_.pop_width <= 0) {
    throw std::invalid_argument("CmaConfig: population must be non-empty");
  }
  if (config_.parents_per_recombination < 2) {
    throw std::invalid_argument("CmaConfig: need at least 2 parents");
  }
  if (!config_.stop.any_enabled()) {
    throw std::invalid_argument("CmaConfig: no stop condition enabled");
  }
}

std::vector<Individual> CellularMemeticAlgorithm::initialize_population(
    ScheduleEvaluator& evaluator, Rng& rng, std::span<const Schedule> warm,
    EvolutionTracker& tracker, bool split_streams) const {
  const EtcMatrix& etc = evaluator.etc();
  std::vector<Individual> population(
      static_cast<std::size_t>(config_.pop_height * config_.pop_width));
  if (config_.init == InitKind::kLjfrSjfr) {
    population[0].schedule = ljfr_sjfr(etc);
    for (std::size_t i = 1; i < population.size(); ++i) {
      population[i].schedule = population[0].schedule;
      population[i].schedule.perturb(config_.init_perturbation,
                                     etc.num_machines(), rng);
    }
  } else {
    for (Individual& cell : population) {
      cell.schedule = Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
    }
  }

  // Cell 0 keeps the constructive seed; warm elites fill the next cells.
  std::size_t warm_end = 1;
  for (const Schedule& schedule : warm) {
    if (warm_end >= population.size()) break;
    if (schedule.num_jobs() != etc.num_jobs() ||
        !schedule.complete(etc.num_machines())) {
      throw std::invalid_argument(
          "CellularMemeticAlgorithm: warm-start schedule does not fit the "
          "instance");
    }
    Individual& cell = population[warm_end++];
    cell.schedule = schedule;
    evaluate_individual(cell, evaluator, config_.weights);
    tracker.count_evaluations();
    tracker.offer(cell);
  }

  std::size_t next = 0;
  while (next < population.size()) {
    Individual& cell = population[next++];
    evaluator.reset_to(cell.schedule);
    std::optional<Rng> stream;
    if (split_streams) stream = rng.split();
    local_search(config_.local_search, config_.weights, evaluator,
                 stream ? *stream : rng, config_.stop.cancel);
    assign_from_evaluator(cell, evaluator, config_.weights);
    tracker.count_evaluations();
    tracker.offer(cell);
    // Poll after the first offer so a cancelled run still returns a valid
    // best; bounds the portfolio's deadline overshoot to one local-search
    // pass instead of a whole-mesh initialization.
    if (tracker.should_stop()) break;
  }
  // Cells the pass never reached: warm ones were evaluated on arrival,
  // drawn ones are evaluated here.
  for (next = std::max(next, warm_end); next < population.size(); ++next) {
    evaluator.reset_to(population[next].schedule);
    assign_from_evaluator(population[next], evaluator, config_.weights);
  }
  return population;
}

EvolutionResult CellularMemeticAlgorithm::run(const EtcMatrix& etc) const {
  return run(etc, {});
}

EvolutionResult CellularMemeticAlgorithm::run(
    const EtcMatrix& etc, std::span<const Schedule> warm) const {
  Rng rng(config_.seed);
  EvolutionTracker tracker(config_.stop, config_.record_progress);

  // --- Initialize the mesh; improve every individual by local search. ---
  // One evaluator for the whole run: it evaluates the mesh, then
  // re-targets every offspring.
  ScheduleEvaluator evaluator(etc);
  std::vector<Individual> population = initialize_population(
      evaluator, rng, warm, tracker, /*split_streams=*/false);

  const Topology topology(config_.pop_height, config_.pop_width,
                          config_.neighborhood);
  SweepOrder rec_order(config_.recombination_order, topology.size(), rng);
  SweepOrder mut_order(config_.mutation_order, topology.size(), rng);

  // Offspring pipeline shared by both loops: local-search then evaluate,
  // replace the cell if better (or unconditionally when add_only_if_better
  // is disabled — kept for ablation). The buffers below live across the
  // whole run: reset_to replays only the genes where the offspring differs
  // from the evaluator's current schedule, crossover writes into one
  // reused Schedule, and the candidate/resident swap recycles both
  // individuals' capacity — the loop allocates nothing at steady state.
  Individual candidate;
  Schedule offspring_buf;
  MutationScratch mutation_scratch;
  std::vector<const Schedule*> parent_schedules;
  auto improve_and_replace = [&](int cell, const Schedule& offspring) {
    evaluator.reset_to(offspring);
    local_search(config_.local_search, config_.weights, evaluator, rng,
                 config_.stop.cancel);
    assign_from_evaluator(candidate, evaluator, config_.weights);
    tracker.count_evaluations();
    auto& resident = population[static_cast<std::size_t>(cell)];
    if (!config_.add_only_if_better || candidate.fitness < resident.fitness) {
      std::swap(resident, candidate);
      tracker.offer(resident);
    }
  };

  while (!tracker.should_stop()) {
    // --- Recombination sweep. ---
    for (int j = 0; j < config_.recombinations_per_iteration; ++j) {
      const int cell = rec_order.current();
      const auto neighborhood = topology.neighbors(cell);
      const std::vector<int> parents =
          select_many(config_.selection, config_.parents_per_recombination,
                      neighborhood, population, rng);
      parent_schedules.clear();
      parent_schedules.reserve(parents.size());
      for (int p : parents) {
        parent_schedules.push_back(
            &population[static_cast<std::size_t>(p)].schedule);
      }
      recombine_fold_into(offspring_buf, config_.crossover, parent_schedules,
                          rng);
      improve_and_replace(cell, offspring_buf);
      rec_order.next(rng);
      if (tracker.should_stop()) break;
    }
    if (tracker.should_stop()) break;

    // --- Mutation sweep (independent order; see header note). ---
    for (int j = 0; j < config_.mutations_per_iteration; ++j) {
      const int cell = mut_order.current();
      evaluator.reset_to(population[static_cast<std::size_t>(cell)].schedule);
      mutate(config_.mutation, evaluator, rng, &mutation_scratch);
      improve_and_replace(cell, evaluator.schedule());
      mut_order.next(rng);
      if (tracker.should_stop()) break;
    }

    tracker.end_iteration();
    if (config_.observer) config_.observer(tracker.iterations(), population);
  }
  EvolutionResult result = tracker.finish();
  if (config_.keep_final_population) result.population = std::move(population);
  return result;
}

}  // namespace gridsched
