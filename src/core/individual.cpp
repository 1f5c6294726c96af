#include "core/individual.h"

namespace gridsched {

Individual make_individual(Schedule schedule, ScheduleEvaluator& evaluator,
                           const FitnessWeights& weights) {
  Individual individual;
  individual.schedule = std::move(schedule);
  evaluate_individual(individual, evaluator, weights);
  return individual;
}

Individual make_individual(Schedule schedule, const EtcMatrix& etc,
                           const FitnessWeights& weights) {
  ScheduleEvaluator evaluator(etc);
  return make_individual(std::move(schedule), evaluator, weights);
}

void evaluate_individual(Individual& individual, ScheduleEvaluator& evaluator,
                         const FitnessWeights& weights) {
  evaluator.reset(individual.schedule);
  individual.objectives = evaluator.objectives();
  individual.fitness =
      individual.objectives.fitness(weights, evaluator.num_machines());
}

void evaluate_individual(Individual& individual, const EtcMatrix& etc,
                         const FitnessWeights& weights) {
  ScheduleEvaluator evaluator(etc);
  evaluate_individual(individual, evaluator, weights);
}

Individual individual_from_evaluator(const ScheduleEvaluator& evaluator,
                                     const FitnessWeights& weights) {
  Individual individual;
  individual.schedule = evaluator.schedule();
  individual.objectives = evaluator.objectives();
  individual.fitness = individual.objectives.fitness(
      weights, evaluator.num_machines());
  return individual;
}

void assign_from_evaluator(Individual& out, ScheduleEvaluator& evaluator,
                           const FitnessWeights& weights) {
  evaluator.canonicalize();
  out.schedule = evaluator.schedule();
  out.objectives = evaluator.objectives();
  out.fitness = out.objectives.fitness(weights, evaluator.num_machines());
}

}  // namespace gridsched
