#include "core/fitness.h"

#include <gtest/gtest.h>

#include "core/individual.h"
#include "etc/instance.h"

namespace gridsched {
namespace {

TEST(Fitness, CombineIsWeightedSum) {
  const FitnessWeights w{0.75};
  EXPECT_DOUBLE_EQ(w.combine(100.0, 40.0), 85.0);
}

TEST(Fitness, LambdaOneIsPureMakespan) {
  const FitnessWeights w{1.0};
  EXPECT_DOUBLE_EQ(w.combine(100.0, 40.0), 100.0);
}

TEST(Fitness, LambdaZeroIsPureMeanFlowtime) {
  const FitnessWeights w{0.0};
  EXPECT_DOUBLE_EQ(w.combine(100.0, 40.0), 40.0);
}

TEST(Fitness, DefaultLambdaMatchesPaper) {
  const FitnessWeights w{};
  EXPECT_DOUBLE_EQ(w.lambda, 0.75);
}

TEST(Objectives, MeanFlowtimeDividesByMachines) {
  const Objectives o{50.0, 160.0};
  EXPECT_DOUBLE_EQ(o.mean_flowtime(16), 10.0);
}

TEST(Objectives, FitnessUsesMeanFlowtime) {
  const Objectives o{100.0, 320.0};
  const FitnessWeights w{0.75};
  // 0.75*100 + 0.25*(320/8) = 75 + 10
  EXPECT_DOUBLE_EQ(o.fitness(w, 8), 85.0);
}

TEST(Individual, MakeIndividualEvaluates) {
  InstanceSpec spec;
  spec.num_jobs = 30;
  spec.num_machines = 4;
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(2);
  const Individual ind = make_individual(
      Schedule::random(30, 4, rng), etc, FitnessWeights{});
  EXPECT_GT(ind.objectives.makespan, 0.0);
  EXPECT_GT(ind.objectives.flowtime, ind.objectives.makespan);
  EXPECT_DOUBLE_EQ(ind.fitness,
                   ind.objectives.fitness(FitnessWeights{}, 4));
}

TEST(Individual, BetterThanComparesFitness) {
  Individual a;
  Individual b;
  a.fitness = 1.0;
  b.fitness = 2.0;
  EXPECT_TRUE(a.better_than(b));
  EXPECT_FALSE(b.better_than(a));
  EXPECT_FALSE(a.better_than(a));
}

TEST(Individual, DefaultFitnessIsInfinite) {
  const Individual fresh;
  Individual real;
  real.fitness = 1e18;
  EXPECT_TRUE(real.better_than(fresh));
}

TEST(Individual, FromEvaluatorMatchesMakeIndividual) {
  InstanceSpec spec;
  spec.num_jobs = 20;
  spec.num_machines = 3;
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(4);
  const Schedule s = Schedule::random(20, 3, rng);
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  const Individual from_eval =
      individual_from_evaluator(eval, FitnessWeights{});
  const Individual direct = make_individual(s, etc, FitnessWeights{});
  EXPECT_EQ(from_eval.schedule, direct.schedule);
  EXPECT_DOUBLE_EQ(from_eval.fitness, direct.fitness);
  EXPECT_DOUBLE_EQ(from_eval.objectives.makespan,
                   direct.objectives.makespan);
}

TEST(Individual, ReusedEvaluatorMatchesFreshEvaluatorBitwise) {
  // The solver runs evaluate their seeds through one run-scoped evaluator.
  // Whatever that evaluator held — dirty closed-form scalars from applied
  // moves and swaps, a gene-diff re-target — the result must be bitwise
  // the fresh-evaluator one.
  InstanceSpec spec;
  spec.num_jobs = 96;
  spec.num_machines = 8;
  spec.consistency = Consistency::kInconsistent;
  EtcMatrix etc = generate_instance(spec);
  etc.set_ready_time(3, 1234.5);
  const FitnessWeights weights{};
  Rng rng(11);
  ScheduleEvaluator reused(etc);
  reused.reset(Schedule::random(96, 8, rng));
  for (int round = 0; round < 20; ++round) {
    for (int edit = 0; edit < 16; ++edit) {
      const JobId a = rng.uniform_int(0, 95);
      const JobId b = rng.uniform_int(0, 95);
      if (edit % 2 == 0 || reused.schedule()[a] == reused.schedule()[b]) {
        const MachineId shift = 1 + rng.uniform_int(0, 6);
        reused.apply_move(a, (reused.schedule()[a] + shift) % 8);
      } else {
        reused.apply_swap(a, b);
      }
    }
    Schedule sibling = reused.schedule();
    sibling.perturb(0.05, 8, rng);
    reused.reset_to(sibling);

    const Schedule target = Schedule::random(96, 8, rng);
    const Individual through_reused = make_individual(target, reused, weights);
    const Individual fresh = make_individual(target, etc, weights);
    EXPECT_EQ(through_reused.schedule, fresh.schedule);
    EXPECT_EQ(through_reused.objectives.makespan, fresh.objectives.makespan);
    EXPECT_EQ(through_reused.objectives.flowtime, fresh.objectives.flowtime);
    EXPECT_EQ(through_reused.fitness, fresh.fitness);

    Individual in_place;
    in_place.schedule = target;
    reused.apply_move(0, (reused.schedule()[0] + 1) % 8);
    evaluate_individual(in_place, reused, weights);
    EXPECT_EQ(in_place.objectives.makespan, fresh.objectives.makespan);
    EXPECT_EQ(in_place.objectives.flowtime, fresh.objectives.flowtime);
    EXPECT_EQ(in_place.fitness, fresh.fitness);
  }
}

}  // namespace
}  // namespace gridsched
