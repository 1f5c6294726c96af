#include "cma/sync_cma.h"

#include <gtest/gtest.h>

#include <vector>

#include "cma/cma.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

EtcMatrix small_instance() {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  return generate_instance(spec);
}

CmaConfig fast_config(std::int64_t iterations = 12) {
  CmaConfig config;
  config.stop = StopCondition{.max_iterations = iterations};
  config.seed = 777;
  return config;
}

TEST(SyncCma, ProducesCompleteScheduleWithConsistentObjectives) {
  const EtcMatrix etc = small_instance();
  const auto result = SynchronousCellularMa(fast_config()).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  const Individual check =
      make_individual(result.best.schedule, etc, FitnessWeights{});
  EXPECT_DOUBLE_EQ(check.fitness, result.best.fitness);
}

TEST(SyncCma, ImprovesOnTheSeed) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result = SynchronousCellularMa(fast_config(40)).run(etc);
  EXPECT_LT(result.best.fitness, seed.fitness);
}

TEST(SyncCma, DeterministicForFixedSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = SynchronousCellularMa(fast_config()).run(etc);
  const auto b = SynchronousCellularMa(fast_config()).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(SyncCma, BitwiseIdenticalAcrossThreadCounts) {
  // The signature property of the synchronous engine: per-cell RNG streams
  // make the parallel schedule irrelevant to the result.
  const EtcMatrix etc = small_instance();
  const auto sequential = SynchronousCellularMa(fast_config(), 0).run(etc);
  const auto two_threads = SynchronousCellularMa(fast_config(), 2).run(etc);
  const auto eight_threads = SynchronousCellularMa(fast_config(), 8).run(etc);
  EXPECT_EQ(sequential.best.schedule, two_threads.best.schedule);
  EXPECT_EQ(sequential.best.schedule, eight_threads.best.schedule);
  EXPECT_DOUBLE_EQ(sequential.best.fitness, eight_threads.best.fitness);
  EXPECT_EQ(sequential.evaluations, eight_threads.evaluations);
}

TEST(SyncCma, WarmFinalPopulationIsIdenticalAcrossThreadCounts) {
  // The engine keeps one workspace per pool lane, so at 1 and 3 threads a
  // lane evolves many cells and lane 0's evaluator also ran the init pass.
  // Every cell of the final mesh must still match the sequential run's.
  const EtcMatrix etc = small_instance();
  Rng rng(4242);
  std::vector<Schedule> warm;
  for (int i = 0; i < 8; ++i) {
    warm.push_back(
        Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  }
  CmaConfig config = fast_config();
  config.keep_final_population = true;
  const auto sequential = SynchronousCellularMa(config, 0).run(etc, warm);
  ASSERT_EQ(sequential.population.size(),
            static_cast<std::size_t>(config.pop_height * config.pop_width));
  for (const int threads : {1, 3}) {
    const auto parallel = SynchronousCellularMa(config, threads).run(etc, warm);
    ASSERT_EQ(parallel.population.size(), sequential.population.size());
    for (std::size_t cell = 0; cell < sequential.population.size(); ++cell) {
      EXPECT_EQ(parallel.population[cell].schedule,
                sequential.population[cell].schedule)
          << "threads " << threads << ", cell " << cell;
      EXPECT_EQ(parallel.population[cell].fitness,
                sequential.population[cell].fitness)
          << "threads " << threads << ", cell " << cell;
    }
    EXPECT_EQ(parallel.best.schedule, sequential.best.schedule);
    EXPECT_EQ(parallel.best.fitness, sequential.best.fitness);
    EXPECT_EQ(parallel.evaluations, sequential.evaluations);
  }
}

TEST(SyncCma, EvaluationCountIsOneGenerationPerIteration) {
  const EtcMatrix etc = small_instance();
  const auto result = SynchronousCellularMa(fast_config(5)).run(etc);
  // 25 init + 5 generations x 25 cells.
  EXPECT_EQ(result.evaluations, 25 + 5 * 25);
  EXPECT_EQ(result.iterations, 5);
}

TEST(SyncCma, BestFitnessNeverWorsensAcrossGenerations) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(30);
  config.record_progress = true;
  const auto result = SynchronousCellularMa(config).run(etc);
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_LE(result.progress[i].best_fitness,
              result.progress[i - 1].best_fitness + 1e-9);
  }
}

TEST(SyncCma, ObserverSeesEveryGeneration) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(7);
  int calls = 0;
  config.observer = [&](std::int64_t iteration,
                        std::span<const Individual> population) {
    ++calls;
    EXPECT_EQ(population.size(), 25u);
    EXPECT_EQ(iteration, calls);
  };
  (void)SynchronousCellularMa(config).run(etc);
  EXPECT_EQ(calls, 7);
}

TEST(SyncCma, InvalidConfigsThrow) {
  CmaConfig no_stop;
  no_stop.stop = StopCondition{};
  EXPECT_THROW(SynchronousCellularMa{no_stop}, std::invalid_argument);
  EXPECT_THROW(SynchronousCellularMa(fast_config(), -1),
               std::invalid_argument);
}

TEST(SyncCma, ComparableQualityToAsyncAtEqualEvaluations) {
  // Not a strict dominance claim — just that the synchronous variant is a
  // working optimizer in the same league, not a broken port.
  const EtcMatrix etc = small_instance();
  CmaConfig sync_config = fast_config(40);  // 25 + 1000 evals
  const auto sync_result = SynchronousCellularMa(sync_config).run(etc);

  CmaConfig async_config;
  async_config.stop = StopCondition{.max_evaluations = 1'025};
  async_config.seed = 777;
  const auto async_result = CellularMemeticAlgorithm(async_config).run(etc);

  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  EXPECT_LT(sync_result.best.fitness, seed.fitness);
  EXPECT_LT(sync_result.best.fitness, 2.0 * async_result.best.fitness);
}

}  // namespace
}  // namespace gridsched
