#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "etc/instance.h"
#include "ga/braun_ga.h"
#include "ga/ga_common.h"
#include "ga/steady_state_ga.h"
#include "ga/struggle_ga.h"

namespace gridsched {
namespace {

EtcMatrix small_instance() {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  return generate_instance(spec);
}

// --- Shared helpers. --------------------------------------------------------

TEST(GaCommon, SeedPopulationInjectsHeuristicsThenRandom) {
  const EtcMatrix etc = small_instance();
  Rng rng(1);
  ScheduleEvaluator evaluator(etc);
  const GaSeeding seeding{{HeuristicKind::kMinMin, HeuristicKind::kLjfrSjfr}};
  const auto population =
      seed_population(10, seeding, evaluator, FitnessWeights{}, rng);
  ASSERT_EQ(population.size(), 10u);
  EXPECT_EQ(population[0].schedule, min_min(etc));
  EXPECT_EQ(population[1].schedule, ljfr_sjfr(etc));
  for (const auto& individual : population) {
    EXPECT_TRUE(individual.schedule.complete(etc.num_machines()));
    EXPECT_LT(individual.fitness, std::numeric_limits<double>::infinity());
  }
}

TEST(GaCommon, SeedPopulationCancelledFallsBackToRandomFill) {
  const EtcMatrix etc = small_instance();
  Rng rng(3);
  const GaSeeding seeding{{HeuristicKind::kMinMin, HeuristicKind::kLjfrSjfr}};
  CancellationSource source;
  source.request_cancel();
  // A fired budget skips the heuristic seeds entirely; the population is
  // still full-size and fully evaluated (random schedules are cheap).
  ScheduleEvaluator evaluator(etc);
  const auto population = seed_population(
      6, seeding, evaluator, FitnessWeights{}, rng, source.token());
  ASSERT_EQ(population.size(), 6u);
  for (const auto& individual : population) {
    EXPECT_TRUE(individual.schedule.complete(etc.num_machines()));
    EXPECT_LT(individual.fitness, std::numeric_limits<double>::infinity());
  }
}

TEST(GaCommon, SeedPopulationTruncatesExcessSeeds) {
  const EtcMatrix etc = small_instance();
  Rng rng(2);
  const GaSeeding seeding{
      {HeuristicKind::kMinMin, HeuristicKind::kMaxMin, HeuristicKind::kMct}};
  ScheduleEvaluator evaluator(etc);
  const auto population =
      seed_population(2, seeding, evaluator, FitnessWeights{}, rng);
  EXPECT_EQ(population.size(), 2u);
}

TEST(GaCommon, RouletteFavorsFitterIndividuals) {
  std::vector<Individual> population(4);
  population[0].fitness = 1.0;   // best
  population[1].fitness = 100.0;
  population[2].fitness = 100.0;
  population[3].fitness = 100.0;
  Rng rng(3);
  int best_picked = 0;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    best_picked += (roulette_select(population, rng) == 0) ? 1 : 0;
  }
  // Weights: best ~ 99+eps, others ~ eps; best dominates.
  EXPECT_GT(best_picked, draws * 9 / 10);
}

TEST(GaCommon, RouletteUniformWhenAllEqual) {
  std::vector<Individual> population(4);
  for (auto& ind : population) ind.fitness = 5.0;
  Rng rng(4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[roulette_select(population, rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(GaCommon, BestAndWorstIndices) {
  std::vector<Individual> population(3);
  population[0].fitness = 5.0;
  population[1].fitness = 1.0;
  population[2].fitness = 9.0;
  EXPECT_EQ(best_index(population), 1u);
  EXPECT_EQ(worst_index(population), 2u);
}

TEST(GaCommon, MostSimilarUsesHammingDistance) {
  std::vector<Individual> population(3);
  population[0].schedule = Schedule(6, 0);
  population[1].schedule = Schedule(6, 1);
  population[2].schedule = Schedule(6, 2);
  Schedule probe(6, 1);
  probe[0] = 0;  // distance 1 to population[1]
  EXPECT_EQ(most_similar_index(population, probe), 1u);
}

// --- Engines. ----------------------------------------------------------------

template <typename Config>
Config eval_bounded(std::int64_t evals) {
  Config config;
  config.stop = StopCondition{.max_evaluations = evals};
  config.seed = 2024;
  return config;
}

TEST(BraunGa, ImprovesOnItsMinMinSeed) {
  const EtcMatrix etc = small_instance();
  const Individual seed = make_individual(min_min(etc), etc, FitnessWeights{});
  const auto result =
      BraunGa(eval_bounded<BraunGaConfig>(6'000)).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  EXPECT_LE(result.best.fitness, seed.fitness);
}

TEST(BraunGa, DeterministicInSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = BraunGa(eval_bounded<BraunGaConfig>(2'000)).run(etc);
  const auto b = BraunGa(eval_bounded<BraunGaConfig>(2'000)).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(BraunGa, StagnationStopsTheRun) {
  const EtcMatrix etc = small_instance();
  BraunGaConfig config;
  config.stop = StopCondition{.max_evaluations = 1'000'000,
                              .max_stagnation = 3};
  config.seed = 7;
  const auto result = BraunGa(config).run(etc);
  // Far fewer evaluations than the budget: stagnation kicked in.
  EXPECT_LT(result.evaluations, 1'000'000);
}

TEST(BraunGa, InvalidConfigsThrow) {
  BraunGaConfig tiny;
  tiny.population_size = 1;
  EXPECT_THROW(BraunGa{tiny}, std::invalid_argument);
  BraunGaConfig bad_elite;
  bad_elite.elite_count = 500;
  EXPECT_THROW(BraunGa{bad_elite}, std::invalid_argument);
  BraunGaConfig no_stop;
  no_stop.stop = StopCondition{};
  EXPECT_THROW(BraunGa{no_stop}, std::invalid_argument);
}

TEST(SteadyStateGa, ImprovesOnItsSeeds) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result =
      SteadyStateGa(eval_bounded<SteadyStateGaConfig>(4'000)).run(etc);
  EXPECT_LE(result.best.fitness, seed.fitness);
}

TEST(SteadyStateGa, DeterministicInSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = SteadyStateGa(eval_bounded<SteadyStateGaConfig>(1'500)).run(etc);
  const auto b = SteadyStateGa(eval_bounded<SteadyStateGaConfig>(1'500)).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
}

TEST(StruggleGa, ImprovesOnItsSeeds) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result =
      StruggleGa(eval_bounded<StruggleGaConfig>(4'000)).run(etc);
  EXPECT_LE(result.best.fitness, seed.fitness);
}

TEST(StruggleGa, DeterministicInSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = StruggleGa(eval_bounded<StruggleGaConfig>(1'500)).run(etc);
  const auto b = StruggleGa(eval_bounded<StruggleGaConfig>(1'500)).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
}

TEST(AllGas, BeatRandomSearchAtEqualEvaluations) {
  const EtcMatrix etc = small_instance();
  const std::int64_t budget = 3'000;

  Rng rng(555);
  double best_random = std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < budget; ++i) {
    best_random = std::min(
        best_random,
        make_individual(
            Schedule::random(etc.num_jobs(), etc.num_machines(), rng), etc,
            FitnessWeights{})
            .fitness);
  }

  EXPECT_LT(BraunGa(eval_bounded<BraunGaConfig>(budget)).run(etc).best.fitness,
            best_random);
  EXPECT_LT(
      SteadyStateGa(eval_bounded<SteadyStateGaConfig>(budget)).run(etc)
          .best.fitness,
      best_random);
  EXPECT_LT(
      StruggleGa(eval_bounded<StruggleGaConfig>(budget)).run(etc).best.fitness,
      best_random);
}

TEST(AllGas, ProgressTracesAreMonotone) {
  const EtcMatrix etc = small_instance();
  auto check = [](const EvolutionResult& result) {
    ASSERT_FALSE(result.progress.empty());
    for (std::size_t i = 1; i < result.progress.size(); ++i) {
      ASSERT_LE(result.progress[i].best_fitness,
                result.progress[i - 1].best_fitness + 1e-9);
    }
  };
  auto braun_config = eval_bounded<BraunGaConfig>(2'000);
  braun_config.record_progress = true;
  check(BraunGa(braun_config).run(etc));

  auto ss_config = eval_bounded<SteadyStateGaConfig>(2'000);
  ss_config.record_progress = true;
  check(SteadyStateGa(ss_config).run(etc));

  auto struggle_config = eval_bounded<StruggleGaConfig>(2'000);
  struggle_config.record_progress = true;
  check(StruggleGa(struggle_config).run(etc));
}

}  // namespace
}  // namespace gridsched
