#include "cma/cma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cma/sync_cma.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

EtcMatrix small_instance(Consistency consistency = Consistency::kConsistent) {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  spec.consistency = consistency;
  return generate_instance(spec);
}

/// Evaluation-bounded config so tests are timing-independent.
CmaConfig fast_config(std::int64_t evaluations = 2'000) {
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = evaluations};
  config.seed = 12345;
  return config;
}

TEST(Cma, ProducesCompleteScheduleWithConsistentObjectives) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config()).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  const Individual check =
      make_individual(result.best.schedule, etc, FitnessWeights{});
  EXPECT_DOUBLE_EQ(check.fitness, result.best.fitness);
  EXPECT_DOUBLE_EQ(check.objectives.makespan, result.best.objectives.makespan);
  EXPECT_DOUBLE_EQ(check.objectives.flowtime, result.best.objectives.flowtime);
}

TEST(Cma, ImprovesOnTheLjfrSjfrSeed) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result = CellularMemeticAlgorithm(fast_config(4'000)).run(etc);
  EXPECT_LT(result.best.fitness, seed.fitness);
}

TEST(Cma, BeatsPureRandomSearchAtEqualEvaluations) {
  const EtcMatrix etc = small_instance(Consistency::kInconsistent);
  const std::int64_t budget = 3'000;
  const auto result =
      CellularMemeticAlgorithm(fast_config(budget)).run(etc);

  Rng rng(777);
  double best_random = std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < budget; ++i) {
    const auto ind = make_individual(
        Schedule::random(etc.num_jobs(), etc.num_machines(), rng), etc,
        FitnessWeights{});
    best_random = std::min(best_random, ind.fitness);
  }
  EXPECT_LT(result.best.fitness, best_random);
}

TEST(Cma, DeterministicForFixedSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = CellularMemeticAlgorithm(fast_config()).run(etc);
  const auto b = CellularMemeticAlgorithm(fast_config()).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Cma, DifferentSeedsExploreDifferently) {
  const EtcMatrix etc = small_instance();
  CmaConfig c1 = fast_config();
  CmaConfig c2 = fast_config();
  c2.seed = 54321;
  const auto a = CellularMemeticAlgorithm(c1).run(etc);
  const auto b = CellularMemeticAlgorithm(c2).run(etc);
  EXPECT_NE(a.best.schedule, b.best.schedule);
}

TEST(Cma, RespectsEvaluationBudget) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config(500)).run(etc);
  // The engine checks the budget between offspring, so overshoot is at
  // most one offspring.
  EXPECT_GE(result.evaluations, 500);
  EXPECT_LE(result.evaluations, 502);
}

TEST(Cma, RespectsIterationBudget) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_iterations = 3};
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_EQ(result.iterations, 3);
  // 25 initial + 3 * (25 recombinations + 12 mutations).
  EXPECT_EQ(result.evaluations, 25 + 3 * 37);
}

TEST(Cma, RespectsWallClockBudget) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_time_ms = 50.0};
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_LT(result.elapsed_ms, 500.0);  // generous CI slack
}

TEST(Cma, ProgressTraceIsMonotoneNonIncreasing) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(3'000);
  config.record_progress = true;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  ASSERT_FALSE(result.progress.empty());
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_LE(result.progress[i].best_fitness,
              result.progress[i - 1].best_fitness + 1e-9);
    EXPECT_GE(result.progress[i].time_ms,
              result.progress[i - 1].time_ms - 1e-9);
  }
  EXPECT_DOUBLE_EQ(result.progress.back().best_fitness, result.best.fitness);
}

TEST(Cma, ProgressOffByDefaultKeepsTraceEmpty) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config(600)).run(etc);
  EXPECT_TRUE(result.progress.empty());
}

TEST(Cma, AllNeighborhoodsRun) {
  const EtcMatrix etc = small_instance();
  for (NeighborhoodKind kind :
       {NeighborhoodKind::kPanmictic, NeighborhoodKind::kL5,
        NeighborhoodKind::kL9, NeighborhoodKind::kC9,
        NeighborhoodKind::kC13}) {
    CmaConfig config = fast_config(800);
    config.neighborhood = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << neighborhood_name(kind);
  }
}

TEST(Cma, AllSweepOrdersRun) {
  const EtcMatrix etc = small_instance();
  for (SweepKind kind : {SweepKind::kFixedLineSweep,
                         SweepKind::kFixedRandomSweep,
                         SweepKind::kNewRandomSweep}) {
    CmaConfig config = fast_config(800);
    config.recombination_order = kind;
    config.mutation_order = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << sweep_name(kind);
  }
}

TEST(Cma, AllLocalSearchMethodsRun) {
  const EtcMatrix etc = small_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kNone, LocalSearchKind::kLocalMove,
        LocalSearchKind::kSteepestLocalMove, LocalSearchKind::kLmcts}) {
    CmaConfig config = fast_config(800);
    config.local_search.kind = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << local_search_name(kind);
  }
}

TEST(Cma, RandomInitAlsoWorks) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(1'000);
  config.init = InitKind::kRandom;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
}

TEST(Cma, InitialPopulationSeedsWithLjfrSjfr) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.local_search.kind = LocalSearchKind::kNone;  // cells as drawn
  const CellularMemeticAlgorithm cma(config);
  Rng rng(1);
  ScheduleEvaluator evaluator(etc);
  EvolutionTracker tracker(config.stop, false);
  const auto population =
      cma.initialize_population(evaluator, rng, {}, tracker, false);
  ASSERT_EQ(population.size(), 25u);
  EXPECT_EQ(population[0].schedule, ljfr_sjfr(etc));
  EXPECT_EQ(tracker.evaluations(), 25);
  // The rest are perturbed copies, not duplicates of the seed.
  int identical = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    identical += (population[i].schedule == population[0].schedule) ? 1 : 0;
  }
  EXPECT_EQ(identical, 0);
}

/// Every cell of a final population carries the fitness a fresh
/// evaluation of its schedule gives, bitwise.
void expect_truly_evaluated(const std::vector<Individual>& population,
                            const EtcMatrix& etc, const std::string& label) {
  ASSERT_EQ(population.size(), 25u) << label;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const Individual fresh =
        make_individual(population[i].schedule, etc, FitnessWeights{});
    EXPECT_EQ(population[i].fitness, fresh.fitness) << label << " cell " << i;
    EXPECT_EQ(population[i].objectives.makespan, fresh.objectives.makespan)
        << label << " cell " << i;
    EXPECT_EQ(population[i].objectives.flowtime, fresh.objectives.flowtime)
        << label << " cell " << i;
  }
}

TEST(Cma, InitCutShortStillEvaluatesEveryCell) {
  // A one-evaluation budget and a pre-cancelled token both stop the init
  // pass after its first cell; the cells it never reached (warm or drawn)
  // must still carry real fitness, on both engines.
  const EtcMatrix etc = small_instance(Consistency::kInconsistent);
  Rng warm_rng(3);
  std::vector<Schedule> warm;
  for (int e = 0; e < 3; ++e) {
    warm.push_back(Schedule::random(etc.num_jobs(), etc.num_machines(),
                                    warm_rng));
  }
  CancellationSource cancelled;
  cancelled.request_cancel();
  for (const bool pre_cancelled : {false, true}) {
    for (const std::size_t warm_count : {std::size_t{0}, warm.size()}) {
      CmaConfig config = fast_config(pre_cancelled ? 2'000 : 1);
      if (pre_cancelled) config.stop.cancel = cancelled.token();
      config.keep_final_population = true;
      const std::span<const Schedule> cells(warm.data(), warm_count);
      const std::string label =
          std::string(pre_cancelled ? "cancelled" : "1-eval") +
          " warm=" + std::to_string(warm_count);
      const auto async = CellularMemeticAlgorithm(config).run(etc, cells);
      EXPECT_EQ(async.iterations, 0) << label;
      expect_truly_evaluated(async.population, etc, "async " + label);
      const auto sync = SynchronousCellularMa(config).run(etc, cells);
      EXPECT_EQ(sync.iterations, 0) << label;
      expect_truly_evaluated(sync.population, etc, "sync " + label);
    }
  }
}

TEST(Cma, AddOnlyIfBetterKeepsPopulationFromWorsening) {
  // With replacement gated on improvement, the best individual can only
  // improve; sanity-check by comparing against the seed's fitness at a few
  // budget checkpoints.
  const EtcMatrix etc = small_instance();
  double previous = std::numeric_limits<double>::infinity();
  for (std::int64_t budget : {200, 800, 2'400}) {
    const auto result =
        CellularMemeticAlgorithm(fast_config(budget)).run(etc);
    EXPECT_LE(result.best.fitness, previous + 1e-9);
    previous = result.best.fitness;
  }
}

TEST(Cma, InvalidConfigsThrow) {
  CmaConfig no_stop;
  no_stop.stop = StopCondition{};
  EXPECT_THROW(CellularMemeticAlgorithm{no_stop}, std::invalid_argument);

  CmaConfig one_parent = fast_config();
  one_parent.parents_per_recombination = 1;
  EXPECT_THROW(CellularMemeticAlgorithm{one_parent}, std::invalid_argument);

  CmaConfig empty_pop = fast_config();
  empty_pop.pop_height = 0;
  EXPECT_THROW(CellularMemeticAlgorithm{empty_pop}, std::invalid_argument);
}

TEST(Cma, TinyInstancesDoNotCrash) {
  InstanceSpec spec;
  spec.num_jobs = 2;
  spec.num_machines = 2;
  const EtcMatrix etc = generate_instance(spec);
  const auto result = CellularMemeticAlgorithm(fast_config(300)).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(2));
}

TEST(Cma, ObserverSeesEveryIteration) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_iterations = 6};
  int calls = 0;
  config.observer = [&](std::int64_t iteration,
                        std::span<const Individual> population) {
    ++calls;
    EXPECT_EQ(iteration, calls);
    EXPECT_EQ(population.size(), 25u);
    for (const auto& individual : population) {
      EXPECT_TRUE(individual.schedule.complete(etc.num_machines()));
    }
  };
  (void)CellularMemeticAlgorithm(config).run(etc);
  EXPECT_EQ(calls, 6);
}

TEST(Cma, ReadyTimesAreRespected) {
  // Batch-mode deployment: machines carry backlogs. The cMA must produce
  // schedules whose objectives account for them (makespan can never fall
  // below the largest backlog).
  EtcMatrix etc = small_instance();
  etc.set_ready_time(0, 1e9);
  const auto result = CellularMemeticAlgorithm(fast_config(800)).run(etc);
  EXPECT_GE(result.best.objectives.makespan, 1e9);
  // And the optimizer should learn to avoid the blocked machine almost
  // entirely (any job there only raises completion beyond the backlog).
  int on_blocked = 0;
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    on_blocked += (result.best.schedule[j] == 0) ? 1 : 0;
  }
  EXPECT_LT(on_blocked, etc.num_jobs() / 4);
}

TEST(Cma, WorksOnEveryBenchmarkClass) {
  for (const InstanceSpec& base : braun_benchmark_suite()) {
    InstanceSpec spec = base;
    spec.num_jobs = 48;
    spec.num_machines = 6;
    const EtcMatrix etc = generate_instance(spec);
    const auto result = CellularMemeticAlgorithm(fast_config(600)).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(6)) << base.name();
    const Individual seed =
        make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
    EXPECT_LE(result.best.fitness, seed.fitness) << base.name();
  }
}

}  // namespace
}  // namespace gridsched
