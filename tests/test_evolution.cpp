#include "core/evolution.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "cma/cma.h"
#include "cma/sync_cma.h"
#include "ga/braun_ga.h"
#include "ga/steady_state_ga.h"

namespace gridsched {
namespace {

Individual with_fitness(double f) {
  Individual ind;
  ind.fitness = f;
  return ind;
}

TEST(StopCondition, AnyEnabledDetectsEachBound) {
  EXPECT_FALSE(StopCondition{}.any_enabled());
  EXPECT_TRUE(StopCondition{.max_time_ms = 1}.any_enabled());
  EXPECT_TRUE(StopCondition{.max_evaluations = 1}.any_enabled());
  EXPECT_TRUE(StopCondition{.max_iterations = 1}.any_enabled());
  EXPECT_TRUE(StopCondition{.max_stagnation = 1}.any_enabled());
}

TEST(StopCondition, ValidateNamesTheBadField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto message = [](const StopCondition& stop) -> std::string {
    try {
      stop.validate("Owner");
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  for (const double bad : {nan, inf, -inf, -5.0}) {
    EXPECT_NE(message(StopCondition{.max_time_ms = bad})
                  .find("Owner: stop.max_time_ms"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(message(StopCondition{.max_evaluations = -1})
                .find("stop.max_evaluations"),
            std::string::npos);
  EXPECT_NE(message(StopCondition{.max_iterations = -1})
                .find("stop.max_iterations"),
            std::string::npos);
  EXPECT_NE(message(StopCondition{.max_stagnation = -1})
                .find("stop.max_stagnation"),
            std::string::npos);
  // Disabled (0) and finite bounds pass; only require_bound insists on one.
  EXPECT_EQ(message(StopCondition{}), "");
  EXPECT_EQ(message(StopCondition{.max_time_ms = 25.0}), "");
  EXPECT_THROW(StopCondition{}.require_bound("Owner"), std::invalid_argument);
  EXPECT_NO_THROW(StopCondition{.max_evaluations = 1}.require_bound("Owner"));
}

TEST(StopCondition, EnginesRejectNonFiniteOrNegativeBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const StopCondition& bad :
       {StopCondition{.max_time_ms = nan}, StopCondition{.max_time_ms = inf},
        StopCondition{.max_time_ms = -5.0},
        StopCondition{.max_time_ms = 0.0},
        StopCondition{.max_evaluations = -1}}) {
    CmaConfig cma;
    cma.stop = bad;
    EXPECT_THROW(CellularMemeticAlgorithm{cma}, std::invalid_argument);
    EXPECT_THROW((SynchronousCellularMa{cma, 0}), std::invalid_argument);
    SteadyStateGaConfig ga;
    ga.stop = bad;
    EXPECT_THROW(SteadyStateGa{ga}, std::invalid_argument);
    BraunGaConfig braun;
    braun.stop = bad;
    EXPECT_THROW(BraunGa{braun}, std::invalid_argument);
  }
}

TEST(EvolutionTracker, OfferTracksTheBest) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 100}, false);
  EXPECT_TRUE(tracker.offer(with_fitness(10.0)));
  EXPECT_FALSE(tracker.offer(with_fitness(12.0)));
  EXPECT_TRUE(tracker.offer(with_fitness(9.0)));
  EXPECT_DOUBLE_EQ(tracker.best().fitness, 9.0);
}

TEST(EvolutionTracker, EqualFitnessDoesNotReplace) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 100}, false);
  Individual first = with_fitness(5.0);
  first.objectives.makespan = 1.0;
  Individual second = with_fitness(5.0);
  second.objectives.makespan = 2.0;
  tracker.offer(first);
  EXPECT_FALSE(tracker.offer(second));
  EXPECT_DOUBLE_EQ(tracker.best().objectives.makespan, 1.0);
}

TEST(EvolutionTracker, EvaluationBudgetStops) {
  EvolutionTracker tracker(StopCondition{.max_evaluations = 10}, false);
  EXPECT_FALSE(tracker.should_stop());
  tracker.count_evaluations(9);
  EXPECT_FALSE(tracker.should_stop());
  tracker.count_evaluations();
  EXPECT_TRUE(tracker.should_stop());
}

TEST(EvolutionTracker, IterationBudgetStops) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 2}, false);
  tracker.end_iteration();
  EXPECT_FALSE(tracker.should_stop());
  tracker.end_iteration();
  EXPECT_TRUE(tracker.should_stop());
}

TEST(EvolutionTracker, StagnationCountsIterationsWithoutImprovement) {
  EvolutionTracker tracker(StopCondition{.max_stagnation = 3}, false);
  tracker.offer(with_fitness(10.0));
  tracker.end_iteration();  // improved this iteration -> stagnation 0
  tracker.end_iteration();  // 1
  tracker.end_iteration();  // 2
  EXPECT_FALSE(tracker.should_stop());
  tracker.end_iteration();  // 3
  EXPECT_TRUE(tracker.should_stop());
}

TEST(EvolutionTracker, ImprovementResetsStagnation) {
  EvolutionTracker tracker(StopCondition{.max_stagnation = 2}, false);
  tracker.offer(with_fitness(10.0));
  tracker.end_iteration();
  tracker.end_iteration();  // stagnation 1
  tracker.offer(with_fitness(5.0));
  tracker.end_iteration();  // reset to 0
  tracker.end_iteration();  // 1
  EXPECT_FALSE(tracker.should_stop());
}

TEST(EvolutionTracker, ProgressRecordsImprovementsWhenEnabled) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 10}, true);
  tracker.offer(with_fitness(10.0));
  tracker.offer(with_fitness(8.0));
  tracker.offer(with_fitness(9.0));  // not an improvement, not sampled
  auto result = tracker.finish();
  ASSERT_EQ(result.progress.size(), 2u);
  EXPECT_DOUBLE_EQ(result.progress[0].best_fitness, 10.0);
  EXPECT_DOUBLE_EQ(result.progress[1].best_fitness, 8.0);
}

TEST(EvolutionTracker, ProgressDisabledRecordsNothing) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 10}, false);
  tracker.offer(with_fitness(10.0));
  tracker.end_iteration();
  EXPECT_TRUE(tracker.finish().progress.empty());
}

TEST(EvolutionTracker, FinishPackagesCounters) {
  EvolutionTracker tracker(StopCondition{.max_iterations = 10}, false);
  tracker.offer(with_fitness(3.0));
  tracker.count_evaluations(7);
  tracker.end_iteration();
  tracker.end_iteration();
  const auto result = tracker.finish();
  EXPECT_DOUBLE_EQ(result.best.fitness, 3.0);
  EXPECT_EQ(result.evaluations, 7);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GE(result.elapsed_ms, 0.0);
}

TEST(StopCondition, CancellationTokenCountsAsEnabled) {
  CancellationSource source;
  StopCondition stop;
  stop.cancel = source.token();
  EXPECT_TRUE(stop.any_enabled());
  EXPECT_FALSE(StopCondition{}.cancel.valid());
}

TEST(EvolutionTracker, CancellationStopsTheLoop) {
  CancellationSource source;
  StopCondition stop;
  stop.cancel = source.token();
  EvolutionTracker tracker(stop, false);
  EXPECT_FALSE(tracker.should_stop());
  source.request_cancel();
  EXPECT_TRUE(tracker.should_stop());
}

TEST(EvolutionTracker, DeadlineTokenExpires) {
  CancellationSource source;
  source.set_deadline_in_ms(1.0);
  StopCondition stop;
  stop.cancel = source.token();
  EvolutionTracker tracker(stop, false);
  Stopwatch watch;
  while (watch.elapsed_ms() < 2.0) {
  }
  EXPECT_TRUE(tracker.should_stop());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(CancellationToken, HugeDeadlineSaturatesToNoDeadline) {
  // 1e13 ms is past the int64 nanosecond range: the deadline must mean
  // "never", not wrap around into one that already passed.
  CancellationSource source;
  source.set_deadline_in_ms(1e13);
  EXPECT_FALSE(source.token().cancelled());
  source.set_deadline_in_ms(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(source.token().cancelled());
  source.set_deadline_in_ms(-1.0);
  EXPECT_TRUE(source.token().cancelled());
}

TEST(CancellationToken, DefaultTokenNeverCancels) {
  const CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
}

TEST(EvolutionTracker, TimeBudgetEventuallyStops) {
  EvolutionTracker tracker(StopCondition{.max_time_ms = 1.0}, false);
  // Busy-wait just past the budget.
  Stopwatch watch;
  while (watch.elapsed_ms() < 2.0) {
  }
  EXPECT_TRUE(tracker.should_stop());
}

}  // namespace
}  // namespace gridsched
