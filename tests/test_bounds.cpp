#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bounds/lower_bound.h"
#include "cma/cma.h"
#include "core/evaluator.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"
#include "simplex_oracle.h"

namespace gridsched {
namespace {

TEST(Bounds, HandComputedTinyInstance) {
  //          m0   m1
  // job 0     2    4
  // job 1     3    1
  // job 2     5    2
  EtcMatrix etc(3, 2, {2, 4, 3, 1, 5, 2});
  EXPECT_DOUBLE_EQ(ready_time_bound(etc), 0.0);
  // min per job: 2, 1, 2 -> job bound 2; load bound (2+1+2)/2 = 2.5.
  EXPECT_DOUBLE_EQ(job_lower_bound(etc), 2.0);
  EXPECT_DOUBLE_EQ(load_lower_bound(etc), 2.5);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 2.5);
  EXPECT_DOUBLE_EQ(flowtime_lower_bound(etc), 5.0);
}

TEST(Bounds, ReadyTimesRaiseTheFloor) {
  EtcMatrix etc(1, 2, {10, 10});
  etc.set_ready_time(0, 100.0);
  // The job can run on m1 (completion 10), but m0 still finishes its
  // backlog at 100 -> makespan >= 100.
  EXPECT_DOUBLE_EQ(ready_time_bound(etc), 100.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 100.0);
}

TEST(Bounds, JobBoundDominatesWhenOneJobIsHuge) {
  EtcMatrix etc(2, 2, {1, 1, 1'000, 2'000});
  EXPECT_DOUBLE_EQ(job_lower_bound(etc), 1'000.0);
  EXPECT_DOUBLE_EQ(load_lower_bound(etc), 500.5);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 1'000.0);
}

std::string param_name(const ::testing::TestParamInfo<InstanceSpec>& info) {
  std::string name = info.param.name();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class BoundsSuiteTest : public ::testing::TestWithParam<InstanceSpec> {};

INSTANTIATE_TEST_SUITE_P(AllTwelveClasses, BoundsSuiteTest,
                         ::testing::ValuesIn(braun_benchmark_suite()),
                         param_name);

TEST_P(BoundsSuiteTest, EverySchedulerRespectsTheBounds) {
  InstanceSpec spec = GetParam();
  spec.num_jobs = 96;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  // The Lagrangian-dual bound dominates the cheap floors, so assert
  // against the combined bound — the strictest floor the library states.
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kPivotLimit);
  const double makespan_floor = bound.value;
  const double flowtime_floor = flowtime_lower_bound(etc);
  ASSERT_GT(makespan_floor, 0.0);
  EXPECT_GE(bound.value, makespan_lower_bound(etc));

  ScheduleEvaluator eval(etc);
  Rng rng(3);
  for (HeuristicKind kind : all_heuristics()) {
    eval.reset(construct_schedule(kind, etc, rng));
    EXPECT_GE(eval.makespan(), makespan_floor * (1 - 1e-9))
        << heuristic_name(kind);
    EXPECT_GE(eval.flowtime(), flowtime_floor * (1 - 1e-12))
        << heuristic_name(kind);
  }

  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 1'000};
  config.seed = 9;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_GE(result.best.objectives.makespan, makespan_floor * (1 - 1e-9));
  EXPECT_GE(result.best.objectives.flowtime, flowtime_floor * (1 - 1e-12));
}

// ---------------------------------------------------------------------------
// The dense two-phase simplex the dual bound is checked against
// (tests/simplex_oracle.h; test-side only).

TEST(Simplex, SolvesAKnownTinyLp) {
  // min -x - 2y  s.t.  x + y <= 3, x <= 2, y <= 2  ->  x=1, y=2, obj -5.
  oracle::LinearProgram lp;
  lp.objective = {-1.0, -2.0};
  lp.constraints.push_back({{1.0, 1.0}, oracle::Relation::kLessEqual, 3.0});
  lp.constraints.push_back({{1.0, 0.0}, oracle::Relation::kLessEqual, 2.0});
  lp.constraints.push_back({{0.0, 1.0}, oracle::Relation::kLessEqual, 2.0});
  const auto result = oracle::solve_simplex(lp);
  ASSERT_EQ(result.status, oracle::SimplexStatus::kOptimal);
  EXPECT_NEAR(result.objective, -5.0, 1e-9);
  ASSERT_EQ(result.x.size(), 2u);
  EXPECT_NEAR(result.x[0], 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 2.0, 1e-9);
}

TEST(Simplex, HandlesEqualityAndGreaterEqualRows) {
  // min x + y  s.t.  x + y = 2, x >= 0.5  ->  x=0.5 (any split), obj 2.
  oracle::LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 1.0}, oracle::Relation::kEqual, 2.0});
  lp.constraints.push_back({{1.0, 0.0}, oracle::Relation::kGreaterEqual, 0.5});
  const auto result = oracle::solve_simplex(lp);
  ASSERT_EQ(result.status, oracle::SimplexStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  oracle::LinearProgram lp;
  lp.objective = {1.0};
  lp.constraints.push_back({{1.0}, oracle::Relation::kGreaterEqual, 2.0});
  lp.constraints.push_back({{1.0}, oracle::Relation::kLessEqual, 1.0});
  EXPECT_EQ(oracle::solve_simplex(lp).status,
            oracle::SimplexStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x  s.t.  x >= 1: x can grow forever.
  oracle::LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraints.push_back({{1.0}, oracle::Relation::kGreaterEqual, 1.0});
  EXPECT_EQ(oracle::solve_simplex(lp).status,
            oracle::SimplexStatus::kUnbounded);
}

TEST(Simplex, PivotBudgetIsAFirstClassStatus) {
  oracle::LinearProgram lp;
  lp.objective = {-1.0, -2.0};
  lp.constraints.push_back({{1.0, 1.0}, oracle::Relation::kLessEqual, 3.0});
  lp.constraints.push_back({{1.0, 0.0}, oracle::Relation::kLessEqual, 2.0});
  oracle::SimplexOptions options;
  options.max_pivots = 0;
  EXPECT_EQ(oracle::solve_simplex(lp, options).status,
            oracle::SimplexStatus::kPivotLimit);
}

// ---------------------------------------------------------------------------
// The combined makespan bound (cheap floors + Lagrangian dual).

/// Exhaustive R||Cmax optimum: all m^n assignments. Only for tiny n.
double exhaustive_optimal_makespan(const EtcMatrix& etc) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  std::vector<int> assign(static_cast<std::size_t>(n), 0);
  std::vector<double> load(static_cast<std::size_t>(m));
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    for (int k = 0; k < m; ++k) {
      load[static_cast<std::size_t>(k)] = etc.ready_time(k);
    }
    for (int j = 0; j < n; ++j) {
      load[static_cast<std::size_t>(assign[static_cast<std::size_t>(j)])] +=
          etc(j, assign[static_cast<std::size_t>(j)]);
    }
    best = std::min(best, *std::max_element(load.begin(), load.end()));
    int digit = 0;
    while (digit < n && ++assign[static_cast<std::size_t>(digit)] == m) {
      assign[static_cast<std::size_t>(digit)] = 0;
      ++digit;
    }
    if (digit == n) break;
  }
  return best;
}

TEST(DualBound, NeverExceedsTheExhaustiveOptimum) {
  // 6 jobs x 3 machines: 729 schedules, brute-forceable, across all 12
  // Braun classes. The dual value and the combined bound must both sit at
  // or below the true optimum.
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 6;
    spec.num_machines = 3;
    const EtcMatrix etc = generate_instance(spec);
    const double optimal = exhaustive_optimal_makespan(etc);
    const auto bound = bounds::makespan_bound(etc);
    ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kPivotLimit)
        << spec.name();
    EXPECT_LE(bound.lp, optimal * (1 + 1e-9)) << spec.name();
    EXPECT_LE(bound.value, optimal * (1 + 1e-9)) << spec.name();
    EXPECT_GT(bound.value, 0.0) << spec.name();
  }
}

TEST(DualBound, ReachesTheLpOptimumFromBelow) {
  // Weak duality keeps every iterate at or below LP*; the default budget
  // must also close to within 1e-4 of it. Checked against the simplex
  // oracle on all 12 classes at two shapes.
  for (const auto& [jobs, machines] : {std::pair{40, 7}, std::pair{64, 8}}) {
    for (InstanceSpec spec : braun_benchmark_suite()) {
      spec.num_jobs = jobs;
      spec.num_machines = machines;
      const EtcMatrix etc = generate_instance(spec);
      const auto lp = oracle::lp_relaxation_optimum(etc);
      ASSERT_EQ(lp.status, oracle::SimplexStatus::kOptimal) << spec.name();
      const auto bound = bounds::makespan_bound(etc);
      EXPECT_LE(bound.lp, lp.optimum * (1 + 1e-9))
          << spec.name() << " " << jobs << "x" << machines;
      EXPECT_GE(bound.lp, lp.optimum * (1 - 1e-4))
          << spec.name() << " " << jobs << "x" << machines;
    }
  }
}

TEST(DualBound, MatchesTheLoadBoundOnUniformInstances) {
  // All-equal ETC: the LP splits every job evenly, T = n·e/m exactly, and
  // uniform λ — the ascent's first iterate — already attains it.
  EtcMatrix etc(8, 4, std::vector<double>(32, 5.0));
  const auto bound = bounds::makespan_bound(etc);
  EXPECT_NEAR(bound.lp, 10.0, 1e-9);
  EXPECT_NEAR(bound.value, 10.0, 1e-9);
}

TEST(DualBound, AllZeroInstanceBoundsAtZero) {
  // g is 0 for every λ: the ascent stops after one evaluation instead of
  // normalizing a zero supergradient.
  const EtcMatrix etc(3, 2);
  const auto bound = bounds::makespan_bound(etc);
  EXPECT_EQ(bound.lp, 0.0);
  EXPECT_EQ(bound.value, 0.0);
  EXPECT_EQ(bound.lp_pivots, 1);
}

TEST(DualBound, DominatesTheLoadAndReadyBounds) {
  // Uniform λ — the ascent's first iterate — is the load bound, so the
  // dual never sits below it. A single-machine λ is the ready bound: a
  // vertex the ascent only approaches (measured up to ~3e-3 short), so
  // the combined max(cheap, dual) is what dominates it exactly, and it
  // still tracks LP* to 1e-4 (the dual CAN sit below the per-job bound —
  // next test). Checked across all classes at an odd shape, with
  // backlogs on some machines so the ready bound binds on the
  // non-consistent classes.
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 40;
    spec.num_machines = 7;
    EtcMatrix etc = generate_instance(spec);
    const double load = load_lower_bound(etc);
    etc.set_ready_time(2, 0.5 * load);
    if (spec.consistency != Consistency::kConsistent) {
      etc.set_ready_time(5, 2.0 * load);
    }
    const auto bound = bounds::makespan_bound(etc);
    const auto lp = oracle::lp_relaxation_optimum(etc);
    ASSERT_EQ(lp.status, oracle::SimplexStatus::kOptimal) << spec.name();
    EXPECT_GE(bound.lp, load_lower_bound(etc) * (1 - 1e-9)) << spec.name();
    EXPECT_LE(bound.lp, lp.optimum * (1 + 1e-9)) << spec.name();
    EXPECT_GE(bound.value, ready_time_bound(etc)) << spec.name();
    EXPECT_GE(bound.value, lp.optimum * (1 - 1e-4)) << spec.name();
  }
}

TEST(DualBound, CanSitBelowTheJobBoundAndTheMaxStillWins) {
  // One unit job on two machines: the relaxation splits it (LP* = 0.5,
  // attained by uniform λ) but no real schedule finishes before 1.0 —
  // which is why the combined bound takes max(cheap, dual).
  EtcMatrix etc(1, 2, {1.0, 1.0});
  const auto bound = bounds::makespan_bound(etc);
  EXPECT_DOUBLE_EQ(bound.lp, 0.5);
  EXPECT_DOUBLE_EQ(bound.value, 1.0);
}

TEST(DualBound, TightensTheCheapBoundOnHeterogeneousMachines) {
  // Three jobs that run 100x slower on m1: the load bound pretends the
  // fast machine can absorb everything, the dual knows the split is lossy.
  EtcMatrix etc(3, 2, {10, 1000, 10, 1000, 10, 1000});
  const auto bound = bounds::makespan_bound(etc);
  EXPECT_GT(bound.lp, makespan_lower_bound(etc) * 1.5);
  // Exhaustive optimum at this size confirms validity.
  EXPECT_LE(bound.value,
            exhaustive_optimal_makespan(etc) * (1 + 1e-9));
}

TEST(DualBound, IsBitwiseDeterministic) {
  // The ascent runs IEEE basic operations only, in a fixed order: two
  // runs must agree bitwise, iteration count included.
  InstanceSpec spec;
  spec.num_jobs = 48;
  spec.num_machines = 6;
  const EtcMatrix etc = generate_instance(spec);
  const auto a = bounds::makespan_bound(etc);
  const auto b = bounds::makespan_bound(etc);
  EXPECT_EQ(a.lp, b.lp);        // bitwise, not NEAR
  EXPECT_EQ(a.value, b.value);  // bitwise
  EXPECT_EQ(a.lp_pivots, b.lp_pivots);
}

TEST(DualBound, BestValueNeverDecreasesAsTheBudgetGrows) {
  // The step rule never looks at the budget, so a larger budget extends
  // the same walk: the best iterate can only improve.
  InstanceSpec spec;
  spec.consistency = Consistency::kSemiConsistent;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  double previous = 0.0;
  for (const int budget : {1, 2, 10, 150, 1'000, 2'000, 5'000}) {
    bounds::LpOptions options;
    options.max_pivots = budget;
    const auto bound = bounds::makespan_bound(etc, options);
    EXPECT_EQ(bound.lp_status, bounds::LpBoundStatus::kPivotLimit);
    EXPECT_EQ(bound.lp_pivots, budget);
    EXPECT_GE(bound.lp, previous) << "budget " << budget;
    previous = bound.lp;
  }
  // One iteration evaluates uniform λ only: exactly the load bound.
  bounds::LpOptions one;
  one.max_pivots = 1;
  EXPECT_NEAR(bounds::makespan_bound(etc, one).lp, load_lower_bound(etc),
              load_lower_bound(etc) * 1e-12);
}

TEST(DualBound, NonPositiveBudgetReturnsTheCheapFloor) {
  InstanceSpec spec;
  spec.num_jobs = 24;
  spec.num_machines = 4;
  const EtcMatrix etc = generate_instance(spec);
  const double cheap = makespan_lower_bound(etc);
  for (const int budget : {0, -1}) {
    bounds::LpOptions options;
    options.max_pivots = budget;
    const auto result = bounds::makespan_bound(etc, options);
    EXPECT_EQ(result.lp_status, bounds::LpBoundStatus::kDisabled);
    EXPECT_EQ(result.lp, 0.0);
    EXPECT_EQ(result.lp_pivots, 0);
    EXPECT_DOUBLE_EQ(result.value, cheap);
  }
}

TEST(DualBound, PaperShapeSmoke) {
  // The paper's 512x16 shape, where a dense simplex tableau would need
  // tens of MiB: the default budget lifts the bound clear of the cheap
  // floor on every consistent and semi-consistent class. Its run time is
  // the BM_MakespanBound row of bench/micro_ops, gated in CI.
  for (InstanceSpec spec : braun_benchmark_suite()) {
    const EtcMatrix etc = generate_instance(spec);  // 512x16 by default
    ASSERT_EQ(etc.num_jobs(), 512);
    ASSERT_EQ(etc.num_machines(), 16);
    const auto bound = bounds::makespan_bound(etc);
    EXPECT_EQ(bound.lp_pivots, bounds::LpOptions{}.max_pivots);
    EXPECT_GE(bound.value, bound.cheap) << spec.name();
    if (spec.consistency != Consistency::kInconsistent) {
      EXPECT_GE(bound.value, 1.2 * bound.cheap) << spec.name();
    }
  }
}

TEST(LpBound, GapHelperDefinition) {
  EXPECT_DOUBLE_EQ(bounds::optimality_gap_pct(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(bounds::optimality_gap_pct(100.0, 100.0), 0.0);
  EXPECT_TRUE(std::isnan(bounds::optimality_gap_pct(100.0, 0.0)));
  EXPECT_TRUE(std::isnan(bounds::optimality_gap_pct(100.0, -1.0)));
}

TEST(Bounds, LoadBoundTightForUniformInstances) {
  // All ETC equal: LB = n*e/m; a balanced schedule achieves it exactly
  // when n is a multiple of m.
  EtcMatrix etc(8, 4, std::vector<double>(32, 5.0));
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 10.0);
  Schedule balanced(8);
  for (JobId j = 0; j < 8; ++j) balanced[j] = j % 4;
  ScheduleEvaluator eval(etc);
  eval.reset(balanced);
  EXPECT_DOUBLE_EQ(eval.makespan(), 10.0);
}

}  // namespace
}  // namespace gridsched
