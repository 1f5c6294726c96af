#include "sim/grid_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "etc/instance.h"
#include "portfolio/member.h"

namespace gridsched {
namespace {

SimConfig fast_sim() {
  SimConfig config;
  config.horizon = 400.0;
  config.arrival_rate = 0.5;
  config.scheduler_period = 40.0;
  config.num_machines = 6;
  config.seed = 42;
  return config;
}

TEST(GridSimulator, AllJobsCompleteWithDrain) {
  GridSimulator sim(fast_sim());
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.jobs_arrived, 0);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  for (const auto& record : sim.job_records()) {
    EXPECT_GE(record.start, record.arrival);
    EXPECT_GT(record.finish, record.start);
    EXPECT_GE(record.machine, 0);
    EXPECT_EQ(record.attempts, 1);
  }
}

TEST(GridSimulator, DeterministicForSameSeedAndScheduler) {
  GridSimulator sim_a(fast_sim());
  GridSimulator sim_b(fast_sim());
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics a = sim_a.run(sched_a);
  const SimMetrics b = sim_b.run(sched_b);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_DOUBLE_EQ(a.mean_flowtime, b.mean_flowtime);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(GridSimulator, JobsNeverStartBeforeTheirActivation) {
  SimConfig config = fast_sim();
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kOlb));
  (void)sim.run(scheduler);
  for (const auto& record : sim.job_records()) {
    // A job arriving in period k is scheduled at the earliest at the next
    // activation boundary.
    const double activation =
        std::ceil(record.arrival / config.scheduler_period) *
        config.scheduler_period;
    EXPECT_GE(record.start, activation - 1e-9);
  }
}

TEST(GridSimulator, BatchesRespectPeriodBoundaries) {
  GridSimulator sim(fast_sim());
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.activations, 0);
  EXPECT_GT(metrics.mean_batch_size, 0.0);
  // Mean batch size ~ arrival_rate * period.
  EXPECT_NEAR(metrics.mean_batch_size, 0.5 * 40.0, 15.0);
}

TEST(GridSimulator, SlowdownIsAtLeastOne) {
  GridSimulator sim(fast_sim());
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  // A job can never finish faster than its ideal dedicated-best-machine
  // run, and batching adds waits, so the mean is strictly above 1.
  EXPECT_GT(metrics.mean_slowdown, 1.0);
}

TEST(GridSimulator, BetterSchedulerGivesLowerSlowdown) {
  SimConfig config = fast_sim();
  config.consistency_noise = 0.6;
  config.arrival_rate = 1.0;
  GridSimulator sim_mct(config);
  MemberBatchScheduler mct_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const double mct_slowdown = sim_mct.run(mct_sched).mean_slowdown;
  GridSimulator sim_olb(config);
  MemberBatchScheduler olb_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kOlb));
  const double olb_slowdown = sim_olb.run(olb_sched).mean_slowdown;
  EXPECT_LT(mct_slowdown, olb_slowdown);
}

TEST(GridSimulator, UtilizationIsAFraction) {
  GridSimulator sim(fast_sim());
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST(GridSimulator, LoadAwareSchedulerBeatsBlindOne) {
  // An inconsistent grid punishes OLB (ignores ETC); MCT must deliver
  // lower mean flowtime.
  SimConfig config = fast_sim();
  config.consistency_noise = 0.6;
  config.arrival_rate = 1.0;

  GridSimulator sim_mct(config);
  MemberBatchScheduler mct_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const double mct_flow = sim_mct.run(mct_sched).mean_flowtime;

  GridSimulator sim_olb(config);
  MemberBatchScheduler olb_sched(
      std::make_unique<HeuristicMember>(HeuristicKind::kOlb));
  const double olb_flow = sim_olb.run(olb_sched).mean_flowtime;

  EXPECT_LT(mct_flow, olb_flow);
}

TEST(GridSimulator, MemberBatchSchedulerRunsTheCmaEndToEnd) {
  SimConfig config = fast_sim();
  config.horizon = 150.0;
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<FlooredMember>(
          std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false)),
      StopCondition{.max_time_ms = 15.0});
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  EXPECT_GT(metrics.scheduler_cpu_ms, 0.0);
}

TEST(GridSimulator, MachineChurnRequeuesAndStillCompletes) {
  SimConfig config = fast_sim();
  config.machine_mtbf = 120.0;
  config.machine_mttr = 30.0;
  config.seed = 7;
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  // With MTBF ~ 3 periods over a 10-period horizon and 6 machines, some
  // failures are overwhelmingly likely.
  EXPECT_GT(metrics.jobs_requeued, 0);
  int retried = 0;
  for (const auto& record : sim.job_records()) {
    retried += (record.attempts > 1) ? 1 : 0;
  }
  EXPECT_GT(retried, 0);
}

TEST(GridSimulator, ChurnConfigValidation) {
  SimConfig config = fast_sim();
  config.machine_mtbf = 100.0;  // mttr left 0
  EXPECT_THROW(GridSimulator{config}, std::invalid_argument);
}

TEST(GridSimulator, BadConfigsThrow) {
  SimConfig no_machines = fast_sim();
  no_machines.num_machines = 0;
  EXPECT_THROW(GridSimulator{no_machines}, std::invalid_argument);
  SimConfig no_rate = fast_sim();
  no_rate.arrival_rate = 0.0;
  EXPECT_THROW(GridSimulator{no_rate}, std::invalid_argument);
  // MIPS ranges: non-finite or non-positive speeds, and inverted ranges.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [mips_min, mips_max] :
       std::vector<std::pair<double, double>>{{0.0, 0.0},
                                              {-500.0, -100.0},
                                              {nan, nan},
                                              {100.0, nan},
                                              {inf, inf},
                                              {100.0, inf},
                                              {500.0, 100.0}}) {
    SimConfig bad_mips = fast_sim();
    bad_mips.mips_min = mips_min;
    bad_mips.mips_max = mips_max;
    EXPECT_THROW(GridSimulator{bad_mips}, std::invalid_argument)
        << mips_min << ".." << mips_max;
  }
}

TEST(BatchSchedulers, NamesAreMeaningful) {
  MemberBatchScheduler h(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  EXPECT_EQ(h.name(), "Min-Min");
  MemberBatchScheduler c(
      std::make_unique<FlooredMember>(
          std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false)),
      StopCondition{.max_time_ms = 5.0});
  EXPECT_EQ(c.name(), "cMA");
  MemberBatchScheduler s(std::make_unique<StruggleGaMember>(StruggleGaConfig{}),
                         StopCondition{.max_time_ms = 5.0});
  EXPECT_EQ(s.name(), "StruggleGA");
}

TEST(GridSimulator, NoDrainLeavesLateArrivalsUnscheduled) {
  SimConfig config = fast_sim();
  config.drain = false;
  // A slow machine set guarantees a backlog at the horizon.
  config.mips_min = 1.0;
  config.mips_max = 2.0;
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.jobs_arrived, 0);
  // Every *scheduled* job still has consistent records.
  for (const auto& record : sim.job_records()) {
    if (record.finish >= 0) {
      EXPECT_GE(record.start, record.arrival);
      EXPECT_GT(record.finish, record.start);
    }
  }
}

/// The search members the Min-Min floor is tested with: the paper's cMA
/// and the Struggle GA baseline, each floored and scored under `weights`.
std::vector<std::unique_ptr<FlooredMember>> floored_members(
    FitnessWeights weights = {}) {
  CmaConfig cma_config;
  cma_config.weights = weights;
  StruggleGaConfig ga_config;
  ga_config.weights = weights;
  std::vector<std::unique_ptr<FlooredMember>> members;
  members.push_back(std::make_unique<FlooredMember>(
      std::make_unique<CmaMember>(cma_config, /*synchronous=*/false)));
  members.push_back(std::make_unique<FlooredMember>(
      std::make_unique<StruggleGaMember>(ga_config)));
  return members;
}

constexpr FitnessWeights kBothWeightings[] = {FitnessWeights{},
                                              FitnessWeights{.lambda = 0.0}};

TEST(FlooredMember, CmaFallbackNeverLosesToMinMinOnABatch) {
  // The floor: the batch fitness is at most Min-Min's, whatever the
  // budget, under the member's own weights.
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  for (const FitnessWeights weights : kBothWeightings) {
    const Individual minmin = make_individual(min_min(etc), etc, weights);
    for (auto& member : floored_members(weights)) {
      EXPECT_EQ(member->weights().lambda, weights.lambda);
      // A 1 ms budget starves the search on purpose.
      const MemberResult result =
          member->solve(etc, StopCondition{.max_time_ms = 1.0}, {}, 1);
      const Individual planned =
          make_individual(result.best.schedule, etc, weights);
      EXPECT_LE(planned.fitness, minmin.fitness + 1e-9)
          << member->name() << " lambda " << weights.lambda;
      EXPECT_EQ(result.best.fitness, planned.fitness) << member->name();
    }
  }
}

TEST(FlooredMember, SingleJobBatchShortcut) {
  EtcMatrix etc(1, 3, {30, 10, 20});
  for (const FitnessWeights weights : kBothWeightings) {
    for (auto& member : floored_members(weights)) {
      // The shortcut answers without searching, so even a disabled stop
      // condition (which the search members reject) is fine.
      const MemberResult result = member->solve(etc, StopCondition{}, {}, 1);
      // MCT: minimum completion time.
      EXPECT_EQ(result.best.schedule[0], 1) << member->name();
    }
  }
}

TEST(MemberBatchScheduler, EvaluationBoundedRunIsAPureFunctionOfTheSeed) {
  // Bounded by evaluations alone, the floored search rows replay every
  // job record bitwise: no wall clock reaches the schedule.
  const auto run = [](std::unique_ptr<PortfolioMember> member) {
    GridSimulator sim(fast_sim());
    MemberBatchScheduler scheduler(std::move(member),
                                   StopCondition{.max_evaluations = 300});
    (void)sim.run(scheduler);
    return sim.job_records();
  };
  for (std::size_t row = 0; row < 2; ++row) {
    const std::vector<SimJobRecord> first =
        run(std::move(floored_members()[row]));
    const std::vector<SimJobRecord> second =
        run(std::move(floored_members()[row]));
    ASSERT_EQ(first.size(), second.size());
    ASSERT_FALSE(first.empty());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].machine, second[i].machine) << "row " << row;
      EXPECT_EQ(first[i].start, second[i].start) << "row " << row;
      EXPECT_EQ(first[i].finish, second[i].finish) << "row " << row;
    }
  }
}

TEST(MemberBatchScheduler, RejectsBadBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const StopCondition& bad :
       {StopCondition{.max_time_ms = nan}, StopCondition{.max_time_ms = inf},
        StopCondition{.max_time_ms = -5.0},
        StopCondition{.max_evaluations = -1},
        StopCondition{.max_iterations = -1},
        StopCondition{.max_stagnation = -1}}) {
    try {
      MemberBatchScheduler scheduler(
          std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false),
          bad);
      ADD_FAILURE() << "accepted max_time_ms " << bad.max_time_ms;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("stop.max_"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(MemberBatchScheduler, HeuristicNeedsNoBoundButSearchMembersDo) {
  const EtcMatrix etc(3, 2, {1, 2, 3, 4, 5, 6});
  MemberBatchScheduler heuristic(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  EXPECT_TRUE(heuristic.schedule_batch(etc).complete(2));
  // An all-disabled stop would never end a search: every search member
  // refuses it instead of spinning.
  std::vector<std::unique_ptr<PortfolioMember>> searchers;
  searchers.push_back(std::make_unique<LahcMember>());
  searchers.push_back(
      std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/false));
  searchers.push_back(
      std::make_unique<CmaMember>(CmaConfig{}, /*synchronous=*/true));
  searchers.push_back(std::make_unique<StruggleGaMember>(StruggleGaConfig{}));
  for (auto& member : searchers) {
    const std::string name(member->name());
    MemberBatchScheduler scheduler(std::move(member));
    EXPECT_THROW((void)scheduler.schedule_batch(etc), std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace gridsched
