#include "service/grid_scheduling_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "etc/instance.h"
#include "service/sharded_driver.h"
#include "sim/grid_simulator.h"
#include "workload/workload_source.h"

namespace gridsched {
namespace {

EtcMatrix small_instance(int jobs, int machines, std::uint64_t seed = 3) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  spec.seed = seed;
  return generate_instance(spec);
}

/// Deterministic service: generous wall budget, hard evaluation bound.
ServiceConfig deterministic_config(int shards) {
  ServiceConfig config;
  config.num_shards = shards;
  config.total_budget_ms = 60'000.0;
  config.threads = 2;
  config.member_stop = StopCondition{.max_evaluations = 150};
  config.seed = 11;
  return config;
}

/// How many jobs the plan runs on each shard's machines (identity context:
/// machine id = column).
std::vector<int> plan_jobs_per_shard(const GridSchedulingService& service,
                                     const Schedule& plan) {
  std::vector<int> jobs(static_cast<std::size_t>(service.num_shards()), 0);
  for (JobId job = 0; job < plan.num_jobs(); ++job) {
    jobs[static_cast<std::size_t>(service.shard_of_machine(plan[job]))] += 1;
  }
  return jobs;
}

/// Jobs each shard raced, from the service's books.
std::vector<int> scheduled_per_shard(const GridSchedulingService& service) {
  std::vector<int> jobs;
  for (const ShardStats& stat : service.shard_stats()) {
    jobs.push_back(stat.jobs_scheduled);
  }
  return jobs;
}

/// The canonical dying-queue shape: every job is fastest on machine 0, so
/// an affinity router piles the whole batch onto machine 0's shard while
/// the rest of the pool idles — the fixture behind the rebalancing and
/// drain-steal tests.
EtcMatrix dying_queue_etc(int jobs = 12, int machines = 4) {
  EtcMatrix etc(jobs, machines);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      etc.set(job, machine, machine == 0 ? 10.0 : 40.0);
    }
  }
  return etc;
}

ShardSnapshot snapshot(int shard, std::vector<int> columns, double ready_sum,
                       double routed_work = 0.0) {
  ShardSnapshot s;
  s.shard = shard;
  s.columns = std::move(columns);
  s.ready_sum = ready_sum;
  s.routed_work = routed_work;
  return s;
}

// ---------------------------------------------------------------- router --

TEST(RoutingPolicy, RoundRobinCyclesOverAvailableShards) {
  ShardRouter router(RoutingKind::kRoundRobin);
  const EtcMatrix etc(4, 3);
  const std::vector<ShardSnapshot> shards = {
      snapshot(0, {0}, 0.0), snapshot(2, {1, 2}, 0.0)};
  EXPECT_EQ(router.route(0, etc, shards), 0u);
  EXPECT_EQ(router.route(1, etc, shards), 1u);
  EXPECT_EQ(router.route(2, etc, shards), 0u);
  EXPECT_EQ(router.route(3, etc, shards), 1u);
}

TEST(RoutingPolicy, LeastBacklogIsDeterministicGivenFixedBacklogs) {
  ShardRouter router(RoutingKind::kLeastBacklog);
  const EtcMatrix etc(1, 4);
  const std::vector<ShardSnapshot> shards = {
      snapshot(0, {0}, 30.0), snapshot(1, {1}, 10.0), snapshot(2, {2}, 20.0)};
  // Smallest ready-time sum wins; repeated calls with the same snapshots
  // give the same answer (the policy is stateless).
  EXPECT_EQ(router.route(0, etc, shards), 1u);
  EXPECT_EQ(router.route(0, etc, shards), 1u);
}

TEST(RoutingPolicy, LeastBacklogCountsWorkRoutedThisActivation) {
  ShardRouter router(RoutingKind::kLeastBacklog);
  const EtcMatrix etc(1, 2);
  // Shard 1 has the lower ready sum but already absorbed 15s of routed
  // work this activation, so shard 0 is now the lighter queue.
  const std::vector<ShardSnapshot> shards = {
      snapshot(0, {0}, 12.0, 0.0), snapshot(1, {1}, 5.0, 15.0)};
  EXPECT_EQ(router.route(0, etc, shards), 0u);
}

TEST(RoutingPolicy, LeastBacklogTieBreaksTowardLowerIndex) {
  ShardRouter router(RoutingKind::kLeastBacklog);
  const EtcMatrix etc(1, 2);
  const std::vector<ShardSnapshot> shards = {
      snapshot(3, {0}, 7.0), snapshot(5, {1}, 7.0)};
  EXPECT_EQ(router.route(0, etc, shards), 0u);
}

TEST(RoutingPolicy, BestFitPicksTheShardWithTheLowestEtc) {
  ShardRouter router(RoutingKind::kBestFit);
  EtcMatrix etc(2, 4);
  etc.set(0, 0, 9.0);
  etc.set(0, 1, 8.0);
  etc.set(0, 2, 1.0);  // job 0 is fastest on column 2 (shard 1)
  etc.set(0, 3, 7.0);
  etc.set(1, 0, 2.0);  // job 1 is fastest on column 0 (shard 0)
  etc.set(1, 1, 6.0);
  etc.set(1, 2, 5.0);
  etc.set(1, 3, 4.0);
  const std::vector<ShardSnapshot> shards = {
      snapshot(0, {0, 1}, 0.0), snapshot(1, {2, 3}, 0.0)};
  EXPECT_EQ(router.route(0, etc, shards), 1u);
  EXPECT_EQ(router.route(1, etc, shards), 0u);
}

TEST(RoutingPolicy, DeadlineAwareBalancesAffinityAgainstBacklog) {
  ShardRouter router(RoutingKind::kDeadlineAware);
  EtcMatrix etc(1, 2);
  etc.set(0, 0, 2.0);   // shard 0 is faster for the job...
  etc.set(0, 1, 10.0);  // ...but shard 1 is idle
  // A deadline job on a classless grid minimizes per-machine backlog plus
  // best ETC. Light backlog: affinity wins (5/1 + 2 = 7 < 0 + 10).
  const RoutedJob urgent(0, -1, 100.0);
  const std::vector<ShardSnapshot> light = {
      snapshot(0, {0}, 5.0), snapshot(1, {1}, 0.0)};
  EXPECT_EQ(router.route(urgent, etc, light), 0u);
  // Deep backlog on the fast shard: the idle shard's completion wins
  // (20/1 + 2 = 22 > 0 + 10).
  const std::vector<ShardSnapshot> deep = {
      snapshot(0, {0}, 20.0), snapshot(1, {1}, 0.0)};
  EXPECT_EQ(router.route(urgent, etc, deep), 1u);
  // A best-effort job spreads by least-backlog, affinity or not.
  EXPECT_EQ(router.route(0, etc, light), 1u);
}

TEST(RoutingPolicy, EveryKindHasANameAndRoutesInRange) {
  const EtcMatrix etc(1, 2);
  const std::vector<ShardSnapshot> shards = {snapshot(0, {0}, 1.0),
                                             snapshot(1, {1}, 0.0)};
  EXPECT_EQ(all_routing_kinds().size(), 5u);
  for (const RoutingKind kind : all_routing_kinds()) {
    EXPECT_NE(routing_name(kind), "?");
    ShardRouter router(kind);
    EXPECT_LT(router.route(0, etc, shards), shards.size())
        << routing_name(kind);
  }
}

TEST(RoutingPolicy, ShardWorkEstimateIsTheBestEtcInTheShard) {
  EtcMatrix etc(1, 3);
  etc.set(0, 0, 2.0);
  etc.set(0, 1, 4.0);
  etc.set(0, 2, 100.0);
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, 0, snapshot(0, {0, 1}, 0.0)),
                   2.0);
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, 0, snapshot(1, {2}, 0.0)), 100.0);
}

TEST(RoutingPolicy, ShardWorkEstimateNormalizesClassStarvedShards) {
  EtcMatrix etc(1, 2);
  etc.set(0, 0, 30.0);  // off-class machine: 3x the matched cost
  etc.set(0, 1, 10.0);
  ShardSnapshot starved = snapshot(0, {0}, 0.0);
  starved.class_machines = {0, 1};  // no machine of class 0 here
  starved.class_speedup = 3.0;
  ShardSnapshot matched = snapshot(1, {1}, 0.0);
  matched.class_machines = {1, 0};
  matched.class_speedup = 3.0;
  // A class-0 job books matched-machine seconds on BOTH shards: the
  // starved shard's off-class minimum is divided by the speedup, so
  // least-backlog compares like with like instead of reading the starved
  // shard as 3x busier per routed job.
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, RoutedJob(0, 0), starved), 10.0);
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, RoutedJob(0, 0), matched), 10.0);
  // Classless jobs and classless grids keep the raw minimum.
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, RoutedJob(0, -1), starved), 30.0);
  EXPECT_DOUBLE_EQ(shard_work_estimate(etc, 0, snapshot(0, {0}, 0.0)), 30.0);
}

TEST(RoutingPolicy, ClassBacklogPrefersTheShardWithTheClassQueueFree) {
  ShardRouter router(RoutingKind::kClassBacklog);
  EtcMatrix etc(1, 2);
  etc.set(0, 0, 10.0);  // class-0 job runs equally fast on both shards...
  etc.set(0, 1, 10.0);
  ShardSnapshot busy_for_class = snapshot(0, {0}, 0.0);
  busy_for_class.class_machines = {1, 0};
  busy_for_class.class_routed_work = {50.0, 0.0};  // class 0 queue is deep
  busy_for_class.routed_work = 50.0;
  ShardSnapshot free_for_class = snapshot(1, {1}, 40.0);
  free_for_class.class_machines = {1, 0};
  free_for_class.class_routed_work = {0.0, 0.0};
  // Total backlogs are comparable (50 vs 40) but shard 0's class-0 lane is
  // saturated; the class router must see past the totals.
  EXPECT_EQ(router.route(RoutedJob(0, 0), etc,
                         std::vector<ShardSnapshot>{busy_for_class,
                                                    free_for_class}),
            1u);
  // A classless job degrades to least-backlog and picks the lighter total.
  EXPECT_EQ(router.route(RoutedJob(0, -1), etc,
                         std::vector<ShardSnapshot>{busy_for_class,
                                                    free_for_class}),
            1u);
}

TEST(RoutingPolicy, ClassBacklogAvoidsClassStarvedShardsWhenCostly) {
  ShardRouter router(RoutingKind::kClassBacklog);
  EtcMatrix etc(1, 2);
  etc.set(0, 0, 30.0);  // shard 0 lacks the class: 3x slower
  etc.set(0, 1, 10.0);
  ShardSnapshot starved = snapshot(0, {0}, 0.0);
  starved.class_machines = {0, 1};
  starved.class_routed_work = {0.0, 0.0};
  starved.class_speedup = 3.0;
  ShardSnapshot matched = snapshot(1, {1}, 0.0);
  matched.class_machines = {1, 0};
  matched.class_routed_work = {0.0, 0.0};
  matched.class_speedup = 3.0;
  EXPECT_EQ(router.route(RoutedJob(0, 0), etc,
                         std::vector<ShardSnapshot>{starved, matched}),
            1u);
}

TEST(RoutingPolicy, PlanDrainStealsSpreadsTheStragglerQueue) {
  // Four equal jobs piled on shard 0's lone machine while shard 1 idles:
  // the steal pass must level the pair — two jobs move, and the third
  // candidate is rejected because the thief would become the straggler.
  EtcMatrix etc(4, 2);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    etc.set(job, 0, 10.0);
    etc.set(job, 1, 10.0);
  }
  const Schedule plan(4, 0);
  const std::vector<int> column_shard = {0, 1};
  const std::vector<StealMove> moves =
      plan_drain_steals(etc, plan, column_shard, 100);
  ASSERT_EQ(moves.size(), 2u);
  for (const StealMove& move : moves) {
    EXPECT_EQ(move.from_column, 0);
    EXPECT_EQ(move.to_column, 1);
    EXPECT_EQ(move.from_shard, 0);
    EXPECT_EQ(move.to_shard, 1);
  }
  EXPECT_NE(moves[0].row, moves[1].row);
}

TEST(RoutingPolicy, PlanDrainStealsIsCrossShardOnly) {
  // Same straggler pile-up, but both machines belong to one shard:
  // intra-shard placement is the portfolio's job, so nothing moves.
  EtcMatrix etc(4, 2);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    etc.set(job, 0, 10.0);
    etc.set(job, 1, 10.0);
  }
  const Schedule plan(4, 0);
  const std::vector<int> same_shard = {0, 0};
  EXPECT_TRUE(plan_drain_steals(etc, plan, same_shard, 100).empty());
}

TEST(RoutingPolicy, PlanDrainStealsRespectsClassAffinity) {
  // The neighbor is off-class (3x slower): it only wins the steal when
  // its queue is short enough that even the off-class cost still beats
  // the straggler's drain time — the real-ETC scoring carries the class
  // structure for free.
  EtcMatrix short_queue(3, 2);
  for (JobId job = 0; job < short_queue.num_jobs(); ++job) {
    short_queue.set(job, 0, 10.0);  // matched machine
    short_queue.set(job, 1, 30.0);  // off-class machine
  }
  const std::vector<int> column_shard = {0, 1};
  // Three matched jobs drain at 30; the off-class alternative ties at 30
  // and a tie is no gain: stay home.
  EXPECT_TRUE(plan_drain_steals(short_queue, Schedule(3, 0), column_shard,
                                100)
                  .empty());
  // A fourth job pushes the matched drain to 40: now one off-class steal
  // (finishing at 30) strictly helps, and exactly one fires.
  EtcMatrix long_queue(4, 2);
  for (JobId job = 0; job < long_queue.num_jobs(); ++job) {
    long_queue.set(job, 0, 10.0);
    long_queue.set(job, 1, 30.0);
  }
  const std::vector<StealMove> moves =
      plan_drain_steals(long_queue, Schedule(4, 0), column_shard, 100);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].to_column, 1);
}

TEST(RoutingPolicy, PlanDrainStealsPrefersTheMatchedNeighbor) {
  // Two idle foreign machines, one matched and one off-class: the steal
  // lands on the matched one (earliest finish), not just any idle slot.
  EtcMatrix etc(4, 3);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    etc.set(job, 0, 10.0);  // the straggler shard's machine
    etc.set(job, 1, 30.0);  // off-class neighbor
    etc.set(job, 2, 10.0);  // matched neighbor
  }
  const std::vector<int> column_shard = {0, 1, 2};
  const std::vector<StealMove> moves =
      plan_drain_steals(etc, Schedule(4, 0), column_shard, 100);
  ASSERT_FALSE(moves.empty());
  EXPECT_EQ(moves.front().to_column, 2);
  EXPECT_EQ(moves.front().to_shard, 2);
}

TEST(RoutingPolicy, RoutingKindRoundTripsThroughItsName) {
  for (const RoutingKind kind : all_routing_kinds()) {
    EXPECT_EQ(routing_kind_from_name(routing_name(kind)), kind);
  }
  EXPECT_THROW((void)routing_kind_from_name("no-such-policy"),
               std::invalid_argument);
}

TEST(RoutingPolicy, ShardMctIsNotARoutingKind) {
  try {
    (void)routing_kind_from_name("shard-mct");
    FAIL() << "shard-mct parsed as a routing kind";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("valid: round-robin least-backlog best-fit "
                        "class-backlog deadline-aware"),
              std::string::npos)
        << error.what();
  }
}

// --------------------------------------------------------------- service --

TEST(Service, RejectsBadConfigs) {
  ServiceConfig config = deterministic_config(2);
  config.num_shards = 0;
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
  // Non-positive and non-finite budgets never reach the deadline cast.
  for (const double budget_ms :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    config = deterministic_config(2);
    config.total_budget_ms = budget_ms;
    EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument)
        << budget_ms;
  }
  // Must be 0 (off) or >= 1; NaN would silently disable rebalancing.
  for (const double factor :
       {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    config = deterministic_config(2);
    config.imbalance_factor = factor;
    EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument)
        << factor;
  }
  // total_budget_ms is the only wall clock; member_stop's other bounds
  // must be finite and >= 0.
  for (const StopCondition& member_stop :
       {StopCondition{.max_time_ms = 5.0},
        StopCondition{.max_time_ms = std::numeric_limits<double>::quiet_NaN()},
        StopCondition{.max_evaluations = -1}}) {
    config = deterministic_config(2);
    config.member_stop = member_stop;
    EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument)
        << member_stop.max_time_ms << ' ' << member_stop.max_evaluations;
  }
}

TEST(Service, SchedulesEveryJobOntoItsOwnShard) {
  const EtcMatrix etc = small_instance(24, 8);
  GridSchedulingService service(deterministic_config(2));
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  // The cardinal shard invariant: the jobs shard s raced are exactly the
  // jobs the plan runs on shard s's machines.
  EXPECT_EQ(plan_jobs_per_shard(service, plan), scheduled_per_shard(service));
}

TEST(Service, RoundRobinAssignmentIsDeterministic) {
  const EtcMatrix etc = small_instance(8, 4);
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kRoundRobin;
  config.imbalance_factor = 0.0;  // keep the routing decision untouched
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  // Machines 0..3 map to shards {0, 1, 0, 1}; round-robin alternates the
  // two available shards in arrival order.
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    EXPECT_EQ(service.shard_of_machine(plan[job]), job % 2);
  }
}

TEST(Service, NeverLosesToConstructiveHeuristics) {
  const EtcMatrix etc = small_instance(40, 8);
  ServiceConfig config = deterministic_config(4);
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  // Sharding restricts each job to its shard's machines, so the service
  // cannot be compared against the unrestricted Min-Min directly; what it
  // must never lose is each shard's own safety net. The per-shard
  // portfolios assert exactly that internally; here we check the plan is
  // evaluable and finite end to end.
  const Individual planned = make_individual(plan, etc, FitnessWeights{});
  EXPECT_GT(planned.fitness, 0.0);
  EXPECT_TRUE(std::isfinite(planned.fitness));
}

TEST(Service, BudgetIsSplitAcrossShardsWithWork) {
  const EtcMatrix etc = small_instance(24, 8);
  ServiceConfig config = deterministic_config(2);
  config.total_budget_ms = 1'000.0;
  GridSchedulingService service(config);
  (void)service.schedule_batch(etc);
  ASSERT_EQ(service.shard_activations().size(), 2u);
  for (const ShardActivationRecord& record : service.shard_activations()) {
    EXPECT_DOUBLE_EQ(record.budget_ms, 500.0);
  }
}

TEST(Service, RebalancingShedsTheHotShard) {
  // Jobs are uniformly fastest on machine 0, so best-fit piles the whole
  // batch onto shard 0 while shard 1 idles — exactly the starvation case
  // rebalancing exists for.
  const EtcMatrix etc = dying_queue_etc();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 1.5;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));

  int migrated_out = 0;
  int migrated_in = 0;
  std::vector<int> jobs_per_shard(2, 0);
  for (const ShardStats& stat : service.shard_stats()) {
    migrated_out += stat.migrated_out;
    migrated_in += stat.migrated_in;
    jobs_per_shard[static_cast<std::size_t>(stat.shard)] +=
        stat.jobs_scheduled;
  }
  EXPECT_GT(migrated_out, 0) << "hot shard never shed a job";
  EXPECT_EQ(migrated_out, migrated_in);
  EXPECT_GT(jobs_per_shard[1], 0) << "light shard stayed starved";

  // Identity through migration: every job is still scheduled exactly once,
  // on a machine of the shard that finally raced it.
  EXPECT_EQ(plan_jobs_per_shard(service, plan), scheduled_per_shard(service));
}

TEST(Service, DisabledRebalancingNeverMigrates) {
  const EtcMatrix etc = dying_queue_etc();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  GridSchedulingService service(config);
  (void)service.schedule_batch(etc);
  for (const ShardStats& stat : service.shard_stats()) {
    EXPECT_EQ(stat.migrated_out, 0);
    EXPECT_EQ(stat.migrated_in, 0);
  }
}

TEST(Service, WarmStartCachesAreShardIsolated) {
  const EtcMatrix etc = small_instance(30, 6);
  GridSchedulingService service(deterministic_config(2));
  const Schedule first = service.schedule_batch(etc);

  std::set<int> seen_jobs;
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    const PopulationCache& cache = service.shard_scheduler(shard).cache();
    ASSERT_FALSE(cache.empty()) << "shard " << shard << " cache never fed";
    for (const int machine : cache.stored_machine_ids()) {
      EXPECT_EQ(service.shard_of_machine(machine), shard)
          << "shard " << shard << " cached a foreign machine";
    }
    for (const int job : cache.stored_job_ids()) {
      EXPECT_EQ(service.shard_of_machine(first[job]), shard);
      EXPECT_TRUE(seen_jobs.insert(job).second)
          << "job " << job << " leaked into two shard caches";
    }
  }

  // A second activation consumes the warm caches without cross-talk and
  // still produces a complete schedule.
  const Schedule plan = service.schedule_batch(etc);
  EXPECT_TRUE(plan.complete(etc.num_machines()));
}

TEST(Service, AllJobsOnOneShardLosesAndDuplicatesNothing) {
  // Best-fit with rebalancing off funnels the whole batch onto shard 0
  // (machine 0 dominates); the starved shard must simply sit out, with
  // every job scheduled exactly once on the hot shard.
  EtcMatrix etc(15, 4);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      etc.set(job, machine, machine == 0 ? 5.0 : 50.0);
    }
  }
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  int scheduled = 0;
  for (const ShardStats& stat : service.shard_stats()) {
    scheduled += stat.jobs_scheduled;
    if (stat.shard == 1) {
      EXPECT_EQ(stat.jobs_scheduled, 0);
    }
  }
  EXPECT_EQ(scheduled, etc.num_jobs());
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    EXPECT_EQ(service.shard_of_machine(plan[job]), 0);
  }
}

TEST(Service, ShardWithNoMachinesNeverReceivesAJob) {
  // 4 shards over 3 machines: shard 3 owns no machine at all, ever — the
  // degenerate partition a mis-sized deployment produces. The router must
  // skip it and still place the full batch.
  const EtcMatrix etc = small_instance(18, 3);
  for (const RoutingKind routing : all_routing_kinds()) {
    ServiceConfig config = deterministic_config(4);
    config.routing = routing;
    GridSchedulingService service(config);
    const Schedule plan = service.schedule_batch(etc);
    ASSERT_TRUE(plan.complete(etc.num_machines()))
        << routing_name(routing);
    int scheduled = 0;
    for (const ShardStats& stat : service.shard_stats()) {
      scheduled += stat.jobs_scheduled;
      if (stat.shard == 3) {
        EXPECT_EQ(stat.jobs_scheduled, 0) << routing_name(routing);
        EXPECT_EQ(stat.activations, 0) << routing_name(routing);
      }
    }
    EXPECT_EQ(scheduled, etc.num_jobs()) << routing_name(routing);
    EXPECT_EQ(plan_jobs_per_shard(service, plan),
              scheduled_per_shard(service))
        << routing_name(routing);
  }
}

TEST(Service, RebalancingWithAnEmptyHotShardIsANoOp) {
  // Shard 0 is hottest by backlog (huge ready times) yet holds zero queued
  // jobs this activation — there is nothing to shed, and the rebalancer
  // must neither crash nor conjure migrations from the empty queue.
  EtcMatrix etc(10, 4);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      // Shard 1's machines (1, 3) dominate for every job.
      etc.set(job, machine, machine % 2 == 1 ? 4.0 : 40.0);
    }
  }
  etc.set_ready_time(0, 500.0);  // shard 0 drowning in old backlog
  etc.set_ready_time(2, 500.0);
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 1.5;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  int scheduled = 0;
  for (const ShardStats& stat : service.shard_stats()) {
    scheduled += stat.jobs_scheduled;
    if (stat.shard == 0) {
      EXPECT_EQ(stat.migrated_out, 0) << "shed from an empty queue";
      EXPECT_EQ(stat.jobs_scheduled, 0);
    }
  }
  EXPECT_EQ(scheduled, etc.num_jobs());
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    EXPECT_EQ(service.shard_of_machine(plan[job]), 1);
  }
}

TEST(Service, SingleShardDegeneratesToOnePortfolio) {
  const EtcMatrix etc = small_instance(16, 4);
  GridSchedulingService service(deterministic_config(1));
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  ASSERT_EQ(service.shard_activations().size(), 1u);
  EXPECT_EQ(service.shard_activations()[0].jobs, etc.num_jobs());
  EXPECT_DOUBLE_EQ(service.shard_activations()[0].budget_ms,
                   service.config().total_budget_ms);
}

TEST(Service, ConcurrentAndSequentialActivationAgree) {
  // With evaluation-bounded members the committed schedules are
  // deterministic, so overlapping the shard races must not change them —
  // the no-job-lost-or-duplicated contract of concurrent activation. A
  // one-thread pool runs four shard races, each waiting on its own member
  // tasks, through the same path without deadlock.
  const EtcMatrix etc = small_instance(36, 8);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ServiceConfig sequential = deterministic_config(4);
    sequential.threads = threads;
    sequential.concurrent_shards = false;
    ServiceConfig concurrent = sequential;
    concurrent.concurrent_shards = true;
    GridSchedulingService service_seq(sequential);
    GridSchedulingService service_conc(concurrent);
    for (int round = 0; round < 3; ++round) {
      const Schedule plan_seq = service_seq.schedule_batch(etc);
      const Schedule plan_conc = service_conc.schedule_batch(etc);
      EXPECT_EQ(plan_seq, plan_conc)
          << "round " << round << ", threads " << threads;
    }
    ASSERT_FALSE(service_conc.service_activations().empty());
    for (const ServiceActivationRecord& record :
         service_conc.service_activations()) {
      EXPECT_TRUE(record.concurrent);
      EXPECT_GT(record.shards_raced, 1);
    }
    for (const ServiceActivationRecord& record :
         service_seq.service_activations()) {
      EXPECT_FALSE(record.concurrent);
    }
  }
}

TEST(Service, PoolWidthMovesNoPlanOrRecord) {
  // Shard races go out largest sub-batch first and portfolio members
  // longest-running first; on evaluation-bounded members neither order,
  // nor how many lanes the pool has, may move a plan or a book. Batches of
  // different sizes make the dispatch orders differ from round to round.
  struct Run {
    std::vector<Schedule> plans;
    std::unique_ptr<GridSchedulingService> service;
  };
  const std::vector<EtcMatrix> batches = {
      small_instance(40, 10, 5), small_instance(57, 10, 6),
      small_instance(23, 10, 7), small_instance(64, 10, 8)};
  const auto run_at = [&](std::size_t threads) {
    ServiceConfig config = deterministic_config(5);
    config.threads = threads;
    config.member_stop = StopCondition{.max_evaluations = 60};
    Run run{{}, std::make_unique<GridSchedulingService>(config)};
    for (const EtcMatrix& etc : batches) {
      run.plans.push_back(run.service->schedule_batch(etc));
    }
    return run;
  };
  const Run reference = run_at(1);
  const GridSchedulingService& ref = *reference.service;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const Run run = run_at(threads);
    const GridSchedulingService& other = *run.service;
    EXPECT_EQ(run.plans, reference.plans) << threads << " threads";

    ASSERT_EQ(other.shard_activations().size(),
              ref.shard_activations().size());
    for (std::size_t i = 0; i < ref.shard_activations().size(); ++i) {
      const ShardActivationRecord& a = ref.shard_activations()[i];
      const ShardActivationRecord& b = other.shard_activations()[i];
      EXPECT_EQ(a.activation, b.activation);
      EXPECT_EQ(a.shard, b.shard);
      EXPECT_EQ(a.jobs, b.jobs);
      EXPECT_EQ(a.migrated_in, b.migrated_in);
      EXPECT_EQ(a.migrated_out, b.migrated_out);
      EXPECT_EQ(a.stolen_in, b.stolen_in);
      EXPECT_EQ(a.stolen_out, b.stolen_out);
      EXPECT_EQ(a.backlog, b.backlog);
      EXPECT_EQ(a.budget_ms, b.budget_ms);
    }
    ASSERT_EQ(other.service_activations().size(),
              ref.service_activations().size());
    for (std::size_t i = 0; i < ref.service_activations().size(); ++i) {
      const ServiceActivationRecord& a = ref.service_activations()[i];
      const ServiceActivationRecord& b = other.service_activations()[i];
      EXPECT_EQ(a.activation, b.activation);
      EXPECT_EQ(a.shards_raced, b.shards_raced);
      EXPECT_EQ(a.concurrent, b.concurrent);
      EXPECT_EQ(a.jobs_stolen, b.jobs_stolen);
      EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
      EXPECT_EQ(a.jobs_rerouted, b.jobs_rerouted);
    }

    ASSERT_EQ(other.num_shards(), ref.num_shards());
    for (int shard = 0; shard < ref.num_shards(); ++shard) {
      const PortfolioBatchScheduler& pa = ref.shard_scheduler(shard);
      const PortfolioBatchScheduler& pb = other.shard_scheduler(shard);
      ASSERT_EQ(pb.activations().size(), pa.activations().size());
      for (std::size_t i = 0; i < pa.activations().size(); ++i) {
        const ActivationRecord& a = pa.activations()[i];
        const ActivationRecord& b = pb.activations()[i];
        EXPECT_EQ(a.activation, b.activation);
        EXPECT_EQ(a.batch_jobs, b.batch_jobs);
        EXPECT_EQ(a.winner, b.winner);
        EXPECT_EQ(a.winner_name, b.winner_name);
        EXPECT_EQ(a.best_fitness, b.best_fitness);
        EXPECT_EQ(a.qos_pareto, b.qos_pareto);
        EXPECT_EQ(a.winner_missed, b.winner_missed);
        EXPECT_EQ(a.winner_cost, b.winner_cost);
      }
      ASSERT_EQ(pb.member_stats().size(), pa.member_stats().size());
      for (std::size_t m = 0; m < pa.member_stats().size(); ++m) {
        const MemberStats& a = pa.member_stats()[m];
        const MemberStats& b = pb.member_stats()[m];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.runs, b.runs);
        EXPECT_EQ(a.wins, b.wins);
        EXPECT_EQ(a.evaluations, b.evaluations);
      }
    }
  }
}

TEST(Service, ClassBacklogRoutingKeepsClassedJobsOnMatchedShards) {
  // 2 shards x 2 classes with the interleaved conventions: shard 0 owns
  // machines {0, 2} — but classes also alternate, so make the partition
  // class-pure by hand: machines 0,2 (class 0) vs 1,3 (class 1) happen to
  // be exactly the static id%2 shards. Matched pairs run 3x faster.
  EtcMatrix etc(8, 4);
  BatchContext context = BatchContext::identity(etc);
  context.num_job_classes = 2;
  context.class_speedup = 3.0;
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    const int job_class = job % 2;
    context.job_classes.push_back(job_class);
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      const bool matched = machine % 2 == job_class;
      etc.set(job, machine, matched ? 10.0 : 30.0);
    }
  }
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kClassBacklog;
  config.imbalance_factor = 0.0;  // keep the routing decision untouched
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc, context);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    // Machine m has class m % 2; shard s == class s here.
    EXPECT_EQ(service.shard_of_machine(plan[job]), job % 2)
        << "job " << job << " routed off its class shard";
    EXPECT_EQ(plan[job] % 2, job % 2) << "job " << job << " ran off-class";
  }
}

TEST(Service, RejectsIncoherentJobClasses) {
  const EtcMatrix etc = small_instance(4, 4);
  GridSchedulingService service(deterministic_config(2));
  BatchContext context = BatchContext::identity(etc);
  context.num_job_classes = 2;
  context.class_speedup = 3.0;
  context.job_classes = {0, 1, 5, 0};  // 5 is out of range
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context.job_classes = {0, 1};  // wrong length
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context.job_classes = {0, 1, -1, 0};  // -1 = unclassed is legal
  EXPECT_TRUE(
      service.schedule_batch(etc, context).complete(etc.num_machines()));
}

TEST(Service, SplitGrowsThePartitionWhenThePoolOutgrowsTheBound) {
  ServiceConfig config = deterministic_config(2);
  config.split_above_machines = 4;
  config.max_shards = 4;
  GridSchedulingService service(config);
  const EtcMatrix etc = small_instance(32, 16);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  // 16 machines / 2 shards = 8 > 4 -> split; 16/3 = 5.3 > 4 -> split;
  // 16/4 = 4, not above the bound -> stop at the cap.
  EXPECT_EQ(service.num_shards(), 4);
  ASSERT_EQ(service.resize_events().size(), 2u);
  for (const ShardResizeEvent& event : service.resize_events()) {
    EXPECT_TRUE(event.split);
    EXPECT_GT(event.machines_moved, 0);
    EXPECT_EQ(event.alive_machines, 16);
  }
  // No job lost or duplicated across the resized partition.
  int scheduled = 0;
  for (const ShardStats& stat : service.shard_stats()) {
    scheduled += stat.jobs_scheduled;
  }
  EXPECT_EQ(scheduled, etc.num_jobs());
  EXPECT_EQ(plan_jobs_per_shard(service, plan), scheduled_per_shard(service));
}

TEST(Service, SplitMovesAliveCapacityNotJustCorpses) {
  ServiceConfig config = deterministic_config(1);
  config.split_above_machines = 4;
  config.max_shards = 2;
  GridSchedulingService service(config);
  // Batch 1: machines 0..3 — exactly at the bound, no split; the
  // partition map learns them.
  const EtcMatrix first = small_instance(8, 4);
  (void)service.schedule_batch(first);
  ASSERT_TRUE(service.resize_events().empty());
  // Batch 2: machines 1 and 3 are dead, 4/6/8 joined — 5 alive machines
  // on one shard trips the split. A parity cut over the MIXED owned list
  // {0,1,2,3,4,6,8} would hand the child {1,3,6}: two corpses and one
  // machine. The cut must run over the alive list, so the child inherits
  // real capacity.
  const EtcMatrix second = small_instance(10, 5, 7);
  BatchContext context = BatchContext::identity(second);
  context.machine_ids = {0, 2, 4, 6, 8};
  const Schedule plan = service.schedule_batch(second, context);
  ASSERT_TRUE(plan.complete(second.num_machines()));
  ASSERT_EQ(service.resize_events().size(), 1u);
  const ShardResizeEvent& split = service.resize_events().front();
  EXPECT_TRUE(split.split);
  int child_alive = 0;
  for (const int machine : context.machine_ids) {
    if (service.shard_of_machine(machine) == split.to_shard) ++child_alive;
  }
  EXPECT_EQ(child_alive, 2);
  EXPECT_EQ(service.shard_of_machine(2), split.to_shard);
  EXPECT_EQ(service.shard_of_machine(6), split.to_shard);
}

TEST(Service, MergeFoldsTheLightShardsWhenMachinesVanish) {
  ServiceConfig config = deterministic_config(4);
  config.merge_below_machines = 3;
  GridSchedulingService service(config);
  // Only 4 machines for 4 shards: mean 1 < 3 -> merge until the mean
  // clears the bound (4/2 = 2 < 3, 4/1 = 4 -> one shard absorbs all).
  const EtcMatrix etc = small_instance(12, 4);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  ASSERT_EQ(service.resize_events().size(), 3u);
  for (const ShardResizeEvent& event : service.resize_events()) {
    EXPECT_FALSE(event.split);
  }
  // Every machine now lives on one shard, and the whole batch ran there.
  const int owner = service.shard_of_machine(0);
  for (int machine = 1; machine < etc.num_machines(); ++machine) {
    EXPECT_EQ(service.shard_of_machine(machine), owner);
  }
  int scheduled = 0;
  for (const ShardStats& stat : service.shard_stats()) {
    scheduled += stat.jobs_scheduled;
    if (stat.shard != owner) {
      EXPECT_EQ(stat.jobs_scheduled, 0);
    }
  }
  EXPECT_EQ(scheduled, etc.num_jobs());
}

TEST(Service, SplitMigratesTheWarmStartCache) {
  ServiceConfig config = deterministic_config(2);
  config.split_above_machines = 6;
  config.max_shards = 3;
  GridSchedulingService service(config);
  // First activation: 8 machines / 2 shards = 4, under the bound — the
  // caches fill without any resize.
  const EtcMatrix small = small_instance(24, 8);
  (void)service.schedule_batch(small);
  EXPECT_EQ(service.num_shards(), 2);
  EXPECT_FALSE(service.shard_scheduler(0).cache().empty());
  // Second activation arrives with 16 machines: 16/2 = 8 > 6 -> split.
  // The child shard must inherit a COPY of the parent's elites, not start
  // cold.
  const EtcMatrix big = small_instance(48, 16, 5);
  (void)service.schedule_batch(big);
  ASSERT_EQ(service.num_shards(), 3);
  ASSERT_FALSE(service.resize_events().empty());
  const ShardResizeEvent& split = service.resize_events().front();
  EXPECT_TRUE(split.split);
  EXPECT_EQ(split.to_shard, 2);
  EXPECT_FALSE(service.shard_scheduler(2).cache().empty())
      << "split child started with a cold cache";
}

TEST(Service, RejectsOscillatingScalingBounds) {
  ServiceConfig config = deterministic_config(2);
  config.split_above_machines = 5;
  config.merge_below_machines = 4;  // less than twice the merge bound
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
}

TEST(Service, DrainStealSpreadsTheDyingQueueOverThePool) {
  // Best-fit with rebalancing off piles the whole batch onto shard 0
  // (machine 0 dominates): the canonical drain-tail shape — one dying
  // queue, idle neighbors. With stealing on, the straggler machine's jobs
  // spill onto shard 1's idle machines, each job still executed exactly
  // once, on the machine the (post-steal) plan names.
  const EtcMatrix etc = dying_queue_etc();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  config.drain_steal = true;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));

  int stolen_out = 0;
  int stolen_in = 0;
  for (const ShardStats& stat : service.shard_stats()) {
    stolen_out += stat.stolen_out;
    stolen_in += stat.stolen_in;
  }
  EXPECT_GT(stolen_out, 0) << "the dying queue never borrowed a neighbor";
  EXPECT_EQ(stolen_out, stolen_in);
  ASSERT_FALSE(service.service_activations().empty());
  EXPECT_EQ(service.service_activations().back().jobs_stolen, stolen_out);
  // The thief never raced, yet its steals are on the books: it has a
  // record of its own, marked as not raced.
  const auto thief = std::find_if(
      service.shard_activations().begin(), service.shard_activations().end(),
      [](const ShardActivationRecord& record) { return record.shard == 1; });
  ASSERT_NE(thief, service.shard_activations().end());
  EXPECT_EQ(thief->jobs, 0);
  EXPECT_DOUBLE_EQ(thief->budget_ms, 0.0);
  EXPECT_EQ(thief->stolen_in, stolen_in);
  // At least one job genuinely crossed the partition in the plan.
  EXPECT_GT(plan_jobs_per_shard(service, plan)[1], 0);
}

TEST(Service, DrainStealOffKeepsTheStrictPartition) {
  // The identical pile-up with stealing off (the default) must keep every
  // job inside its routed shard — the PR 2 partition contract, bitwise.
  const EtcMatrix etc = dying_queue_etc();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  for (const ShardStats& stat : service.shard_stats()) {
    EXPECT_EQ(stat.stolen_out, 0);
    EXPECT_EQ(stat.stolen_in, 0);
  }
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    EXPECT_EQ(service.shard_of_machine(plan[job]), 0);
  }
  ASSERT_FALSE(service.service_activations().empty());
  EXPECT_EQ(service.service_activations().back().jobs_stolen, 0);
}

TEST(Service, DrainStealHandsOffTheWarmStartCache) {
  // Activation 1 (balanced) fills both shard caches; activation 2 piles
  // everything onto shard 0 and steals spill onto shard 1. Every stolen
  // job must move cache homes: adopted by the thief, erased from the
  // victim — one cache per job, even across steals.
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  config.drain_steal = true;
  GridSchedulingService service(config);
  // Half the jobs are fastest on shard 0's machine 0, half on shard 1's
  // machine 1, so best-fit splits the batch evenly and both races store
  // elites (and the level completion profile leaves nothing to steal).
  EtcMatrix balanced(16, 4);
  for (JobId job = 0; job < balanced.num_jobs(); ++job) {
    const MachineId home = job < 8 ? 1 : 0;
    for (MachineId machine = 0; machine < balanced.num_machines();
         ++machine) {
      balanced.set(job, machine, machine == home ? 10.0 : 20.0);
    }
  }
  (void)service.schedule_batch(balanced);
  ASSERT_FALSE(service.shard_scheduler(1).cache().empty());

  const EtcMatrix skewed = dying_queue_etc();
  const Schedule plan = service.schedule_batch(skewed);
  std::vector<int> stolen_jobs;
  for (JobId job = 0; job < skewed.num_jobs(); ++job) {
    if (service.shard_of_machine(plan[job]) == 1) stolen_jobs.push_back(job);
  }
  ASSERT_FALSE(stolen_jobs.empty()) << "no steal to hand a cache entry off";
  const auto& victim_jobs = service.shard_scheduler(0).cache().stored_job_ids();
  const auto& thief_jobs = service.shard_scheduler(1).cache().stored_job_ids();
  for (const int job : stolen_jobs) {
    EXPECT_EQ(std::count(victim_jobs.begin(), victim_jobs.end(), job), 0)
        << "job " << job << " still cached on the victim shard";
    EXPECT_EQ(std::count(thief_jobs.begin(), thief_jobs.end(), job), 1)
        << "job " << job << " not adopted by the thief shard";
  }
}

TEST(Service, StealOnWithChurnAndClassesReplaysExactly) {
  // The record -> replay equality check under the full production mix:
  // machine churn (re-queues), job classes, class-aware routing and
  // stealing on. Every job executes exactly once per attempt chain, and
  // replaying the recorded arrival trace through a fresh service
  // reproduces the run record for record — stealing is deterministic.
  SimConfig sim_config;
  sim_config.horizon = 300.0;
  sim_config.arrival_rate = 0.5;
  sim_config.scheduler_period = 50.0;
  sim_config.num_machines = 8;
  sim_config.machine_mtbf = 150.0;
  sim_config.machine_mttr = 40.0;
  sim_config.num_job_classes = 2;
  sim_config.class_speedup = 3.0;
  sim_config.seed = 23;

  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kClassBacklog;
  config.drain_steal = true;
  config.member_stop = StopCondition{.max_evaluations = 120};

  GridSimulator sim(sim_config);
  GridSchedulingService service(config);
  const ShardedSimReport report = run_sharded(sim, service);
  EXPECT_EQ(report.global.jobs_completed, report.global.jobs_arrived);
  EXPECT_GT(report.steals, 0) << "scenario never exercised the steal path";
  EXPECT_GT(report.migrations, 0)
      << "scenario never exercised the rebalance path";
  const std::vector<SimJobRecord> recorded = sim.job_records();

  // The books agree: per-shard folds, the per-activation records and the
  // driver report all count the same moves.
  int migrated_in = 0;
  int migrated_out = 0;
  int stolen_in = 0;
  int stolen_out = 0;
  const std::vector<ShardStats> stats = service.shard_stats();
  std::vector<double> race_ms(stats.size(), 0.0);
  for (const ShardActivationRecord& record : service.shard_activations()) {
    race_ms[static_cast<std::size_t>(record.shard)] += record.race_ms;
  }
  for (const ShardStats& stat : stats) {
    migrated_in += stat.migrated_in;
    migrated_out += stat.migrated_out;
    stolen_in += stat.stolen_in;
    stolen_out += stat.stolen_out;
    EXPECT_DOUBLE_EQ(stat.total_race_ms,
                     race_ms[static_cast<std::size_t>(stat.shard)])
        << "shard " << stat.shard;
  }
  int jobs_stolen = 0;
  for (const ServiceActivationRecord& record : service.service_activations()) {
    jobs_stolen += record.jobs_stolen;
  }
  EXPECT_EQ(migrated_in, migrated_out);
  EXPECT_EQ(migrated_in, report.migrations);
  EXPECT_EQ(stolen_in, stolen_out);
  EXPECT_EQ(stolen_in, jobs_stolen);
  EXPECT_EQ(stolen_in, report.steals);

  SimConfig replay_config = sim_config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(sim.arrival_trace());
  GridSimulator replayed(replay_config);
  GridSchedulingService fresh(config);
  const ShardedSimReport replay = run_sharded(replayed, fresh);
  EXPECT_EQ(replay.global.jobs_completed, report.global.jobs_completed);
  EXPECT_EQ(replay.steals, report.steals);
  ASSERT_EQ(replayed.job_records().size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const SimJobRecord& a = recorded[i];
    const SimJobRecord& b = replayed.job_records()[i];
    EXPECT_EQ(a.machine, b.machine) << "job " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << "job " << i;
    EXPECT_DOUBLE_EQ(a.finish, b.finish) << "job " << i;
  }
}

TEST(Service, DrainStealKeepsTheEntryWhenTheThiefCacheIsEmpty) {
  // The canonical donor shape: shard 1 idles, never races, so its cache
  // is empty and cannot adopt. The handoff must then leave the stolen
  // jobs' entries with the victim instead of erasing them from every
  // cache — at most one cache knows a job, never zero by accident.
  const EtcMatrix etc = dying_queue_etc();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kBestFit;
  config.imbalance_factor = 0.0;
  config.drain_steal = true;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc);
  int stolen = 0;
  for (const ShardStats& stat : service.shard_stats()) stolen += stat.stolen_out;
  ASSERT_GT(stolen, 0);
  EXPECT_TRUE(service.shard_scheduler(1).cache().empty());
  const auto& victim_jobs = service.shard_scheduler(0).cache().stored_job_ids();
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    if (service.shard_of_machine(plan[job]) != 1) continue;
    EXPECT_EQ(std::count(victim_jobs.begin(), victim_jobs.end(), job), 1)
        << "stolen job " << job << " vanished from every cache";
  }
}

TEST(Service, RejectsMismatchedMachineMips) {
  const EtcMatrix etc = small_instance(4, 4);
  GridSchedulingService service(deterministic_config(2));
  BatchContext context = BatchContext::identity(etc);
  context.machine_mips = {1000.0, 1000.0};  // 2 entries for 4 machines
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  // Zero, negative and NaN ratings would freeze the greedy split cut.
  context.machine_mips = {1000.0, 0.0, 1000.0, 1000.0};
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context.machine_mips = {1000.0, 1000.0,
                          std::numeric_limits<double>::quiet_NaN(), 1000.0};
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context.machine_mips = {1000.0, 1000.0, 1000.0, 1000.0};
  EXPECT_TRUE(
      service.schedule_batch(etc, context).complete(etc.num_machines()));
}

TEST(Service, ResizeCooldownSuppressesFlapping) {
  // A pool that collapses right after a split would, without hysteresis,
  // merge at the very next activation — the flap the cooldown exists to
  // stop. The merge must wait out the window, then fire.
  ServiceConfig config = deterministic_config(1);
  config.split_above_machines = 4;
  config.merge_below_machines = 2;
  config.max_shards = 2;
  config.resize_cooldown = 3;
  config.resize_band = 0.0;
  GridSchedulingService service(config);

  // Activation 1: 10 machines on one shard -> split.
  (void)service.schedule_batch(small_instance(20, 10));
  ASSERT_EQ(service.resize_events().size(), 1u);
  EXPECT_TRUE(service.resize_events().front().split);

  // Activations 2-4: the pool collapses to 3 machines (mean 1.5 < 2 would
  // merge immediately) — the cooldown holds the partition still.
  const EtcMatrix shrunk = small_instance(6, 3, 9);
  BatchContext context = BatchContext::identity(shrunk);
  context.machine_ids = {0, 1, 2};
  for (int activation = 2; activation <= 4; ++activation) {
    (void)service.schedule_batch(shrunk, context);
    EXPECT_EQ(service.resize_events().size(), 1u)
        << "resize fired inside the cooldown window (activation "
        << activation << ")";
  }

  // Activation 5: the window has passed and the shrunken pool is still
  // below the bound -> the merge finally fires.
  (void)service.schedule_batch(shrunk, context);
  ASSERT_EQ(service.resize_events().size(), 2u);
  EXPECT_FALSE(service.resize_events().back().split);
}

TEST(Service, ResizeBandWidensTheTriggers) {
  // split_above 4 with a 25% band means the census must exceed 5, not 4:
  // a pool hovering just past the raw bound stays put.
  ServiceConfig config = deterministic_config(1);
  config.split_above_machines = 4;
  config.resize_cooldown = 0;
  config.resize_band = 0.25;
  GridSchedulingService service(config);
  (void)service.schedule_batch(small_instance(10, 5));
  EXPECT_TRUE(service.resize_events().empty())
      << "split fired inside the threshold band";
  (void)service.schedule_batch(small_instance(12, 6, 5));
  ASSERT_EQ(service.resize_events().size(), 1u);
  EXPECT_TRUE(service.resize_events().front().split);
}

TEST(Service, SplitCutsBalanceMipsWhenReported) {
  // One 3000-MIPS machine against five smaller ones: an id-parity cut
  // would hand the child 2000 MIPS and leave 4000 behind; the weighted
  // cut isolates the heavyweight and gives the child the other five —
  // both halves at exactly 3000 MIPS.
  ServiceConfig config = deterministic_config(1);
  config.split_above_machines = 4;
  config.resize_band = 0.0;
  config.max_shards = 2;
  GridSchedulingService service(config);
  const EtcMatrix etc = small_instance(12, 6);
  BatchContext context = BatchContext::identity(etc);
  context.machine_mips = {3000.0, 500.0, 500.0, 500.0, 500.0, 1000.0};
  const Schedule plan = service.schedule_batch(etc, context);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  ASSERT_EQ(service.resize_events().size(), 1u);
  const ShardResizeEvent& split = service.resize_events().front();
  EXPECT_TRUE(split.split);
  EXPECT_EQ(split.machines_moved, 5);
  EXPECT_EQ(service.shard_of_machine(0), split.from_shard);
  for (int machine = 1; machine < 6; ++machine) {
    EXPECT_EQ(service.shard_of_machine(machine), split.to_shard)
        << "machine " << machine;
  }
}

TEST(Service, SplitCutKeepsEveryClassOnBothSides) {
  // One heavyweight class-0 machine against three class-1 machines: a
  // purely global MIPS balance would hand ALL of class 1 to the child and
  // leave the parent class-starved for it. The per-class greedy must put
  // class 1 on both sides (the singleton class 0 cannot split) while
  // still weighting the cut.
  ServiceConfig config = deterministic_config(1);
  config.split_above_machines = 3;
  config.resize_band = 0.0;
  config.max_shards = 2;
  GridSchedulingService service(config);
  const EtcMatrix etc = small_instance(10, 4);
  BatchContext context = BatchContext::identity(etc);
  context.machine_ids = {0, 1, 3, 5};  // class = id % 2: one 0, three 1s
  context.num_job_classes = 2;
  context.class_speedup = 3.0;
  context.machine_mips = {2000.0, 700.0, 700.0, 700.0};
  const Schedule plan = service.schedule_batch(etc, context);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  ASSERT_EQ(service.resize_events().size(), 1u);
  const ShardResizeEvent& split = service.resize_events().front();
  int parent_class1 = 0;
  int child_class1 = 0;
  for (const int machine : {1, 3, 5}) {
    (service.shard_of_machine(machine) == split.to_shard ? child_class1
                                                         : parent_class1) += 1;
  }
  EXPECT_GT(parent_class1, 0) << "parent lost its whole class-1 slice";
  EXPECT_GT(child_class1, 0) << "child received no class-1 machine";
}

TEST(Service, RejectsBadHysteresis) {
  ServiceConfig config = deterministic_config(2);
  config.resize_cooldown = -1;
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
  config = deterministic_config(2);
  config.resize_band = 1.0;
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
  config = deterministic_config(2);
  config.resize_band = -0.1;
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
  config = deterministic_config(2);
  config.resize_band = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GridSchedulingService{config}, std::invalid_argument);
}

// ---------------------------------------------------------------- driver --

TEST(ShardedDriver, RunsTheDynamicGridAndSplitsMetricsPerShard) {
  SimConfig sim_config;
  sim_config.horizon = 300.0;
  sim_config.arrival_rate = 0.4;
  sim_config.scheduler_period = 50.0;
  sim_config.num_machines = 6;
  sim_config.machine_mtbf = 150.0;  // churn exercises shard-set shrinkage
  sim_config.machine_mttr = 40.0;
  sim_config.seed = 17;
  GridSimulator sim(sim_config);

  ServiceConfig config = deterministic_config(3);
  config.member_stop = StopCondition{.max_evaluations = 120};
  GridSchedulingService service(config);
  const ShardedSimReport report = run_sharded(sim, service);

  EXPECT_EQ(report.global.jobs_completed, report.global.jobs_arrived);
  ASSERT_EQ(report.per_shard.size(), 3u);
  int completed = 0;
  int activations = 0;
  for (const SimMetrics& shard : report.per_shard) {
    completed += shard.jobs_completed;
    activations += shard.activations;
    // Under churn, work aborted by a failure still counts as busy time
    // (matching the global utilization metric), so the ratio may exceed 1;
    // it must stay non-negative and sane.
    EXPECT_GE(shard.utilization, 0.0);
    EXPECT_LT(shard.utilization, 10.0);
    if (shard.jobs_completed > 0) {
      EXPECT_GT(shard.mean_flowtime, 0.0);
      EXPECT_LE(shard.makespan, report.global.makespan + 1e-9);
    }
  }
  EXPECT_EQ(completed, report.global.jobs_completed);
  EXPECT_GT(activations, 0);
}

TEST(ShardedDriver, StreamingReportMatchesTheMaterializedReport) {
  // The driver's observer-based fold against the classic end-of-run fold:
  // the same churny QoS trace through SimConfig::workload and through
  // SimConfig::stream must yield the same sharded report, bit for bit
  // (static partition, so shard attribution cannot drift either).
  SimConfig sim_config;
  sim_config.horizon = 300.0;
  sim_config.arrival_rate = 0.4;
  sim_config.scheduler_period = 50.0;
  sim_config.num_machines = 6;
  sim_config.machine_mtbf = 150.0;
  sim_config.machine_mttr = 40.0;
  sim_config.num_job_classes = 2;
  sim_config.seed = 17;

  Rng rng(sim_config.seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  PoissonWorkload poisson(
      sim_config.arrival_rate,
      LogNormalSize{sim_config.workload_log_mean,
                    sim_config.workload_log_sigma});
  std::vector<TraceJob> jobs =
      poisson.generate(sim_config.horizon, arrival_rng, workload_rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % 3 == 0) jobs[i].deadline = jobs[i].arrival + 150.0;
  }

  SimConfig materialized_config = sim_config;
  materialized_config.workload = std::make_shared<TraceWorkloadSource>(jobs);
  GridSimulator materialized(materialized_config);
  GridSchedulingService service_a(deterministic_config(2));
  const ShardedSimReport a = run_sharded(materialized, service_a);
  ASSERT_GT(a.global.jobs_requeued, 0) << "churn never fired; weak test";
  ASSERT_GT(a.global_slo.deadline_jobs, 0);

  SimConfig streaming_config = sim_config;
  streaming_config.stream = std::make_shared<MaterializedStream>(jobs);
  GridSimulator streamed(streaming_config);
  GridSchedulingService service_b(deterministic_config(2));
  const ShardedSimReport b = run_sharded(streamed, service_b);

  const auto expect_same_view = [](const SimMetrics& lhs,
                                   const SimMetrics& rhs) {
    EXPECT_EQ(lhs.jobs_arrived, rhs.jobs_arrived);
    EXPECT_EQ(lhs.jobs_completed, rhs.jobs_completed);
    EXPECT_EQ(lhs.jobs_requeued, rhs.jobs_requeued);
    EXPECT_EQ(lhs.mean_flowtime, rhs.mean_flowtime);
    EXPECT_EQ(lhs.mean_wait, rhs.mean_wait);
    EXPECT_EQ(lhs.max_flowtime, rhs.max_flowtime);
    EXPECT_EQ(lhs.makespan, rhs.makespan);
    EXPECT_EQ(lhs.utilization, rhs.utilization);
  };
  expect_same_view(a.global, b.global);
  ASSERT_EQ(b.per_shard.size(), a.per_shard.size());
  for (std::size_t shard = 0; shard < a.per_shard.size(); ++shard) {
    expect_same_view(a.per_shard[shard], b.per_shard[shard]);
  }
  ASSERT_EQ(b.per_class.size(), a.per_class.size());
  for (std::size_t job_class = 0; job_class < a.per_class.size();
       ++job_class) {
    expect_same_view(a.per_class[job_class], b.per_class[job_class]);
  }
  EXPECT_EQ(b.global_slo.deadline_jobs, a.global_slo.deadline_jobs);
  EXPECT_EQ(b.global_slo.missed, a.global_slo.missed);
  EXPECT_EQ(b.global_slo.tardiness_p50, a.global_slo.tardiness_p50);
  EXPECT_EQ(b.global_slo.tardiness_p99, a.global_slo.tardiness_p99);
  ASSERT_EQ(b.per_class_slo.size(), a.per_class_slo.size());
  for (std::size_t job_class = 0; job_class < a.per_class_slo.size();
       ++job_class) {
    EXPECT_EQ(b.per_class_slo[job_class].deadline_jobs,
              a.per_class_slo[job_class].deadline_jobs);
    EXPECT_EQ(b.per_class_slo[job_class].missed,
              a.per_class_slo[job_class].missed);
  }
  EXPECT_EQ(b.migrations, a.migrations);
  EXPECT_EQ(b.steals, a.steals);
  EXPECT_EQ(b.workload, "materialized");
  // Streaming keeps only the in-flight window resident.
  EXPECT_LT(b.global.peak_resident_jobs, b.global.jobs_arrived);
}

TEST(ShardedDriver, MachineBusyTimesAreExposedBySimulator) {
  SimConfig sim_config;
  sim_config.horizon = 200.0;
  sim_config.arrival_rate = 0.3;
  sim_config.num_machines = 4;
  sim_config.seed = 5;
  GridSimulator sim(sim_config);
  GridSchedulingService service(deterministic_config(2));
  (void)sim.run(service);
  ASSERT_EQ(sim.machine_busy().size(), 4u);
  ASSERT_EQ(sim.machine_mips().size(), 4u);
  double busy = 0.0;
  for (const double b : sim.machine_busy()) busy += b;
  EXPECT_GT(busy, 0.0);
}

}  // namespace
}  // namespace gridsched
