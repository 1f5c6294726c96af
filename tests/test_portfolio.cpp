#include "portfolio/portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "etc/instance.h"
#include "sim/grid_simulator.h"

namespace gridsched {
namespace {

EtcMatrix small_instance(int jobs = 48, int machines = 8,
                         std::uint64_t seed = 3) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  spec.seed = seed;
  return generate_instance(spec);
}

/// A deterministic portfolio: generous wall budget, hard evaluation bound.
PortfolioConfig deterministic_config() {
  PortfolioConfig config;
  config.stop = StopCondition{.max_time_ms = 60'000.0, .max_evaluations = 200};
  config.threads = 2;
  config.seed = 11;
  return config;
}

// ---------------------------------------------------------------- cache --

TEST(PopulationCache, EmptyUntilStored) {
  PopulationCache cache(4);
  EXPECT_TRUE(cache.empty());
  const EtcMatrix etc = small_instance(4, 2);
  EXPECT_TRUE(cache.warm_start(etc, BatchContext::identity(etc)).empty());
}

TEST(PopulationCache, StoreKeepsOnlyTheBestCapacity) {
  PopulationCache cache(2);
  const EtcMatrix etc = small_instance(4, 2);
  std::vector<Individual> elites;
  for (int i = 0; i < 5; ++i) {
    Individual ind;
    ind.schedule = Schedule(4, static_cast<MachineId>(i % 2));
    ind.fitness = 10.0 - i;  // later ones are better
    elites.push_back(ind);
  }
  cache.store(BatchContext::identity(etc), elites);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PopulationCache, RequeuedJobKeepsItsMachineAcrossRemap) {
  PopulationCache cache(4);
  // Old batch: jobs {10, 11, 12} on grid machines {0, 1, 2}.
  EtcMatrix old_etc(3, 3);
  BatchContext old_ctx;
  old_ctx.job_ids = {10, 11, 12};
  old_ctx.machine_ids = {0, 1, 2};
  Individual elite;
  elite.schedule = Schedule(3);
  elite.schedule[0] = 0;  // job 10 -> machine 0
  elite.schedule[1] = 1;  // job 11 -> machine 1
  elite.schedule[2] = 2;  // job 12 -> machine 2
  elite.fitness = 1.0;
  cache.store(old_ctx, {&elite, 1});

  // New batch: job 12 re-queued plus a fresh job 20; machine 1 died, so
  // columns now map to grid machines {0, 2}.
  EtcMatrix new_etc(2, 2);
  new_etc.set(0, 0, 5.0);
  new_etc.set(0, 1, 1.0);
  new_etc.set(1, 0, 1.0);
  new_etc.set(1, 1, 5.0);
  BatchContext new_ctx;
  new_ctx.job_ids = {12, 20};
  new_ctx.machine_ids = {0, 2};

  const std::vector<Schedule> warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm[0].complete(2));
  // Job 12 ran on grid machine 2, which is now column 1.
  EXPECT_EQ(warm[0][0], 1);
}

TEST(PopulationCache, DeadMachineFallsBackToFastestColumn) {
  PopulationCache cache(4);
  EtcMatrix old_etc(1, 2);
  BatchContext old_ctx;
  old_ctx.job_ids = {7};
  old_ctx.machine_ids = {4, 5};
  Individual elite;
  elite.schedule = Schedule(1);
  elite.schedule[0] = 1;  // job 7 -> grid machine 5
  elite.fitness = 1.0;
  cache.store(old_ctx, {&elite, 1});

  // Machine 5 is gone; the new batch sees machines {4, 6}; job 7 is
  // fastest on column 1 (machine 6).
  EtcMatrix new_etc(1, 2);
  new_etc.set(0, 0, 9.0);
  new_etc.set(0, 1, 2.0);
  BatchContext new_ctx;
  new_ctx.job_ids = {7};
  new_ctx.machine_ids = {4, 6};

  const std::vector<Schedule> warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0][0], 1);
}

TEST(PopulationCache, NewJobsInheritThePatternAndStayComplete) {
  PopulationCache cache(4);
  EtcMatrix old_etc(2, 2);
  BatchContext old_ctx = BatchContext::identity(old_etc);
  Individual elite;
  elite.schedule = Schedule(2);
  elite.schedule[0] = 1;
  elite.schedule[1] = 0;
  elite.fitness = 1.0;
  cache.store(old_ctx, {&elite, 1});

  // Entirely fresh jobs, same machines: pattern transfer by row index.
  EtcMatrix new_etc(5, 2);
  BatchContext new_ctx;
  new_ctx.job_ids = {100, 101, 102, 103, 104};
  new_ctx.machine_ids = {0, 1};
  const std::vector<Schedule> warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm[0].complete(2));
  EXPECT_EQ(warm[0][0], 1);  // row 0 copies old row 0
  EXPECT_EQ(warm[0][1], 0);  // row 1 copies old row 1
  EXPECT_EQ(warm[0][2], 1);  // row 2 wraps to old row 0
}

TEST(PopulationCache, EraseJobDropsTheRowEverywhere) {
  PopulationCache cache(4);
  EtcMatrix old_etc(3, 2);
  BatchContext old_ctx;
  old_ctx.job_ids = {10, 11, 12};
  old_ctx.machine_ids = {0, 1};
  Individual elite;
  elite.schedule = Schedule(3);
  elite.schedule[0] = 0;
  elite.schedule[1] = 1;
  elite.schedule[2] = 0;
  elite.fitness = 1.0;
  cache.store(old_ctx, {&elite, 1});

  EXPECT_FALSE(cache.erase_job(99));  // unknown job: no-op
  EXPECT_TRUE(cache.erase_job(11));
  ASSERT_EQ(cache.stored_job_ids(), (std::vector<int>{10, 12}));
  // Re-queued job 12 still remaps to its machine after the erase: the
  // surviving rows shifted coherently.
  EtcMatrix new_etc(1, 2);
  BatchContext new_ctx;
  new_ctx.job_ids = {12};
  new_ctx.machine_ids = {0, 1};
  const std::vector<Schedule> warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0][0], 0);
}

TEST(PopulationCache, AdoptJobAddsOrReassignsOnEveryElite) {
  PopulationCache cache(4);
  EtcMatrix old_etc(2, 2);
  BatchContext old_ctx;
  old_ctx.job_ids = {10, 11};
  old_ctx.machine_ids = {0, 1};
  Individual elite;
  elite.schedule = Schedule(2);
  elite.schedule[0] = 0;
  elite.schedule[1] = 1;
  elite.fitness = 1.0;
  cache.store(old_ctx, {&elite, 1});

  // A stolen job lands on grid machine 5 — new to this cache's batch.
  cache.adopt_job(42, 5);
  ASSERT_EQ(cache.stored_job_ids(), (std::vector<int>{10, 11, 42}));
  ASSERT_EQ(cache.stored_machine_ids(), (std::vector<int>{0, 1, 5}));
  // A re-queue of job 42 with machine 5 alive warm-starts onto it.
  EtcMatrix new_etc(1, 2);
  BatchContext new_ctx;
  new_ctx.job_ids = {42};
  new_ctx.machine_ids = {1, 5};
  std::vector<Schedule> warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0][0], 1);  // machine 5 = new column 1

  // Adopting a job the cache already stores reassigns it in place.
  cache.adopt_job(10, 1);
  ASSERT_EQ(cache.stored_job_ids(), (std::vector<int>{10, 11, 42}));
  new_ctx.job_ids = {10};
  new_ctx.machine_ids = {0, 1};
  warm = cache.warm_start(new_etc, new_ctx);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0][0], 1);

  // An empty cache has no elite to extend: adopt is a documented no-op.
  PopulationCache fresh(2);
  fresh.adopt_job(1, 2);
  EXPECT_TRUE(fresh.empty());
  EXPECT_TRUE(fresh.stored_job_ids().empty());
}

// ------------------------------------------------------------ portfolio --

// ----------------------------------------------------------------- lahc --

TEST(LahcMember, PreCancelledTokenStillReturnsACompleteSchedule) {
  // Mirrors the cancellation contract every member honors: a token that
  // fired before solve() must still yield a complete schedule (the
  // constructive seed at worst), near-instantly.
  const EtcMatrix etc = small_instance(64, 8);
  CancellationSource source;
  source.request_cancel();
  StopCondition stop;
  stop.cancel = source.token();
  LahcMember member;
  const MemberResult result = member.solve(etc, stop, {}, 5);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  EXPECT_TRUE(std::isfinite(result.best.fitness));
}

TEST(LahcMember, NeverWorseThanItsSeed) {
  // Without warm starts LAHC seeds from MCT; the best-so-far tracking
  // guarantees the result never falls behind that seed, whatever the
  // late-acceptance walk wanders through.
  const EtcMatrix etc = small_instance(64, 8);
  Rng rng(17);
  const Individual seed_individual =
      make_individual(construct_schedule(HeuristicKind::kMct, etc, rng),
                      etc, FitnessWeights{});
  LahcMember member;
  StopCondition stop;
  stop.max_evaluations = 2'000;
  const MemberResult result = member.solve(etc, stop, {}, 17);
  EXPECT_LE(result.best.fitness, seed_individual.fitness);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
}

TEST(LahcMember, SeedsFromTheBestWarmElite) {
  // Hand the member a warm schedule that is better than anything a short
  // budget could find from scratch: the result must be at least that good.
  const EtcMatrix etc = small_instance(48, 6);
  Rng rng(23);
  const Schedule warm_best =
      construct_schedule(HeuristicKind::kMinMin, etc, rng);
  const Schedule warm_other =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  const double warm_fitness =
      make_individual(warm_best, etc, FitnessWeights{}).fitness;
  const std::vector<Schedule> warm{warm_other, warm_best};
  LahcMember member;
  StopCondition stop;
  stop.max_evaluations = 500;
  const MemberResult result = member.solve(etc, stop, warm, 23);
  EXPECT_LE(result.best.fitness, warm_fitness);
}

TEST(LahcMember, ImprovesOnItsSeedGivenBudget) {
  const EtcMatrix etc = small_instance(96, 8);
  Rng rng(29);
  const double seed_fitness =
      make_individual(construct_schedule(HeuristicKind::kMct, etc, rng),
                      etc, FitnessWeights{}).fitness;
  LahcMember member;
  StopCondition stop;
  stop.max_evaluations = 20'000;
  const MemberResult result = member.solve(etc, stop, {}, 29);
  EXPECT_LT(result.best.fitness, seed_fitness);
  EXPECT_LE(result.evaluations, 20'000 + 1);
}

TEST(LahcMember, DeterministicInSeed) {
  const EtcMatrix etc = small_instance(48, 6);
  LahcMember member;
  StopCondition stop;
  stop.max_evaluations = 3'000;
  const MemberResult a = member.solve(etc, stop, {}, 41);
  const MemberResult b = member.solve(etc, stop, {}, 41);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Portfolio, DefaultMembersIncludeLahc) {
  const PortfolioConfig config;
  const auto members = PortfolioBatchScheduler::default_members(config);
  EXPECT_TRUE(std::any_of(members.begin(), members.end(),
                          [](const auto& m) { return m->name() == "LAHC"; }));
}

TEST(Portfolio, DeterministicUnderFixedSeed) {
  const EtcMatrix etc = small_instance();
  PortfolioConfig config = deterministic_config();

  PortfolioBatchScheduler a(config,
                            PortfolioBatchScheduler::default_members(config));
  PortfolioBatchScheduler b(config,
                            PortfolioBatchScheduler::default_members(config));
  const Schedule plan_a = a.schedule_batch(etc);
  const Schedule plan_b = b.schedule_batch(etc);
  EXPECT_EQ(plan_a, plan_b);
  ASSERT_EQ(a.activations().size(), 1u);
  ASSERT_EQ(b.activations().size(), 1u);
  EXPECT_EQ(a.activations()[0].winner, b.activations()[0].winner);
  EXPECT_DOUBLE_EQ(a.activations()[0].best_fitness,
                   b.activations()[0].best_fitness);

  // And across consecutive activations (warm start included).
  EXPECT_EQ(a.schedule_batch(etc), b.schedule_batch(etc));
}

TEST(Portfolio, NeverLosesToItsConstructiveMembers) {
  const EtcMatrix etc = small_instance(64, 8);
  PortfolioConfig config = deterministic_config();
  config.stop.max_evaluations = 60;  // starved
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const Schedule plan = portfolio.schedule_batch(etc);
  const Individual planned = make_individual(plan, etc, config.weights);
  const Individual minmin =
      make_individual(min_min(etc), etc, config.weights);
  const Individual from_mct = make_individual(mct(etc), etc, config.weights);
  EXPECT_LE(planned.fitness, minmin.fitness + 1e-9);
  EXPECT_LE(planned.fitness, from_mct.fitness + 1e-9);
}

TEST(Portfolio, MembersRespectTheActivationBudget) {
  const EtcMatrix etc = small_instance(96, 12);
  PortfolioConfig config;
  config.stop = StopCondition{.max_time_ms = 50.0};  // the deadline alone
  config.threads = 2;
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const Schedule plan = portfolio.schedule_batch(etc);
  EXPECT_TRUE(plan.complete(etc.num_machines()));
  // Cooperative cancellation: a member overshoots by at most one
  // local-search pass plus scheduling jitter. The tolerance is deliberately
  // loose (CI runners get preempted); what it must catch is a member
  // ignoring the deadline and running to its own stop condition.
  const double tolerance_ms = 2'000.0;
  for (const MemberStats& stat : portfolio.member_stats()) {
    if (stat.runs == 0) continue;
    EXPECT_LE(stat.total_ms, config.stop.max_time_ms + tolerance_ms)
        << stat.name << " overshot the activation budget";
  }
}

TEST(Portfolio, WarmStartCacheFillsAndFeedsTheNextActivation) {
  const EtcMatrix etc = small_instance(32, 6);
  PortfolioConfig config = deterministic_config();
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  EXPECT_TRUE(portfolio.cache().empty());
  (void)portfolio.schedule_batch(etc);
  EXPECT_FALSE(portfolio.cache().empty());
  // Second activation consumes the cache without blowing up, and still
  // returns a complete schedule.
  const Schedule plan = portfolio.schedule_batch(etc);
  EXPECT_TRUE(plan.complete(etc.num_machines()));
}

TEST(Portfolio, EveryMemberRacesEveryActivation) {
  const EtcMatrix etc = small_instance(32, 6);
  PortfolioConfig config = deterministic_config();
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  EXPECT_EQ(portfolio.name(), "Portfolio");
  for (int i = 0; i < 4; ++i) {
    const Schedule plan = portfolio.schedule_batch(etc);
    EXPECT_TRUE(plan.complete(etc.num_machines()));
  }
  ASSERT_EQ(portfolio.activations().size(), 4u);
  int wins = 0;
  for (const MemberStats& stat : portfolio.member_stats()) {
    EXPECT_EQ(stat.runs, 4) << stat.name;
    wins += stat.wins;
  }
  EXPECT_EQ(wins, 4);
}

TEST(Portfolio, SharedPoolMatchesOwnedPool) {
  const EtcMatrix etc = small_instance();
  PortfolioConfig config = deterministic_config();
  PortfolioBatchScheduler owned(
      config, PortfolioBatchScheduler::default_members(config));
  ThreadPool shared(2);
  PortfolioBatchScheduler on_shared(
      config, PortfolioBatchScheduler::default_members(config), shared);
  // Evaluation-bounded members are deterministic regardless of which pool
  // executes them, so the two portfolios must agree bitwise.
  EXPECT_EQ(owned.schedule_batch(etc), on_shared.schedule_batch(etc));
  EXPECT_EQ(owned.schedule_batch(etc), on_shared.schedule_batch(etc));
}

TEST(Portfolio, TwoPortfoliosRaceConcurrentlyOnOneSharedPool) {
  // Group-scoped racing is what makes this legal: each schedule_batch
  // waits on its own TaskGroup instead of draining the shared pool, so
  // two portfolios may race at the same time — the sharded service's
  // concurrent shard activation relies on exactly this.
  const EtcMatrix etc_a = small_instance(48, 8, 3);
  const EtcMatrix etc_b = small_instance(40, 6, 9);
  PortfolioConfig config = deterministic_config();

  // Reference answers from solo runs.
  PortfolioBatchScheduler solo_a(
      config, PortfolioBatchScheduler::default_members(config));
  PortfolioBatchScheduler solo_b(
      config, PortfolioBatchScheduler::default_members(config));
  const Schedule want_a = solo_a.schedule_batch(etc_a);
  const Schedule want_b = solo_b.schedule_batch(etc_b);

  ThreadPool shared(2);
  PortfolioBatchScheduler concurrent_a(
      config, PortfolioBatchScheduler::default_members(config), shared);
  PortfolioBatchScheduler concurrent_b(
      config, PortfolioBatchScheduler::default_members(config), shared);
  Schedule got_a;
  std::thread racer([&] { got_a = concurrent_a.schedule_batch(etc_a); });
  const Schedule got_b = concurrent_b.schedule_batch(etc_b);
  racer.join();
  // Evaluation-bounded members are deterministic regardless of pool
  // sharing and interleaving, so both concurrent races must agree bitwise
  // with their solo references.
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
}

TEST(Portfolio, SetBudgetRearmsTheDeadline) {
  PortfolioConfig config = deterministic_config();
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  portfolio.set_budget_ms(123.0);
  EXPECT_DOUBLE_EQ(portfolio.config().stop.max_time_ms, 123.0);
  EXPECT_THROW(portfolio.set_budget_ms(0.0), std::invalid_argument);
}

TEST(Portfolio, SingleJobBatchShortcut) {
  EtcMatrix etc(1, 3, {30, 10, 20});
  PortfolioConfig config = deterministic_config();
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const Schedule s = portfolio.schedule_batch(etc);
  EXPECT_EQ(s[0], 1);
}

TEST(Portfolio, RejectsBadConfigs) {
  PortfolioConfig config = deterministic_config();
  EXPECT_THROW(PortfolioBatchScheduler(config, {}), std::invalid_argument);
  for (const double budget_ms :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    config.stop.max_time_ms = budget_ms;
    EXPECT_THROW(PortfolioBatchScheduler(
                     config, PortfolioBatchScheduler::default_members(config)),
                 std::invalid_argument)
        << budget_ms;
  }
  config.stop.max_time_ms = 25.0;
  config.stop.max_evaluations = -1;
  EXPECT_THROW(PortfolioBatchScheduler(
                   config, PortfolioBatchScheduler::default_members(config)),
               std::invalid_argument);
  config.stop.max_evaluations = 0;
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  EXPECT_THROW(portfolio.set_budget_ms(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(portfolio.set_budget_ms(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(portfolio.set_budget_ms(1e13));
}

TEST(Portfolio, RunsTheDynamicGridEndToEnd) {
  SimConfig sim_config;
  sim_config.horizon = 300.0;
  sim_config.arrival_rate = 0.4;
  sim_config.scheduler_period = 50.0;
  sim_config.num_machines = 5;
  sim_config.machine_mtbf = 120.0;  // churn exercises the machine remap
  sim_config.machine_mttr = 40.0;
  sim_config.seed = 17;
  GridSimulator sim(sim_config);

  PortfolioConfig config = deterministic_config();
  config.stop.max_evaluations = 120;
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const SimMetrics metrics = sim.run(portfolio);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  EXPECT_FALSE(portfolio.activations().empty());
  for (const ActivationRecord& record : portfolio.activations()) {
    EXPECT_GE(record.winner, 0);
    EXPECT_FALSE(record.winner_name.empty());
    EXPECT_GT(record.best_fitness, 0.0);
  }
}

TEST(BatchContext, IdentityCoversTheMatrix) {
  EtcMatrix etc(3, 2);
  const BatchContext ctx = BatchContext::identity(etc, 5);
  EXPECT_EQ(ctx.job_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctx.machine_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(ctx.activation, 5u);
}

// --------------------------------------------------- warm-started engine --

TEST(CmaWarmStart, SeededScheduleBoundsTheResult) {
  const EtcMatrix etc = small_instance(40, 8);
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 30};
  const Schedule seed_schedule = min_min(etc);
  const Individual seeded =
      make_individual(seed_schedule, etc, config.weights);
  const std::vector<Schedule> warm{seed_schedule};
  const EvolutionResult result =
      CellularMemeticAlgorithm(config).run(etc, warm);
  // The warm elite enters the mesh and is only ever improved.
  EXPECT_LE(result.best.fitness, seeded.fitness + 1e-9);
}

TEST(CmaWarmStart, RejectsIllFittingSchedules) {
  const EtcMatrix etc = small_instance(10, 4);
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 10};
  const std::vector<Schedule> wrong_size{Schedule(3, 0)};
  EXPECT_THROW((void)CellularMemeticAlgorithm(config).run(etc, wrong_size),
               std::invalid_argument);
}

TEST(CmaWarmStart, FinalPopulationExportedOnRequest) {
  const EtcMatrix etc = small_instance(12, 4);
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 40};
  config.keep_final_population = true;
  const EvolutionResult result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_EQ(result.population.size(),
            static_cast<std::size_t>(config.pop_height * config.pop_width));
  CmaConfig plain = config;
  plain.keep_final_population = false;
  EXPECT_TRUE(CellularMemeticAlgorithm(plain).run(etc).population.empty());
}

}  // namespace
}  // namespace gridsched
