#include "qos/qos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "common/stats.h"
#include "etc/instance.h"
#include "portfolio/portfolio.h"
#include "qos/admission.h"
#include "qos/qos_workload.h"
#include "service/grid_scheduling_service.h"
#include "service/sharded_driver.h"
#include "sim/grid_simulator.h"
#include "workload/trace_io.h"
#include "workload/workload_source.h"

namespace gridsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

Individual point(double makespan, double fitness) {
  Individual ind;
  ind.objectives = {makespan, makespan};
  ind.fitness = fitness;
  return ind;
}

QosOutcome outcome(int missed, double cost) {
  QosOutcome out;
  out.missed = missed;
  out.total_cost = cost;
  return out;
}

// ------------------------------------------------------------- QosSpec --

TEST(QosSpec, MirrorsTheTraceJobColumns) {
  TraceJob job;
  job.arrival = 3.0;
  job.workload_mi = 500.0;
  job.job_class = 2;
  job.deadline = 17.5;
  job.budget = 40.0;
  job.user = 4;
  const QosSpec spec = QosSpec::from_trace(job);
  EXPECT_DOUBLE_EQ(spec.deadline, 17.5);
  EXPECT_DOUBLE_EQ(spec.budget, 40.0);
  EXPECT_EQ(spec.user, 4);
  EXPECT_EQ(spec.job_class, 2);
  EXPECT_TRUE(spec.has_deadline());
  EXPECT_TRUE(spec.has_budget());
  const QosSpec none = QosSpec::from_trace(TraceJob{});
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.has_budget());
}

TEST(TraceIo, QosColumnsRoundTripExactly) {
  std::vector<TraceJob> jobs;
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    TraceJob job;
    job.arrival = static_cast<double>(i) + rng.uniform();
    job.workload_mi = std::exp(rng.normal(10.0, 0.8));
    job.job_class = i % 4 == 0 ? -1 : i % 4;
    // Mix every sentinel combination with irrational-looking values so the
    // CSV formatting is what carries (or loses) the bits.
    job.deadline = i % 3 == 0 ? -1.0 : job.arrival + 5.0 * rng.uniform();
    job.user = i % 5 == 0 ? -1 : i % 5;
    job.budget = job.user < 0 ? -1.0 : 100.0 + rng.uniform();
    jobs.push_back(job);
  }
  std::ostringstream out;
  write_trace(out, jobs);
  std::istringstream in(out.str());
  const std::vector<TraceJob> back = read_trace(in);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i], jobs[i]) << "job " << i << " mutated in round-trip";
  }
}

// -------------------------------------------------------- evaluate_qos --

TEST(EvaluateQos, ScoresSptCompletionsAgainstRelativeDeadlines) {
  // One machine, ready at 2, three jobs with ETCs 10/5/20. SPT order runs
  // job 1 first (finish 7), then job 0 (17), then job 2 (37).
  EtcMatrix etc(3, 1);
  etc.set(0, 0, 10.0);
  etc.set(1, 0, 5.0);
  etc.set(2, 0, 20.0);
  etc.set_ready_time(0, 2.0);
  Schedule plan(3, 0);
  const std::vector<double> deadlines{20.0, kInf, 30.0};
  const QosOutcome out = evaluate_qos(plan, etc, deadlines, {});
  EXPECT_EQ(out.deadline_jobs, 2);
  EXPECT_EQ(out.missed, 1);  // job 2 finishes at 37 > 30
  EXPECT_DOUBLE_EQ(out.total_tardiness, 7.0);
  EXPECT_DOUBLE_EQ(out.max_tardiness, 7.0);
  EXPECT_DOUBLE_EQ(out.miss_rate(), 0.5);
}

TEST(EvaluateQos, PricesExecutedWorkByColumnRates) {
  EtcMatrix etc(2, 2);
  etc.set(0, 0, 10.0);
  etc.set(0, 1, 4.0);
  etc.set(1, 0, 6.0);
  etc.set(1, 1, 8.0);
  Schedule plan(2);
  plan[0] = 1;
  plan[1] = 0;
  const std::vector<double> rates{2.0, 0.5};
  const QosOutcome priced = evaluate_qos(plan, etc, {}, rates);
  // job 0 on machine 1: 4 * 0.5; job 1 on machine 0: 6 * 2.
  EXPECT_DOUBLE_EQ(priced.total_cost, 14.0);
  const QosOutcome free = evaluate_qos(plan, etc, {}, {});
  EXPECT_DOUBLE_EQ(free.total_cost, 0.0);
}

TEST(EvaluateQos, SkipsRejectedAndUnassignedGenes) {
  EtcMatrix etc(3, 1);
  etc.set(0, 0, 10.0);
  etc.set(1, 0, 10.0);
  etc.set(2, 0, 10.0);
  Schedule plan(3);
  plan[0] = 0;
  plan[1] = Schedule::kRejected;
  plan[2] = -1;
  const std::vector<double> deadlines{100.0, 1.0, 1.0};
  const std::vector<double> rates{1.0};
  const QosOutcome out = evaluate_qos(plan, etc, deadlines, rates);
  // Only row 0 executes: the rejected and unassigned rows contribute
  // neither cost nor deadline accounting (the schedule does not run them).
  EXPECT_EQ(out.deadline_jobs, 1);
  EXPECT_EQ(out.missed, 0);
  EXPECT_DOUBLE_EQ(out.total_cost, 10.0);
}

TEST(EvaluateQos, EmptyDeadlinesMeanNoQos) {
  EtcMatrix etc(2, 1);
  etc.set(0, 0, 5.0);
  etc.set(1, 0, 5.0);
  const Schedule plan(2, 0);
  const QosOutcome out = evaluate_qos(plan, etc, {}, {});
  EXPECT_EQ(out.deadline_jobs, 0);
  EXPECT_EQ(out.missed, 0);
  EXPECT_DOUBLE_EQ(out.miss_rate(), 0.0);
}

TEST(QosActive, RequiresAFiniteDeadline) {
  EXPECT_FALSE(qos_active({}));
  const std::vector<double> all_inf{kInf, kInf};
  EXPECT_FALSE(qos_active(all_inf));
  const std::vector<double> one_finite{kInf, 12.0};
  EXPECT_TRUE(qos_active(one_finite));
}

// ----------------------------------------------------- pick_qos_winner --

TEST(PickQosWinner, PrefersKeptPromisesOverMakespan) {
  // B is slower but keeps every deadline; both sit on the front, and the
  // lexicographic (missed, ...) tie-break must pick B.
  const std::vector<Individual> candidates{point(10.0, 10.0),
                                           point(12.0, 12.0)};
  const std::vector<QosOutcome> outcomes{outcome(2, 0.0), outcome(0, 0.0)};
  EXPECT_EQ(pick_qos_winner(candidates, outcomes), 1u);
}

TEST(PickQosWinner, DominatedCandidatesNeverWin) {
  // Candidate 1 is dominated by candidate 0 on every objective; candidate
  // 2 trades makespan for cost and stays on the front.
  const std::vector<Individual> candidates{point(10.0, 10.0),
                                           point(11.0, 11.0),
                                           point(12.0, 12.0)};
  const std::vector<QosOutcome> outcomes{outcome(1, 5.0), outcome(1, 6.0),
                                         outcome(1, 1.0)};
  const std::size_t winner = pick_qos_winner(candidates, outcomes);
  EXPECT_NE(winner, 1u);
}

TEST(PickQosWinner, TieBreaksOnFitnessThenCostThenIndex) {
  // Equal missed counts: scalar fitness decides; then cost; then the
  // lower slot, so selection is deterministic under exact duplicates.
  const std::vector<Individual> by_fitness{point(10.0, 9.0),
                                           point(10.0, 8.0)};
  const std::vector<QosOutcome> same{outcome(0, 3.0), outcome(0, 3.0)};
  EXPECT_EQ(pick_qos_winner(by_fitness, same), 1u);

  const std::vector<Individual> equal_fitness{point(10.0, 8.0),
                                              point(10.0, 8.0)};
  const std::vector<QosOutcome> by_cost{outcome(0, 3.0), outcome(0, 2.0)};
  EXPECT_EQ(pick_qos_winner(equal_fitness, by_cost), 1u);
  EXPECT_EQ(pick_qos_winner(equal_fitness, same), 0u);
}

// ----------------------------------------------------------- admission --

TEST(Admission, DisabledAcceptsEverything) {
  AdmissionController off(AdmissionConfig{});
  EXPECT_EQ(off.admit(0.1, 50.0, 1e9, 1, 0.0, 10.0),
            AdmissionDecision::kAccept);
  EXPECT_EQ(off.stats().accepted, 1);
}

TEST(Admission, BudgetGateRejectsExhaustedAccounts) {
  AdmissionController admission(AdmissionConfig{.enabled = true});
  EXPECT_EQ(admission.admit(kInf, 5.0, 0.0, 1, 15.0, 10.0),
            AdmissionDecision::kAccept);
  EXPECT_DOUBLE_EQ(admission.spent(1), 10.0);
  EXPECT_EQ(admission.admit(kInf, 5.0, 0.0, 1, 15.0, 10.0),
            AdmissionDecision::kReject);
  EXPECT_EQ(admission.stats().rejected_budget, 1);
  // Another user's account is untouched; anonymous jobs are never charged.
  EXPECT_EQ(admission.admit(kInf, 5.0, 0.0, 2, 15.0, 10.0),
            AdmissionDecision::kAccept);
  EXPECT_EQ(admission.admit(kInf, 5.0, 0.0, -1, 15.0, 10.0),
            AdmissionDecision::kAccept);
  EXPECT_DOUBLE_EQ(admission.spent(-1), 0.0);
}

TEST(Admission, DoomedJobsDegradeAndShedOnlyUnderOverload) {
  AdmissionController admission(
      AdmissionConfig{.enabled = true, .overload_backlog = 5.0});
  // Doomed (slack 1 < best ETC 10) but the grid is calm: degrade.
  EXPECT_EQ(admission.admit(1.0, 10.0, 2.0, -1, -1.0, 0.0),
            AdmissionDecision::kBestEffort);
  EXPECT_EQ(admission.stats().degraded, 1);
  // Doomed AND overloaded: shed.
  EXPECT_EQ(admission.admit(1.0, 10.0, 50.0, -1, -1.0, 0.0),
            AdmissionDecision::kReject);
  EXPECT_EQ(admission.stats().rejected_overload, 1);
  // A feasible deadline sails through even under overload.
  EXPECT_EQ(admission.admit(100.0, 10.0, 50.0, -1, -1.0, 0.0),
            AdmissionDecision::kAccept);
  // Best-effort jobs are never shed, whatever the backlog.
  EXPECT_EQ(admission.admit(kInf, 10.0, 1e9, -1, -1.0, 0.0),
            AdmissionDecision::kAccept);
}

// --------------------------------------------------- latency histogram --

TEST(LatencyHistogram, EmptyAnswersZero) {
  const LatencyHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_DOUBLE_EQ(hist.p50(), 0.0);
  EXPECT_DOUBLE_EQ(hist.p99(), 0.0);
}

TEST(LatencyHistogram, PercentilesLandWithinBucketResolution) {
  LatencyHistogram hist;
  for (int i = 0; i < 1'000; ++i) hist.add(42.0);
  EXPECT_EQ(hist.count(), 1'000u);
  // ~15% geometric bucket width: the midpoint answer must stay close.
  EXPECT_NEAR(hist.p50(), 42.0, 0.16 * 42.0);
  EXPECT_NEAR(hist.p99(), 42.0, 0.16 * 42.0);
}

TEST(LatencyHistogram, TailPercentileDominatesTheMedian) {
  LatencyHistogram hist;
  for (int i = 0; i < 90; ++i) hist.add(1.0);
  for (int i = 0; i < 10; ++i) hist.add(1'000.0);
  EXPECT_NEAR(hist.p50(), 1.0, 0.16);
  EXPECT_GT(hist.p99(), 100.0);
}

TEST(LatencyHistogram, ClampsOutOfRangeSamplesInsteadOfDropping) {
  LatencyHistogram hist;
  hist.add(-5.0);
  hist.add(std::numeric_limits<double>::quiet_NaN());
  hist.add(1e12);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_LE(hist.percentile(0.0), LatencyHistogram::kMinValue * 1.2);
  EXPECT_GE(hist.p99(), LatencyHistogram::kMaxValue * 0.8);
}

TEST(LatencyHistogram, MergeSumsCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.add(1.0);
  for (int i = 0; i < 10; ++i) b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_NEAR(a.percentile(25.0), 1.0, 0.16);
  EXPECT_NEAR(a.percentile(75.0), 100.0, 16.0);
}

// -------------------------------------------- class-mix size scaling --

TEST(ClassMixWorkload, SizeScalesMultiplyPerClassSizes) {
  // Same seeds through the scaled and unscaled wrapper: arrivals and class
  // draws are identical, so each job's size must differ by exactly its
  // class's scale.
  Rng arrivals_a(21);
  Rng sizes_a(22);
  ClassMixWorkload plain(
      std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}), {1.0, 1.0});
  const std::vector<TraceJob> bare = plain.generate(500.0, arrivals_a,
                                                    sizes_a);
  Rng arrivals_b(21);
  Rng sizes_b(22);
  ClassMixWorkload scaled(
      std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}), {1.0, 1.0},
      {1.0, 10.0});
  const std::vector<TraceJob> heavy = scaled.generate(500.0, arrivals_b,
                                                      sizes_b);
  ASSERT_EQ(bare.size(), heavy.size());
  int scaled_jobs = 0;
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].arrival, heavy[i].arrival);
    EXPECT_EQ(bare[i].job_class, heavy[i].job_class);
    const double scale = heavy[i].job_class == 1 ? 10.0 : 1.0;
    EXPECT_DOUBLE_EQ(heavy[i].workload_mi, scale * bare[i].workload_mi);
    if (heavy[i].job_class == 1) ++scaled_jobs;
  }
  EXPECT_GT(scaled_jobs, 0) << "class 1 never drawn; scaling untested";
}

TEST(ClassMixWorkload, RejectsBadSizeScales) {
  const auto base = std::make_shared<PoissonWorkload>(1.0, LogNormalSize{});
  const std::vector<double> weights{1.0, 1.0};
  EXPECT_THROW(ClassMixWorkload(base, weights, {1.0}),
               std::invalid_argument);  // one scale per weight
  EXPECT_THROW(ClassMixWorkload(base, weights, {1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ClassMixWorkload(base, weights, {1.0, -2.0}),
               std::invalid_argument);
  EXPECT_THROW(ClassMixWorkload(base, weights, {1.0, kInf}),
               std::invalid_argument);
}

// -------------------------------------------------------- qos workload --

TEST(QosWorkload, StampsDeadlinesAtTheConfiguredFractionAndSlack) {
  QosWorkloadConfig config;
  config.deadline_fraction = 0.5;
  config.slack_min = 2.0;
  config.slack_max = 3.0;
  config.reference_mips = 1'000.0;
  QosWorkload qos(std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}),
                  config);
  EXPECT_EQ(qos.name(), "qos(poisson)");
  Rng arrivals(31);
  Rng sizes(32);
  const std::vector<TraceJob> jobs = qos.generate(2'000.0, arrivals, sizes);
  ASSERT_GT(jobs.size(), 500u);
  int with_deadline = 0;
  for (const TraceJob& job : jobs) {
    if (job.deadline < 0) continue;
    ++with_deadline;
    const double reference = job.workload_mi / config.reference_mips;
    const double slack = (job.deadline - job.arrival) / reference;
    EXPECT_GE(slack, config.slack_min - 1e-9);
    EXPECT_LE(slack, config.slack_max + 1e-9);
  }
  const double fraction = static_cast<double>(with_deadline) /
                          static_cast<double>(jobs.size());
  EXPECT_NEAR(fraction, 0.5, 0.06);
}

TEST(QosWorkload, AttributesUsersAndBudgets) {
  QosWorkloadConfig config;
  config.num_users = 3;
  config.user_budget = 50.0;
  QosWorkload qos(std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}),
                  config);
  Rng arrivals(41);
  Rng sizes(42);
  for (const TraceJob& job : qos.generate(500.0, arrivals, sizes)) {
    EXPECT_GE(job.user, 0);
    EXPECT_LT(job.user, 3);
    EXPECT_DOUBLE_EQ(job.budget, 50.0);
  }
  QosWorkload anonymous(
      std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}),
      QosWorkloadConfig{});
  Rng arrivals_b(41);
  Rng sizes_b(42);
  for (const TraceJob& job : anonymous.generate(500.0, arrivals_b, sizes_b)) {
    EXPECT_EQ(job.user, -1);
    EXPECT_DOUBLE_EQ(job.budget, -1.0);
  }
}

TEST(QosWorkload, WrappingDoesNotPerturbTheBaseStream) {
  Rng arrivals_a(51);
  Rng sizes_a(52);
  PoissonWorkload plain(1.0, LogNormalSize{});
  const std::vector<TraceJob> bare = plain.generate(300.0, arrivals_a,
                                                    sizes_a);
  Rng arrivals_b(51);
  Rng sizes_b(52);
  QosWorkload qos(std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}),
                  QosWorkloadConfig{});
  const std::vector<TraceJob> annotated = qos.generate(300.0, arrivals_b,
                                                       sizes_b);
  ASSERT_EQ(bare.size(), annotated.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].arrival, annotated[i].arrival);
    EXPECT_EQ(bare[i].workload_mi, annotated[i].workload_mi);
  }
}

TEST(QosWorkload, GenerationIsDeterministicInTheSeed) {
  QosWorkloadConfig config;
  config.num_users = 2;
  config.user_budget = 10.0;
  const auto make = [&] {
    return QosWorkload(
        std::make_shared<PoissonWorkload>(1.0, LogNormalSize{}), config);
  };
  Rng arrivals_a(61);
  Rng sizes_a(62);
  Rng arrivals_b(61);
  Rng sizes_b(62);
  QosWorkload a = make();
  QosWorkload b = make();
  EXPECT_EQ(a.generate(400.0, arrivals_a, sizes_a),
            b.generate(400.0, arrivals_b, sizes_b));
}

// ------------------------------------------- portfolio winner selection --

TEST(Portfolio, AllInfiniteDeadlinesFallBackToTheScalarWinner) {
  // The integration contract behind qos_active(): a QoS vector with no
  // finite deadline must leave the portfolio's winner — and its schedule —
  // bitwise identical to the no-QoS run.
  const EtcMatrix etc = small_instance(24, 6);
  PortfolioConfig config;
  config.stop = StopCondition{.max_time_ms = 60'000.0, .max_evaluations = 150};
  config.threads = 2;
  config.seed = 11;

  PortfolioBatchScheduler plain(config,
                                PortfolioBatchScheduler::default_members(
                                    config));
  const Schedule baseline = plain.schedule_batch(etc);

  BatchContext context = BatchContext::identity(etc);
  context.job_deadlines.assign(static_cast<std::size_t>(etc.num_jobs()),
                               kNoDeadline);
  PortfolioBatchScheduler with_qos(config,
                                   PortfolioBatchScheduler::default_members(
                                       config));
  const Schedule annotated = with_qos.schedule_batch(etc, context);

  EXPECT_EQ(baseline, annotated);
  ASSERT_FALSE(with_qos.activations().empty());
  EXPECT_FALSE(with_qos.activations().back().qos_pareto);
}

TEST(Portfolio, FiniteDeadlinesSwitchOnParetoSelection) {
  const EtcMatrix etc = small_instance(24, 6);
  PortfolioConfig config;
  config.stop = StopCondition{.max_time_ms = 60'000.0, .max_evaluations = 150};
  config.threads = 2;
  config.seed = 11;
  BatchContext context = BatchContext::identity(etc);
  context.job_deadlines.assign(static_cast<std::size_t>(etc.num_jobs()),
                               kNoDeadline);
  context.job_deadlines[0] = 1e-6;  // one doomed promise flips the switch
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const Schedule plan = portfolio.schedule_batch(etc, context);
  EXPECT_TRUE(plan.complete(etc.num_machines()));
  ASSERT_FALSE(portfolio.activations().empty());
  const ActivationRecord& record = portfolio.activations().back();
  EXPECT_TRUE(record.qos_pareto);
  EXPECT_GE(record.winner_missed, 1);  // the doomed row cannot be saved
}

// ------------------------------------------------- service integration --

TEST(Service, AdmissionShedsDoomedJobsUnderOverload) {
  EtcMatrix etc(8, 4);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      etc.set(job, machine, 10.0);
    }
  }
  for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
    etc.set_ready_time(machine, 50.0);  // mean backlog 50 >> threshold
  }
  BatchContext context = BatchContext::identity(etc);
  context.job_deadlines.assign(8, kNoDeadline);
  for (std::size_t row = 0; row < 4; ++row) {
    context.job_deadlines[row] = 5.0;  // slack 5 < best ETC 10: doomed
  }
  ServiceConfig config = deterministic_config(2);
  config.admission.enabled = true;
  config.admission.overload_backlog = 10.0;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc, context);
  ASSERT_TRUE(plan.complete(etc.num_machines()));
  for (JobId job = 0; job < 4; ++job) {
    EXPECT_EQ(plan[job], Schedule::kRejected) << "doomed row " << job;
  }
  for (JobId job = 4; job < 8; ++job) {
    EXPECT_GE(plan[job], 0) << "best-effort row " << job;
    EXPECT_LT(plan[job], etc.num_machines());
  }
  EXPECT_EQ(service.admission_stats().rejected_overload, 4);
  ASSERT_FALSE(service.service_activations().empty());
  EXPECT_EQ(service.service_activations().back().jobs_rejected, 4);
}

TEST(Service, AdmissionDegradesDoomedJobsWhenTheGridIsCalm) {
  EtcMatrix etc(6, 4);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      etc.set(job, machine, 10.0);
    }
  }
  BatchContext context = BatchContext::identity(etc);
  context.job_deadlines.assign(6, kNoDeadline);
  context.job_deadlines[0] = 5.0;  // doomed but backlog is zero
  ServiceConfig config = deterministic_config(2);
  config.admission.enabled = true;
  config.admission.overload_backlog = 10.0;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc, context);
  // Degraded, not shed: the job still runs somewhere.
  EXPECT_GE(plan[0], 0);
  EXPECT_EQ(service.admission_stats().degraded, 1);
  EXPECT_EQ(service.admission_stats().rejected(), 0);
}

TEST(Service, AdmissionChargesBudgetsPerUser) {
  EtcMatrix etc(3, 2);
  for (JobId job = 0; job < etc.num_jobs(); ++job) {
    for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
      etc.set(job, machine, 10.0);
    }
  }
  BatchContext context = BatchContext::identity(etc);
  context.machine_cost_rates = {1.0, 1.0};  // cost estimate = 10 per job
  context.job_users = {7, 7, 8};
  context.job_budgets = {15.0, 15.0, 15.0};
  ServiceConfig config = deterministic_config(2);
  config.admission.enabled = true;
  GridSchedulingService service(config);
  const Schedule plan = service.schedule_batch(etc, context);
  EXPECT_GE(plan[0], 0);                       // user 7 spends 10 of 15
  EXPECT_EQ(plan[1], Schedule::kRejected);     // 10 + 10 > 15: shed
  EXPECT_GE(plan[2], 0);                       // user 8's account is fresh
  EXPECT_EQ(service.admission_stats().rejected_budget, 1);
}

TEST(Service, RejectsMismatchedQosVectors) {
  const EtcMatrix etc = small_instance(4, 4);
  GridSchedulingService service(deterministic_config(2));
  BatchContext context = BatchContext::identity(etc);
  context.job_deadlines.assign(3, kNoDeadline);  // 3 != 4 rows
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context = BatchContext::identity(etc);
  context.machine_cost_rates.assign(5, 1.0);  // 5 != 4 columns
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
  context = BatchContext::identity(etc);
  context.job_users.assign(4, 0);
  context.job_budgets.assign(2, 1.0);  // 2 != 4 rows
  EXPECT_THROW((void)service.schedule_batch(etc, context),
               std::invalid_argument);
}

SimConfig qos_sim() {
  SimConfig config;
  config.horizon = 300.0;
  config.arrival_rate = 0.5;
  config.scheduler_period = 50.0;
  config.num_machines = 8;
  config.machine_mtbf = 150.0;
  config.machine_mttr = 40.0;
  config.num_job_classes = 2;
  config.class_speedup = 3.0;
  config.machine_cost_rate = 1.0;
  config.seed = 23;
  QosWorkloadConfig qos;
  qos.deadline_fraction = 0.6;
  qos.num_users = 2;
  config.workload = std::make_shared<QosWorkload>(
      std::make_shared<PoissonWorkload>(
          config.arrival_rate,
          LogNormalSize{config.workload_log_mean, config.workload_log_sigma}),
      qos);
  return config;
}

TEST(Service, QosRunUnderChurnReplaysBitForBit) {
  // The PR's record -> replay contract: deadline-aware routing, admission,
  // budgets, classes, churn and stealing all on; serialize the trace
  // through CSV text and demand the identical run back — deadlines,
  // rejections, costs and all.
  const SimConfig sim_config = qos_sim();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kDeadlineAware;
  config.drain_steal = true;
  config.admission.enabled = true;
  config.admission.overload_backlog = 30.0;
  config.member_stop = StopCondition{.max_evaluations = 120};

  GridSimulator sim(sim_config);
  GridSchedulingService service(config);
  const ShardedSimReport report = run_sharded(sim, service);
  ASSERT_GT(report.global.jobs_arrived, 0);
  ASSERT_GT(report.global_slo.deadline_jobs, 0);
  EXPECT_GT(report.global.total_cost, 0.0);
  // Lossless accounting: every arrival either completed or was rejected.
  EXPECT_EQ(report.global.jobs_completed + report.global.jobs_rejected,
            report.global.jobs_arrived);

  std::ostringstream out;
  write_trace(out, sim.arrival_trace());
  std::istringstream in(out.str());
  const std::vector<TraceJob> replayed_trace = read_trace(in);
  ASSERT_EQ(replayed_trace.size(), sim.arrival_trace().size());
  for (std::size_t i = 0; i < replayed_trace.size(); ++i) {
    EXPECT_EQ(replayed_trace[i], sim.arrival_trace()[i])
        << "trace job " << i << " mutated in the CSV";
  }

  SimConfig replay_config = sim_config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(replayed_trace);
  GridSimulator replayed(replay_config);
  GridSchedulingService fresh(config);
  const ShardedSimReport replay = run_sharded(replayed, fresh);

  EXPECT_EQ(replay.global.jobs_completed, report.global.jobs_completed);
  EXPECT_EQ(replay.global.jobs_rejected, report.global.jobs_rejected);
  EXPECT_EQ(replay.global.deadline_missed, report.global.deadline_missed);
  EXPECT_EQ(replay.global.total_cost, report.global.total_cost);
  EXPECT_EQ(replay.global_slo.missed, report.global_slo.missed);
  const std::vector<SimJobRecord>& recorded = sim.job_records();
  ASSERT_EQ(replayed.job_records().size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const SimJobRecord& a = recorded[i];
    const SimJobRecord& b = replayed.job_records()[i];
    EXPECT_EQ(a.machine, b.machine) << "job " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << i;
    EXPECT_EQ(a.rejected, b.rejected) << "job " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << "job " << i;
    EXPECT_DOUBLE_EQ(a.finish, b.finish) << "job " << i;
  }
}

TEST(Service, ChurnNeverStrandsARoutedJob) {
  // Regression for the stranded-row guard: under heavy churn (machines
  // dying mid-activation, re-queued jobs re-routed into a shrinking pool)
  // every arrival must still complete or be explicitly rejected — a plan
  // row silently left unassigned would surface here as a lost job.
  SimConfig sim_config = qos_sim();
  sim_config.machine_mtbf = 60.0;
  sim_config.machine_mttr = 30.0;
  sim_config.num_machines = 6;
  ServiceConfig config = deterministic_config(3);
  config.routing = RoutingKind::kDeadlineAware;
  config.admission.enabled = true;
  config.admission.overload_backlog = 20.0;
  config.member_stop = StopCondition{.max_evaluations = 100};
  GridSimulator sim(sim_config);
  GridSchedulingService service(config);
  const ShardedSimReport report = run_sharded(sim, service);
  ASSERT_GT(report.global.jobs_arrived, 0);
  EXPECT_EQ(report.global.jobs_completed + report.global.jobs_rejected,
            report.global.jobs_arrived);
  for (const SimJobRecord& record : sim.job_records()) {
    EXPECT_TRUE(record.finish >= 0 || record.rejected)
        << "job " << record.id << " stranded";
  }
}

TEST(ShardedDriver, PerClassSlosFollowTheSimulatorsAccounting) {
  const SimConfig sim_config = qos_sim();
  ServiceConfig config = deterministic_config(2);
  config.routing = RoutingKind::kDeadlineAware;
  config.member_stop = StopCondition{.max_evaluations = 100};
  GridSimulator sim(sim_config);
  GridSchedulingService service(config);
  const ShardedSimReport report = run_sharded(sim, service);
  ASSERT_GT(report.global_slo.deadline_jobs, 0);
  // The driver's SLO view and the simulator's metrics must agree exactly.
  EXPECT_EQ(report.global_slo.deadline_jobs, report.global.deadline_jobs);
  EXPECT_EQ(report.global_slo.missed, report.global.deadline_missed);
  ASSERT_EQ(report.per_class_slo.size(), 2u);
  int class_deadline_jobs = 0;
  int class_missed = 0;
  for (const ClassSlo& slo : report.per_class_slo) {
    class_deadline_jobs += slo.deadline_jobs;
    class_missed += slo.missed;
    EXPECT_GE(slo.tardiness_p99, slo.tardiness_p50);
    EXPECT_GE(slo.miss_rate(), 0.0);
    EXPECT_LE(slo.miss_rate(), 1.0);
  }
  EXPECT_EQ(class_deadline_jobs, report.global_slo.deadline_jobs);
  EXPECT_EQ(class_missed, report.global_slo.missed);
}

}  // namespace
}  // namespace gridsched
