#include "cma/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

EtcMatrix test_instance(int jobs = 64, int machines = 8) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  return generate_instance(spec);
}

const FitnessWeights kWeights{};

TEST(LocalSearch, NoneIsANoop) {
  const EtcMatrix etc = test_instance();
  Rng rng(1);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const Schedule before = eval.schedule();
  const LocalSearchConfig config{LocalSearchKind::kNone, 5};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(eval.schedule(), before);
}

TEST(LocalSearch, EveryMethodNeverWorsensFitness) {
  const EtcMatrix etc = test_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kLocalMove, LocalSearchKind::kSteepestLocalMove,
        LocalSearchKind::kLmcts}) {
    Rng rng(2);
    ScheduleEvaluator eval(etc);
    for (int trial = 0; trial < 10; ++trial) {
      eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
      const double before = eval.fitness(kWeights);
      const LocalSearchConfig config{kind, 5};
      local_search(config, kWeights, eval, rng);
      EXPECT_LE(eval.fitness(kWeights), before + 1e-9)
          << local_search_name(kind);
      eval.check_consistency();
    }
  }
}

TEST(LocalSearch, MakespanObjectiveNeverWorsensMakespan) {
  const EtcMatrix etc = test_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kLocalMove, LocalSearchKind::kSteepestLocalMove,
        LocalSearchKind::kLmcts}) {
    Rng rng(3);
    ScheduleEvaluator eval(etc);
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    const double before = eval.makespan();
    LocalSearchConfig config{kind, 8};
    config.objective = LsObjective::kMakespan;
    local_search(config, kWeights, eval, rng);
    EXPECT_LE(eval.makespan(), before + 1e-9) << local_search_name(kind);
  }
}

TEST(LocalSearch, LmctsExhaustiveScanFixesAnUnbalancedSchedule) {
  EtcMatrix etc(4, 2, {1, 100,   // job 0: fast on m0
                       100, 1,   // job 1: fast on m1
                       1, 100,   // job 2
                       100, 1}); // job 3
  // Anti-optimal: the slow machine everywhere.
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  EXPECT_DOUBLE_EQ(eval.makespan(), 200.0);
  Rng rng(4);
  LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
  config.scan = LmctsScan::kCriticalAllJobs;
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  // Two swaps fix everything: makespan 2.
  EXPECT_DOUBLE_EQ(eval.makespan(), 2.0);
}

TEST(LocalSearch, LmctsDefaultScanImprovesTheSameSchedule) {
  // Same instance as above, default (random-critical-job) scan: with a few
  // iterations it must at least improve substantially, whichever focus
  // jobs the RNG draws.
  EtcMatrix etc(4, 2, {1, 100, 100, 1, 1, 100, 100, 1});
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  Rng rng(4);
  const LocalSearchConfig config{LocalSearchKind::kLmcts, 8};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  EXPECT_LT(eval.makespan(), 200.0);
}

TEST(LocalSearch, SteepestMoveFindsTheBestMachineForItsJob) {
  // One job, three machines: SLM must land it on the global best.
  EtcMatrix etc(1, 3, {50, 10, 30});
  Schedule s(1, 0);
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  Rng rng(5);
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 1};
  local_search(config, kWeights, eval, rng);
  EXPECT_EQ(eval.schedule()[0], 1);
}

TEST(LocalSearch, IterationBudgetIsRespected) {
  const EtcMatrix etc = test_instance();
  Rng rng(6);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  for (int budget : {1, 3, 7}) {
    const LocalSearchConfig config{LocalSearchKind::kLocalMove, budget};
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_EQ(stats.iterations_run, budget);
  }
}

TEST(LocalSearch, LmctsDeterministicScansStopEarlyAtLocalOptimum) {
  // Tiny instance that is already optimal: exhaustive scans must notice
  // and break out of the iteration budget.
  EtcMatrix etc(4, 2, {1, 2, 2, 1, 1, 2, 2, 1});
  Schedule s(4);
  s[0] = 0;
  s[1] = 1;
  s[2] = 0;
  s[3] = 1;  // already optimal
  for (LmctsScan scan : {LmctsScan::kCriticalAllJobs, LmctsScan::kFull}) {
    ScheduleEvaluator eval(etc);
    eval.reset(s);
    Rng rng(7);
    LocalSearchConfig config{LocalSearchKind::kLmcts, 50};
    config.scan = scan;
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_LT(stats.iterations_run, 50);  // broke out early
    EXPECT_EQ(stats.improvements, 0);
  }
}

TEST(LocalSearch, FullScanFindsStrictlyMoreOrEqualImprovement) {
  const EtcMatrix etc = test_instance(48, 6);
  Rng seed_rng(8);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);

  auto run_scan = [&](LmctsScan scan) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(9);
    LocalSearchConfig config{LocalSearchKind::kLmcts, 1};
    config.scan = scan;
    local_search(config, kWeights, eval, rng);
    return eval.fitness(kWeights);
  };
  // A single full-scan step picks the best swap overall; the restricted
  // scans choose from candidate subsets and cannot beat it.
  EXPECT_LE(run_scan(LmctsScan::kFull),
            run_scan(LmctsScan::kCriticalAllJobs) + 1e-9);
  EXPECT_LE(run_scan(LmctsScan::kFull),
            run_scan(LmctsScan::kCriticalRandomJob) + 1e-9);
}

TEST(LocalSearch, SampledScanImprovesWithinBudget) {
  const EtcMatrix etc = test_instance();
  Rng rng(10);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const double before = eval.fitness(kWeights);
  LocalSearchConfig config{LocalSearchKind::kLmcts, 3};
  config.scan = LmctsScan::kSampled;
  config.sampled_pairs = 256;
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_LE(eval.fitness(kWeights), before);
  EXPECT_LE(stats.previews, 3 * 256);
}

TEST(LocalSearch, StatsCountPreviews) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(11);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 2};
  const auto stats = local_search(config, kWeights, eval, rng);
  // SLM previews every other machine once per iteration.
  EXPECT_EQ(stats.previews, 2 * (4 - 1));
}

TEST(LocalSearch, DeterministicInSeed) {
  const EtcMatrix etc = test_instance();
  Rng seed_rng(12);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);
  auto run = [&](std::uint64_t seed) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(seed);
    const LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
    local_search(config, kWeights, eval, rng);
    return eval.schedule();
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(LocalSearch, PreCancelledTokenStopsBeforeTheFirstMove) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(7);
  ScheduleEvaluator eval(etc);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  eval.reset(start);
  CancellationSource source;
  source.request_cancel();
  const LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
  const auto stats = local_search(config, kWeights, eval, rng, source.token());
  // The poll fires between neighborhood moves, so an already-expired
  // budget costs zero previews and leaves the schedule untouched.
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(stats.previews, 0);
  EXPECT_EQ(eval.schedule(), start);
}

TEST(LocalSearch, InvalidTokenKeepsTheFullWalk) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(7);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 3};
  const auto stats =
      local_search(config, kWeights, eval, rng, CancellationToken{});
  EXPECT_EQ(stats.iterations_run, 3);
}

TEST(LocalSearch, NamesAreStable) {
  EXPECT_EQ(local_search_name(LocalSearchKind::kNone), "None");
  EXPECT_EQ(local_search_name(LocalSearchKind::kLocalMove), "LM");
  EXPECT_EQ(local_search_name(LocalSearchKind::kSteepestLocalMove), "SLM");
  EXPECT_EQ(local_search_name(LocalSearchKind::kLmcts), "LMCTS");
  EXPECT_EQ(local_search_name(LocalSearchKind::kVns), "VNS");
}

TEST(Vns, LadderWithEscalationDisabledIsBitwiseSteepestMove) {
  // With vns_max_rung = 0 the ladder never leaves rung 0, which delegates
  // to the SLM step: same RNG draws, same previews, same applies — the
  // walks must agree bitwise (schedule, objectives, stats).
  const EtcMatrix etc = test_instance();
  Rng seed_rng(20);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);

  auto run = [&](LocalSearchKind kind) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(21);
    LocalSearchConfig config{kind, 12};
    config.vns_max_rung = 0;
    const auto stats = local_search(config, kWeights, eval, rng);
    return std::tuple{eval.schedule(), eval.makespan(), eval.flowtime(),
                      stats.iterations_run, stats.improvements,
                      stats.previews};
  };
  EXPECT_EQ(run(LocalSearchKind::kVns),
            run(LocalSearchKind::kSteepestLocalMove));
}

TEST(Vns, NeverWorsensAndLeavesAConsistentState) {
  const EtcMatrix etc = test_instance();
  Rng rng(22);
  ScheduleEvaluator eval(etc);
  for (int trial = 0; trial < 10; ++trial) {
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    const double before = eval.fitness(kWeights);
    LocalSearchConfig config{LocalSearchKind::kVns, 20};
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_LE(eval.fitness(kWeights), before + 1e-9);
    EXPECT_EQ(stats.iterations_run, 20);  // no deterministic early break
    eval.check_consistency();
  }
}

TEST(Vns, EjectionChainRungFixesWhatSingleMovesCannot) {
  // Start anti-optimal on a 2-machine instance where single moves off the
  // critical machine stall (every relocation overloads the target) but
  // the two-move chain — move a critical job over, eject one back —
  // makes progress. Force the chain rung by running enough iterations.
  EtcMatrix etc(4, 2, {1, 100, 100, 1, 1, 100, 100, 1});
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  EXPECT_DOUBLE_EQ(eval.makespan(), 200.0);
  Rng rng(23);
  LocalSearchConfig config{LocalSearchKind::kVns, 40};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 2.0);  // the optimum for this instance
  eval.check_consistency();
}

TEST(Vns, PreCancelledTokenCostsNothing) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(24);
  ScheduleEvaluator eval(etc);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  eval.reset(start);
  CancellationSource source;
  source.request_cancel();
  const LocalSearchConfig config{LocalSearchKind::kVns, 20};
  const auto stats = local_search(config, kWeights, eval, rng, source.token());
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(stats.previews, 0);
  EXPECT_EQ(eval.schedule(), start);
}

TEST(Vns, DeterministicInSeed) {
  const EtcMatrix etc = test_instance();
  Rng seed_rng(25);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);
  auto run = [&] {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(26);
    const LocalSearchConfig config{LocalSearchKind::kVns, 15};
    local_search(config, kWeights, eval, rng);
    return eval.schedule();
  };
  EXPECT_EQ(run(), run());
}

// --- Job-order oracle for the LMCTS swap kernel. ----------------------------
//
// The deterministic LMCTS scans run ScheduleEvaluator::best_swap, which
// walks the partner machines' sorted lists with the focus job's removal,
// insertion ranks and rest-of-fleet makespan hoisted. This is the
// pair-by-pair form it replaced: preview_swap(a, b) for every partner in
// job-id order, keeping the first strict improvement. The two must agree
// bit for bit — on the pick, its score, the preview count and, through
// local_search, on the whole walk.

double oracle_score(const Objectives& objectives, LsObjective objective,
                    int machines) {
  return objective == LsObjective::kFitness
             ? objectives.fitness(kWeights, machines)
             : objectives.makespan;
}

double oracle_current(const ScheduleEvaluator& eval, LsObjective objective) {
  return objective == LsObjective::kFitness ? eval.fitness(kWeights)
                                            : eval.makespan();
}

ScheduleEvaluator::SwapPick oracle_best_swap(const ScheduleEvaluator& eval,
                                             JobId a, JobId first_partner,
                                             double bound,
                                             LsObjective objective) {
  ScheduleEvaluator::SwapPick pick{-1, bound, 0};
  for (JobId b = first_partner; b < eval.num_jobs(); ++b) {
    if (eval.schedule()[b] == eval.schedule()[a]) continue;
    ++pick.previews;
    const double score = oracle_score(eval.preview_swap(a, b).objectives,
                                      objective, eval.num_machines());
    if (score < pick.score) {
      pick.partner = b;
      pick.score = score;
    }
  }
  return pick;
}

/// Checks best_swap against the oracle for every focus job: at the two
/// partner ranges the scans use (all jobs; ids above the focus) under
/// three bounds — the current score, +inf (every partner qualifies, so
/// ties decide) and the unbounded optimum itself (strictness: nothing may
/// qualify) — and, unbounded, at every partner-range start, so the pick
/// walks through each suffix minimum of the partners in id order.
void expect_kernel_matches_oracle(const ScheduleEvaluator& eval,
                                  const std::string& label) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const LsObjective objective :
       {LsObjective::kFitness, LsObjective::kMakespan}) {
    auto check = [&](JobId a, JobId first, double bound) {
      const auto want = oracle_best_swap(eval, a, first, bound, objective);
      const auto got = eval.best_swap(a, first, bound, objective, kWeights);
      const std::string where =
          label + " objective=" + std::to_string(static_cast<int>(objective)) +
          " a=" + std::to_string(a) + " first=" + std::to_string(first) +
          " bound=" + std::to_string(bound);
      ASSERT_EQ(got.partner, want.partner) << where;
      ASSERT_EQ(got.score, want.score) << where;
      ASSERT_EQ(got.previews, want.previews) << where;
    };
    for (JobId a = 0; a < eval.num_jobs(); ++a) {
      for (const JobId first : {JobId{0}, a + 1}) {
        const double unbounded =
            oracle_best_swap(eval, a, first, inf, objective).score;
        for (const double bound :
             {oracle_current(eval, objective), inf, unbounded}) {
          check(a, first, bound);
        }
      }
      for (JobId first = 1; first <= eval.num_jobs(); ++first) {
        check(a, first, inf);
      }
    }
  }
}

/// The LMCTS walk local_search ran before the kernel: one job-order
/// preview_swap per pair, same RNG draws, same early break.
LocalSearchStats oracle_lmcts(const LocalSearchConfig& config,
                              ScheduleEvaluator& eval, Rng& rng) {
  LocalSearchStats stats;
  const int n = eval.num_jobs();
  const int m = eval.num_machines();
  for (int it = 0; it < config.iterations; ++it) {
    ++stats.iterations_run;
    double best = oracle_current(eval, config.objective);
    JobId best_a = -1;
    JobId best_b = -1;
    auto consider = [&](JobId a, JobId b) {
      ++stats.previews;
      const double score = oracle_score(eval.preview_swap(a, b).objectives,
                                        config.objective, m);
      if (score < best) {
        best = score;
        best_a = a;
        best_b = b;
      }
    };
    if (m >= 2 && n >= 2) {
      const MachineId critical = eval.makespan_machine();
      const auto& critical_jobs = eval.machine_jobs(critical);
      if (config.scan == LmctsScan::kCriticalRandomJob) {
        if (!critical_jobs.empty()) {
          const JobId a = critical_jobs[static_cast<std::size_t>(
                                            rng.bounded(critical_jobs.size()))]
                              .second;
          for (JobId b = 0; b < n; ++b) {
            if (eval.schedule()[b] != critical) consider(a, b);
          }
        }
      } else if (config.scan == LmctsScan::kCriticalAllJobs) {
        for (const auto& [etc_a, a] : critical_jobs) {
          for (JobId b = 0; b < n; ++b) {
            if (eval.schedule()[b] != critical) consider(a, b);
          }
        }
      } else {
        for (JobId a = 0; a < n; ++a) {
          for (JobId b = a + 1; b < n; ++b) {
            if (eval.schedule()[a] != eval.schedule()[b]) consider(a, b);
          }
        }
      }
    }
    if (best_a >= 0) {
      eval.apply_swap(best_a, best_b);
      ++stats.improvements;
    } else if (config.scan != LmctsScan::kCriticalRandomJob) {
      break;
    }
  }
  return stats;
}

/// Runs every deterministic scan under both objectives from `start`,
/// through local_search and through the oracle walk, and requires the
/// same schedule, objectives and stats bit for bit.
void expect_walks_match_oracle(const EtcMatrix& etc, const Schedule& start,
                               const std::string& label, int iterations = 6) {
  for (const LmctsScan scan :
       {LmctsScan::kCriticalRandomJob, LmctsScan::kCriticalAllJobs,
        LmctsScan::kFull}) {
    for (const LsObjective objective :
         {LsObjective::kFitness, LsObjective::kMakespan}) {
      LocalSearchConfig config{LocalSearchKind::kLmcts, iterations};
      config.scan = scan;
      config.objective = objective;
      const std::string where =
          label + " scan=" + std::to_string(static_cast<int>(scan)) +
          " objective=" + std::to_string(static_cast<int>(objective));

      ScheduleEvaluator kernel(etc);
      kernel.reset(start);
      Rng kernel_rng(31);
      const auto got = local_search(config, kWeights, kernel, kernel_rng);

      ScheduleEvaluator oracle(etc);
      oracle.reset(start);
      Rng oracle_rng(31);
      const auto want = oracle_lmcts(config, oracle, oracle_rng);

      EXPECT_EQ(kernel.schedule(), oracle.schedule()) << where;
      EXPECT_EQ(kernel.makespan(), oracle.makespan()) << where;
      EXPECT_EQ(kernel.flowtime(), oracle.flowtime()) << where;
      EXPECT_EQ(got.iterations_run, want.iterations_run) << where;
      EXPECT_EQ(got.improvements, want.improvements) << where;
      EXPECT_EQ(got.previews, want.previews) << where;
      EXPECT_EQ(kernel_rng(), oracle_rng()) << where;
    }
  }
}

/// Kernel and walk checks from a random and a constructive start.
void expect_lmcts_matches_oracle(const EtcMatrix& etc,
                                 const std::string& label) {
  Rng rng(17);
  const Schedule random =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  for (const auto& [start, name] :
       {std::pair{random, "random"}, std::pair{ljfr_sjfr(etc), "ljfr-sjfr"}}) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    expect_kernel_matches_oracle(eval, label + " " + name);
    expect_walks_match_oracle(etc, start, label + " " + name);
  }
}

/// ETC drawn from {1, 2, 3}: swap scores tie constantly, so any drift
/// from the job-order first-strict-minimum rule shows.
EtcMatrix tied_instance(int jobs, int machines, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(jobs * machines));
  for (double& v : values) v = static_cast<double>(rng.uniform_int(1, 3));
  return EtcMatrix(jobs, machines, std::move(values));
}

TEST(LmctsKernelOracle, MatchesJobOrderScanOnEveryClass) {
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 64;
    spec.num_machines = 8;
    expect_lmcts_matches_oracle(generate_instance(spec), spec.name());
  }
}

TEST(LmctsKernelOracle, MatchesJobOrderScanUnderHeavyTies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_lmcts_matches_oracle(tied_instance(40, 5, seed),
                                "tied seed " + std::to_string(seed));
  }
}

TEST(LmctsKernelOracle, MatchesJobOrderScanWithReadyTimes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EtcMatrix etc = tied_instance(36, 6, seed);
    Rng rng(seed + 100);
    for (MachineId mm = 0; mm < etc.num_machines(); ++mm) {
      // Integer ready times keep the ties; fractional ones break them.
      etc.set_ready_time(mm, seed % 2 == 0
                                 ? static_cast<double>(rng.uniform_int(0, 6))
                                 : rng.uniform(0.0, 10.0));
    }
    expect_lmcts_matches_oracle(etc, "ready seed " + std::to_string(seed));
  }
}

TEST(LmctsKernelOracle, MatchesJobOrderScanAtDegenerateShapes) {
  expect_lmcts_matches_oracle(tied_instance(2, 2, 5), "2x2");

  // A one-job critical machine: a huge ready time makes machine 0 the
  // makespan machine whatever sits on it.
  EtcMatrix lonely = tied_instance(24, 4, 6);
  lonely.set_ready_time(0, 100.0);
  Schedule one_on_critical(24);
  for (JobId j = 0; j < 24; ++j) one_on_critical[j] = 1 + j % 3;
  one_on_critical[5] = 0;
  {
    ScheduleEvaluator eval(lonely);
    eval.reset(one_on_critical);
    ASSERT_EQ(eval.makespan_machine(), 0);
    ASSERT_EQ(eval.machine_jobs(0).size(), 1u);
    expect_kernel_matches_oracle(eval, "one-job critical");
  }
  expect_walks_match_oracle(lonely, one_on_critical, "one-job critical");

  // Empty machines: every job packed on the first two of six.
  const EtcMatrix sparse = tied_instance(20, 6, 7);
  Schedule packed(20);
  for (JobId j = 0; j < 20; ++j) packed[j] = j % 2;
  {
    ScheduleEvaluator eval(sparse);
    eval.reset(packed);
    expect_kernel_matches_oracle(eval, "empty machines");
  }
  expect_walks_match_oracle(sparse, packed, "empty machines");

  // One machine: nothing to swap with.
  const EtcMatrix single = tied_instance(8, 1, 8);
  ScheduleEvaluator eval(single);
  eval.reset(Schedule(8, 0));
  const auto pick =
      eval.best_swap(3, 0, std::numeric_limits<double>::infinity(),
                     LsObjective::kMakespan, kWeights);
  EXPECT_EQ(pick.partner, -1);
  EXPECT_EQ(pick.previews, 0);
  expect_walks_match_oracle(single, Schedule(8, 0), "m=1");
}

}  // namespace
}  // namespace gridsched
