#include "heuristics/constructive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "etc/instance.h"

namespace gridsched {
namespace {

double makespan_of(const Schedule& s, const EtcMatrix& etc) {
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  return eval.makespan();
}

double flowtime_of(const Schedule& s, const EtcMatrix& etc) {
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  return eval.flowtime();
}

// --- Hand-verifiable micro-instances. --------------------------------------

TEST(MinMin, PicksGloballySmallestCompletionFirst) {
  //          m0   m1
  // job 0    10    9
  // job 1     4    6
  EtcMatrix etc(2, 2, {10, 9, 4, 6});
  const Schedule s = min_min(etc);
  // First commit: job1 on m0 (completion 4). Then job0: m0 would finish at
  // 14, m1 at 9 -> m1.
  EXPECT_EQ(s[1], 0);
  EXPECT_EQ(s[0], 1);
}

TEST(MinMin, BudgetHonoringFormMatchesPlainMinMinWhileTokenIsQuiet) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;  // never fired, no deadline
  EXPECT_EQ(min_min(etc, source.token()), min_min(etc));
  EXPECT_EQ(min_min(etc, CancellationToken{}), min_min(etc));
}

TEST(MinMin, CancelledBuildStillReturnsACompleteSchedule) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled: zero Min-Min rounds run, the whole schedule is the MCT
  // completion pass — complete, and exactly what plain MCT produces from
  // empty loads (same id order, same earliest-completion rule).
  const Schedule cancelled = min_min(etc, source.token());
  ASSERT_TRUE(cancelled.complete(etc.num_machines()));
  EXPECT_EQ(cancelled, mct(etc));
}

TEST(Heuristics, BudgetHonoringFormsMatchPlainWhileTokenIsQuiet) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;  // never fired, no deadline
  for (HeuristicKind kind : all_heuristics()) {
    Rng plain_rng(21);
    Rng live_rng(21);
    Rng invalid_rng(21);
    const Schedule plain = construct_schedule(kind, etc, plain_rng);
    EXPECT_EQ(construct_schedule(kind, etc, live_rng, source.token()), plain)
        << heuristic_name(kind);
    EXPECT_EQ(construct_schedule(kind, etc, invalid_rng, CancellationToken{}),
              plain)
        << heuristic_name(kind);
  }
}

TEST(Heuristics, CancelledBuildsStillReturnCompleteSchedules) {
  InstanceSpec spec;
  spec.num_jobs = 200;  // past the one-pass poll stride
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  for (HeuristicKind kind : all_heuristics()) {
    Rng rng(22);
    const Schedule s = construct_schedule(kind, etc, rng, source.token());
    EXPECT_TRUE(s.complete(etc.num_machines())) << heuristic_name(kind);
  }
}

TEST(Heuristics, CancelledBatchHeuristicsFallBackToTheMctTail) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled: zero commit rounds run, so the whole schedule is the
  // MCT completion pass — exactly plain MCT from empty loads.
  EXPECT_EQ(max_min(etc, source.token()), mct(etc));
  EXPECT_EQ(sufferage(etc, source.token()), mct(etc));
}

TEST(Heuristics, CancelledOnePassHeuristicsFallBackToRoundRobin) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled one-pass heuristics poll before the first assignment and
  // dump everything round-robin: job j on machine j mod m.
  for (const Schedule& s :
       {mct(etc, source.token()), met(etc, source.token()),
        olb(etc, source.token())}) {
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      EXPECT_EQ(s[j], j % etc.num_machines());
    }
  }
}

TEST(MaxMin, PlacesLongJobFirst) {
  //          m0   m1
  // job 0    10    9
  // job 1     4    6
  EtcMatrix etc(2, 2, {10, 9, 4, 6});
  const Schedule s = max_min(etc);
  // Best completions: job0 -> 9 (m1), job1 -> 4 (m0). Max-min commits job0
  // to m1 first, then job1 (m0: 4 vs m1: 15) to m0.
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 0);
}

TEST(Mct, AccountsForAccumulatedLoad) {
  //          m0   m1
  // job 0     5    6
  // job 1     5    6
  EtcMatrix etc(2, 2, {5, 6, 5, 6});
  const Schedule s = mct(etc);
  EXPECT_EQ(s[0], 0);  // m0 finishes at 5 < 6
  EXPECT_EQ(s[1], 1);  // m0 would now finish at 10 > 6
}

TEST(Met, IgnoresLoadEntirely) {
  EtcMatrix etc(3, 2, {5, 6, 5, 6, 5, 6});
  const Schedule s = met(etc);
  for (JobId j = 0; j < 3; ++j) EXPECT_EQ(s[j], 0);  // always min ETC
}

TEST(Olb, BalancesWithoutLookingAtEtc) {
  EtcMatrix etc(3, 2, {1, 100, 1, 100, 1, 100});
  const Schedule s = olb(etc);
  // j0 -> m0 (both free, lowest id). j1 -> m1 (m0 busy until 1... m1 free at
  // 0). j2 -> m0 (free at 1 < m1's 100).
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 1);
  EXPECT_EQ(s[2], 0);
}

TEST(Sufferage, PrioritizesTheJobWithMostToLose) {
  //          m0   m1
  // job 0     1   10    (sufferage 9)
  // job 1     2   2.5   (sufferage 0.5)
  // Both prefer m0; job0 suffers more and wins it. Job1 then completes
  // earlier on the idle m1 (2.5) than behind job0 on m0 (3).
  EtcMatrix etc(2, 2, {1, 10, 2, 2.5});
  const Schedule s = sufferage(etc);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 1);
}

TEST(LjfrSjfr, InitialPhaseGivesLongestJobsToFastestMachines) {
  // 3 machines, 3 jobs: degenerate to pure phase 1.
  //            m0   m1   m2       mean
  // job 0       2    4    6        4     (shortest)
  // job 1       4    8   12        8
  // job 2       6   12   18       12     (longest)
  // machine speed order by column mean: m0 (4) < m1 (8) < m2 (12).
  EtcMatrix etc(3, 3, {2, 4, 6, 4, 8, 12, 6, 12, 18});
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_EQ(s[2], 0);  // longest job -> fastest machine
  EXPECT_EQ(s[1], 1);
  EXPECT_EQ(s[0], 2);
}

TEST(LjfrSjfr, AlternatesShortLongAfterInitialPhase) {
  // 1 machine, 3 jobs: phase 1 assigns the longest; then SJFR (shortest)
  // then LJFR. All on machine 0 regardless; just verify completeness.
  EtcMatrix etc(3, 1, {1, 2, 3});
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_TRUE(s.complete(1));
}

// --- Suite-wide properties on every benchmark class. ------------------------

std::string param_name(const ::testing::TestParamInfo<InstanceSpec>& info) {
  std::string name = info.param.name();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class HeuristicSuiteTest : public ::testing::TestWithParam<InstanceSpec> {
 protected:
  static EtcMatrix instance() {
    InstanceSpec spec = HeuristicSuiteTest::GetParam();
    spec.num_jobs = 128;
    spec.num_machines = 8;
    return generate_instance(spec);
  }
};

INSTANTIATE_TEST_SUITE_P(AllTwelveClasses, HeuristicSuiteTest,
                         ::testing::ValuesIn(braun_benchmark_suite()),
                         param_name);

TEST_P(HeuristicSuiteTest, EveryHeuristicProducesACompleteSchedule) {
  const EtcMatrix etc = instance();
  Rng rng(1);
  for (HeuristicKind kind : all_heuristics()) {
    const Schedule s = construct_schedule(kind, etc, rng);
    EXPECT_EQ(s.num_jobs(), etc.num_jobs()) << heuristic_name(kind);
    EXPECT_TRUE(s.complete(etc.num_machines())) << heuristic_name(kind);
  }
}

TEST_P(HeuristicSuiteTest, MinMinBeatsRandomOnMakespan) {
  const EtcMatrix etc = instance();
  Rng rng(2);
  const double random_mk =
      makespan_of(Schedule::random(etc.num_jobs(), etc.num_machines(), rng),
                  etc);
  EXPECT_LT(makespan_of(min_min(etc), etc), random_mk);
}

TEST_P(HeuristicSuiteTest, MctBeatsOlbOrTies) {
  // MCT sees the ETC values OLB ignores; it should never be meaningfully
  // worse on makespan.
  const EtcMatrix etc = instance();
  EXPECT_LE(makespan_of(mct(etc), etc),
            makespan_of(olb(etc), etc) * 1.001);
}

TEST_P(HeuristicSuiteTest, LjfrSjfrIsDeterministic) {
  const EtcMatrix etc = instance();
  EXPECT_EQ(ljfr_sjfr(etc), ljfr_sjfr(etc));
}

TEST_P(HeuristicSuiteTest, LjfrSjfrReasonableOnBothObjectives) {
  // The seed heuristic targets both objectives; it must beat random
  // assignment on flowtime (its SJFR half) and makespan (its LJFR half).
  const EtcMatrix etc = instance();
  Rng rng(3);
  const Schedule random_s =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_LT(flowtime_of(s, etc), flowtime_of(random_s, etc));
  EXPECT_LT(makespan_of(s, etc), makespan_of(random_s, etc));
}

TEST_P(HeuristicSuiteTest, HeuristicsRespectReadyTimes) {
  EtcMatrix etc = instance();
  // Make machine 0 effectively unavailable; load-aware heuristics must
  // avoid it almost entirely.
  etc.set_ready_time(0, 1e12);
  for (HeuristicKind kind :
       {HeuristicKind::kMinMin, HeuristicKind::kMct, HeuristicKind::kOlb}) {
    Rng rng(4);
    const Schedule s = construct_schedule(kind, etc, rng);
    int on_blocked = 0;
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      on_blocked += (s[j] == 0) ? 1 : 0;
    }
    EXPECT_EQ(on_blocked, 0) << heuristic_name(kind);
  }
}

// --- Full-rescan oracle for the batch heuristics. ---------------------------
//
// The library's Min-Min / Max-Min / Sufferage cache each job's pick and
// re-score only the jobs whose pick read the machine just loaded. This is
// the textbook O(n^2 m) form they must match bit for bit: every round
// scores every unassigned job from scratch and commits the first strict
// optimum in `unassigned` order (swap-with-back removal, like the library).

enum class BatchRule { kMinMin, kMaxMin, kSufferage };

Schedule naive_batch(const EtcMatrix& etc, BatchRule rule) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  std::vector<double> load(etc.ready_times().begin(), etc.ready_times().end());
  Schedule schedule(n);
  std::vector<JobId> unassigned(static_cast<std::size_t>(n));
  std::iota(unassigned.begin(), unassigned.end(), 0);
  const double inf = std::numeric_limits<double>::infinity();
  while (!unassigned.empty()) {
    std::size_t pick_idx = 0;
    MachineId pick_machine = 0;
    double pick_key = rule == BatchRule::kMinMin ? inf : -inf;
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      const JobId j = unassigned[i];
      MachineId best = 0;
      double best_c = load[0] + etc(j, 0);
      for (MachineId mm = 1; mm < m; ++mm) {
        const double c = load[static_cast<std::size_t>(mm)] + etc(j, mm);
        if (c < best_c) {
          best_c = c;
          best = mm;
        }
      }
      double second = inf;
      for (MachineId mm = 0; mm < m; ++mm) {
        if (mm == best) continue;
        second =
            std::min(second, load[static_cast<std::size_t>(mm)] + etc(j, mm));
      }
      bool better = false;
      switch (rule) {
        case BatchRule::kMinMin:
          better = best_c < pick_key;
          if (better) pick_key = best_c;
          break;
        case BatchRule::kMaxMin:
          better = best_c > pick_key;
          if (better) pick_key = best_c;
          break;
        case BatchRule::kSufferage: {
          const double key = second == inf ? 0.0 : second - best_c;
          better = key > pick_key;
          if (better) pick_key = key;
          break;
        }
      }
      if (better) {
        pick_idx = i;
        pick_machine = best;
      }
    }
    const JobId j = unassigned[pick_idx];
    schedule[j] = pick_machine;
    load[static_cast<std::size_t>(pick_machine)] += etc(j, pick_machine);
    unassigned[pick_idx] = unassigned.back();
    unassigned.pop_back();
  }
  return schedule;
}

void expect_batch_heuristics_match_oracle(const EtcMatrix& etc,
                                          const std::string& label) {
  EXPECT_EQ(min_min(etc), naive_batch(etc, BatchRule::kMinMin)) << label;
  EXPECT_EQ(max_min(etc), naive_batch(etc, BatchRule::kMaxMin)) << label;
  EXPECT_EQ(sufferage(etc), naive_batch(etc, BatchRule::kSufferage)) << label;
}

TEST(BatchHeuristicOracle, MatchesFullRescanOnEveryClass) {
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 64;
    spec.num_machines = 8;
    expect_batch_heuristics_match_oracle(generate_instance(spec), spec.name());
  }
}

/// ETC drawn from {1, 2, 3}: completions tie constantly, so any drift in
/// the first-strict-optimum order (job order or machine order) shows.
EtcMatrix tied_instance(int jobs, int machines, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(jobs * machines));
  for (double& v : values) v = static_cast<double>(rng.uniform_int(1, 3));
  return EtcMatrix(jobs, machines, std::move(values));
}

TEST(BatchHeuristicOracle, MatchesFullRescanUnderHeavyTies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_batch_heuristics_match_oracle(tied_instance(40, 5, seed),
                                         "seed " + std::to_string(seed));
  }
}

TEST(BatchHeuristicOracle, MatchesFullRescanWithReadyTimes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EtcMatrix etc = tied_instance(48, 6, seed);
    Rng rng(seed + 100);
    for (MachineId mm = 0; mm < etc.num_machines(); ++mm) {
      // Integer ready times keep the ties; fractional ones break them.
      etc.set_ready_time(mm, seed % 2 == 0
                                 ? static_cast<double>(rng.uniform_int(0, 6))
                                 : rng.uniform(0.0, 10.0));
    }
    expect_batch_heuristics_match_oracle(etc, "seed " + std::to_string(seed));
  }
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  EtcMatrix etc = generate_instance(spec);
  for (MachineId mm = 0; mm < etc.num_machines(); ++mm) {
    etc.set_ready_time(mm, 1000.0 * (mm + 1));
  }
  expect_batch_heuristics_match_oracle(etc, "u_c_hihi 64x8 + ready");
}

TEST(BatchHeuristicOracle, MatchesFullRescanAtDegenerateShapes) {
  expect_batch_heuristics_match_oracle(tied_instance(30, 1, 7), "30x1");
  expect_batch_heuristics_match_oracle(tied_instance(1, 6, 8), "1x6");
  expect_batch_heuristics_match_oracle(tied_instance(1, 1, 9), "1x1");
}

/// FNV-1a over the genes (the golden-pin fingerprint).
std::uint64_t schedule_hash(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (MachineId g : s.genes()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(g));
    h *= 1099511628211ULL;
  }
  return h;
}

// Min-Min on the paper's 512x16 batches, pinned to the schedule the
// full-rescan implementation built (same build caveat as the golden pins:
// default Release flags, no FMA contraction).
TEST(MinMin, PinnedOnPaperInstances) {
  struct MinMinPin {
    const char* label;
    std::uint64_t hash;
    double makespan;
    double flowtime;
  };
  const MinMinPin pins[] = {
      {"u_c_hihi.0", 0xcdfe395fa6f28c66ULL, 7971796.9015869787,
       997760191.66325891},
      {"u_i_hihi.0", 0x6b973e6a9d44103eULL, 3298186.6043280656,
       331364416.0088464},
  };
  for (const MinMinPin& pin : pins) {
    const EtcMatrix etc = generate_instance(*parse_instance_name(pin.label));
    const Schedule s = min_min(etc);
    EXPECT_EQ(schedule_hash(s), pin.hash) << pin.label;
    EXPECT_EQ(makespan_of(s, etc), pin.makespan) << pin.label;
    EXPECT_EQ(flowtime_of(s, etc), pin.flowtime) << pin.label;
  }
}

TEST(Heuristics, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (HeuristicKind kind : all_heuristics()) {
    names.emplace_back(heuristic_name(kind));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Heuristics, RandomUsesRngDeterministically) {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  Rng a(10);
  Rng b(10);
  EXPECT_EQ(construct_schedule(HeuristicKind::kRandom, etc, a),
            construct_schedule(HeuristicKind::kRandom, etc, b));
}

}  // namespace
}  // namespace gridsched
