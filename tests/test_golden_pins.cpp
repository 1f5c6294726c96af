// Fixed-seed end-to-end pins for the evolutionary loops, the portfolio
// race and the sharded service.
//
// The evaluator's delta machinery (O(1) previews, closed-form applies,
// reset_to gene replay) promises BITWISE-identical results to the naive
// full-recompute path. These pins hold six fixed-seed runs — cMA under
// three operator configurations, the synchronous cMA, and the shared
// steady-state GA loop under two replacement policies (the default
// replace-worst, and the Struggle GA's most-similar) — to exact gene
// hashes and %.17g objective values captured from a from-scratch
// evaluation. Any rounding drift anywhere in the preview /
// apply / canonicalize / reset_to pipeline, or an RNG draw added or
// removed from an operator, flips a pin.
//
// Two evaluation-bounded pins sit one layer up: a default-member portfolio
// over three warm-started activations (per-member seeds, winner
// tie-break, elite cache), and a 4-shard service activation with
// deadline-aware routing and admission (ingress triage, routing scores,
// rebalancing, per-shard races, Pareto winner picks).
//
// Refreshing: a pin may only change together with an intentional,
// documented behavior change (new operator semantics, RNG stream change).
// A perf-only PR that moves one of these values has a bug.
//
// Build caveat: the expected values assume the default Release flags (-O3,
// no -march/-ffast-math); FMA contraction or reassociation would
// legitimately perturb the last ULPs (docs/performance.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "cma/cma.h"
#include "cma/sync_cma.h"
#include "etc/cvb_instance.h"
#include "etc/instance.h"
#include "ga/steady_state_ga.h"
#include "ga/struggle_ga.h"
#include "portfolio/portfolio.h"
#include "qos/qos.h"
#include "service/grid_scheduling_service.h"
#include "sim/grid_simulator.h"

namespace gridsched {
namespace {

/// FNV-1a over the gene sequence: a stable fingerprint of the best
/// schedule that fails loudly on any assignment difference.
std::uint64_t schedule_hash(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (MachineId g : s.genes()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(g));
    h *= 1099511628211ULL;
  }
  return h;
}

/// 128x16 inconsistent instance, the main pin target.
EtcMatrix pinned_instance() {
  InstanceSpec spec;
  spec.num_jobs = 128;
  spec.num_machines = 16;
  spec.consistency = Consistency::kInconsistent;
  return generate_instance(spec);
}

/// 96x8 consistent lo-hi instance for the LMCTS all-critical pin.
EtcMatrix pinned_instance_lohi() {
  InstanceSpec spec;
  spec.num_jobs = 96;
  spec.num_machines = 8;
  spec.consistency = Consistency::kConsistent;
  spec.job_heterogeneity = Heterogeneity::kLow;
  return generate_instance(spec);
}

struct Pin {
  std::uint64_t hash;
  double makespan;
  double flowtime;
  double fitness;
  std::int64_t evaluations;
};

void expect_pin(const EvolutionResult& r, const Pin& pin) {
  EXPECT_EQ(schedule_hash(r.best.schedule), pin.hash);
  EXPECT_EQ(r.best.objectives.makespan, pin.makespan);
  EXPECT_EQ(r.best.objectives.flowtime, pin.flowtime);
  EXPECT_EQ(r.best.fitness, pin.fitness);
  EXPECT_EQ(r.evaluations, pin.evaluations);
}

TEST(GoldenPins, CmaDefaultOperatorsInconsistentHiHi) {
  CmaConfig cfg;
  cfg.pop_height = 4;
  cfg.pop_width = 4;
  cfg.stop = StopCondition{.max_evaluations = 2000};
  cfg.seed = 7;
  expect_pin(CellularMemeticAlgorithm(cfg).run(pinned_instance()),
             {10295074483163045571ULL, 956588.47267384967, 30731156.361125588,
              1197615.6726479745, 2000});
}

TEST(GoldenPins, CmaSteepestMoveUniformSwap) {
  CmaConfig cfg;
  cfg.pop_height = 4;
  cfg.pop_width = 4;
  cfg.stop = StopCondition{.max_evaluations = 2000};
  cfg.seed = 7;
  cfg.local_search = LocalSearchConfig{LocalSearchKind::kSteepestLocalMove, 8};
  cfg.crossover = CrossoverKind::kUniform;
  cfg.mutation = MutationKind::kSwap;
  expect_pin(CellularMemeticAlgorithm(cfg).run(pinned_instance()),
             {13412213410814480008ULL, 818786.0243488634, 25304459.520476583,
              1009471.6982690941, 2000});
}

TEST(GoldenPins, CmaLmctsAllCriticalConsistentLoHi) {
  CmaConfig cfg;
  cfg.pop_height = 3;
  cfg.pop_width = 3;
  cfg.stop = StopCondition{.max_evaluations = 1500};
  cfg.seed = 11;
  cfg.local_search.scan = LmctsScan::kCriticalAllJobs;
  cfg.crossover = CrossoverKind::kTwoPoint;
  expect_pin(CellularMemeticAlgorithm(cfg).run(pinned_instance_lohi()),
             {11872154960642159625ULL, 126825.79469424207, 3751298.6416417672,
              212347.42857198679, 1500});
}

TEST(GoldenPins, SynchronousCmaDefault) {
  CmaConfig cfg;
  cfg.pop_height = 4;
  cfg.pop_width = 4;
  cfg.stop = StopCondition{.max_evaluations = 2000};
  cfg.seed = 7;
  expect_pin(SynchronousCellularMa(cfg, 0).run(pinned_instance()),
             {12215915701544311963ULL, 806567.47494147578, 27795466.673021756,
              1039229.7729720718, 2000});
}

TEST(GoldenPins, SteadyStateGa) {
  SteadyStateGaConfig cfg;
  cfg.population_size = 40;
  cfg.stop = StopCondition{.max_evaluations = 3000};
  cfg.seed = 13;
  expect_pin(SteadyStateGa(cfg).run(pinned_instance()),
             {7661805299321927184ULL, 830769.26238799677, 26307309.59087795,
              1034128.6591484656, 3000});
}

TEST(GoldenPins, StruggleGa) {
  StruggleGaConfig cfg;
  cfg.population_size = 40;
  cfg.stop = StopCondition{.max_evaluations = 3000};
  cfg.seed = 13;
  expect_pin(StruggleGa(cfg).run(pinned_instance()),
             {14955291288071606980ULL, 884780.27614783857, 25346491.925600864,
              1059624.1434483924, 3000});
}

/// Position-weighted checksum Σ (k+1)·ETC[k] in row-major order: pins every
/// generated value and where it sits, so a reordered post-pass flips it too.
double etc_checksum(const EtcMatrix& etc) {
  double sum = 0.0;
  double weight = 1.0;
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    for (MachineId m = 0; m < etc.num_machines(); ++m) {
      sum += weight * etc(j, m);
      weight += 1.0;
    }
  }
  return sum;
}

// The CVB generator's draws and its consistency post-pass (shared with the
// range-based generator), one small spec per consistency class.
TEST(GoldenPins, CvbInstance) {
  CvbInstanceSpec spec;
  spec.num_jobs = 24;
  spec.num_machines = 6;
  spec.v_task = 0.9;
  spec.v_machine = 0.3;
  spec.seed = 5;
  spec.consistency = Consistency::kConsistent;
  EXPECT_EQ(etc_checksum(generate_cvb_instance(spec)), 13449175.159313938);
  spec.consistency = Consistency::kInconsistent;
  EXPECT_EQ(etc_checksum(generate_cvb_instance(spec)), 13382845.406823657);
  spec.consistency = Consistency::kSemiConsistent;
  EXPECT_EQ(etc_checksum(generate_cvb_instance(spec)), 13407287.498775903);
}

// Three activations of one batch, so the second and third race from the
// first's cached elites.
TEST(GoldenPins, PortfolioWarmStartedActivations) {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  spec.consistency = Consistency::kInconsistent;
  spec.seed = 21;
  const EtcMatrix etc = generate_instance(spec);
  PortfolioConfig config;
  // The wall clock is a backstop; the evaluation bound decides.
  config.stop = StopCondition{.max_time_ms = 60'000.0, .max_evaluations = 400};
  config.threads = 2;
  config.seed = 5;
  PortfolioBatchScheduler portfolio(
      config, PortfolioBatchScheduler::default_members(config));
  const std::uint64_t hashes[] = {13161952376466372019ULL,
                                  10552020348902862845ULL,
                                  422950762362161637ULL};
  const char* const winners[] = {"cMA", "cMA", "LAHC"};
  for (int activation = 0; activation < 3; ++activation) {
    EXPECT_EQ(schedule_hash(portfolio.schedule_batch(etc)),
              hashes[activation])
        << "activation " << activation;
    EXPECT_EQ(portfolio.activations().back().winner_name,
              winners[activation])
        << "activation " << activation;
  }
}

// Two 4-shard activations of a QoS batch on a classless grid. A third of
// the rows carry finite deadlines, and every ninth row's deadline is
// already infeasible: the first activation (busy machines, over the
// overload threshold) sheds those rows, the second (idle machines)
// degrades them to best effort.
TEST(GoldenPins, ShardedServiceDeadlineAwareAdmission) {
  InstanceSpec spec;
  spec.num_jobs = 96;
  spec.num_machines = 16;
  spec.consistency = Consistency::kSemiConsistent;
  spec.seed = 23;
  EtcMatrix etc = generate_instance(spec);
  BatchContext context = BatchContext::identity(etc, 1);
  context.job_deadlines.assign(static_cast<std::size_t>(etc.num_jobs()),
                               kNoDeadline);
  for (JobId job = 0; job < etc.num_jobs(); job += 3) {
    double best_etc = etc(job, 0);
    for (MachineId machine = 1; machine < etc.num_machines(); ++machine) {
      best_etc = std::min(best_etc, etc(job, machine));
    }
    context.job_deadlines[static_cast<std::size_t>(job)] =
        job % 9 == 0 ? 0.5 * best_etc : 4.0 * etc(job, 0);
  }
  ServiceConfig config;
  config.num_shards = 4;
  config.routing = RoutingKind::kDeadlineAware;
  config.total_budget_ms = 60'000.0;  // backstop; the evaluation bound decides
  config.threads = 2;
  config.admission.enabled = true;
  config.admission.overload_backlog = 100.0;
  config.member_stop = StopCondition{.max_evaluations = 300};
  config.seed = 9;
  GridSchedulingService service(config);

  for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
    etc.set_ready_time(machine, 500.0 * (machine % 5));
  }
  EXPECT_EQ(schedule_hash(service.schedule_batch(etc, context)),
            13094728269995262925ULL);
  EXPECT_EQ(service.admission_stats().rejected(), 11);

  for (MachineId machine = 0; machine < etc.num_machines(); ++machine) {
    etc.set_ready_time(machine, 0.0);
  }
  context.activation = 2;
  EXPECT_EQ(schedule_hash(service.schedule_batch(etc, context)),
            9517768817183253271ULL);
  EXPECT_EQ(service.admission_stats().rejected(), 11);
  EXPECT_EQ(service.admission_stats().degraded, 11);
}

/// FNV-1a over every field of every job record (times by their bits): a
/// fingerprint of a whole simulated run's placements and timings.
std::uint64_t records_hash(const std::vector<SimJobRecord>& records) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ULL;
  };
  for (const SimJobRecord& r : records) {
    mix(static_cast<std::uint64_t>(r.id));
    mix(std::bit_cast<std::uint64_t>(r.arrival));
    mix(std::bit_cast<std::uint64_t>(r.start));
    mix(std::bit_cast<std::uint64_t>(r.finish));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.machine)));
    mix(static_cast<std::uint64_t>(r.attempts));
    mix(r.rejected ? 1 : 0);
  }
  return h;
}

/// A short inconsistent 6-machine grid; `churn` adds failures and repairs
/// so re-queued jobs reach the scheduler a second time.
SimConfig heuristic_row_sim(bool churn) {
  SimConfig config;
  config.horizon = 400.0;
  config.arrival_rate = 0.5;
  config.scheduler_period = 40.0;
  config.num_machines = 6;
  config.consistency_noise = 0.6;
  config.seed = 42;
  if (churn) {
    config.machine_mtbf = 120.0;
    config.machine_mttr = 30.0;
    config.seed = 7;
  }
  return config;
}

std::uint64_t heuristic_row_hash(HeuristicKind kind, bool churn) {
  GridSimulator sim(heuristic_row_sim(churn));
  MemberBatchScheduler scheduler(std::make_unique<HeuristicMember>(kind));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_requeued > 0, churn);
  return records_hash(sim.job_records());
}

// The dynamic-grid heuristic rows: each heuristic member as the
// simulator's batch scheduler, with no floor or shortcut of its own.
TEST(GoldenPins, HeuristicRowMct) {
  EXPECT_EQ(heuristic_row_hash(HeuristicKind::kMct, false),
            9705511445704914058ULL);
}

TEST(GoldenPins, HeuristicRowMinMinWithChurn) {
  EXPECT_EQ(heuristic_row_hash(HeuristicKind::kMinMin, true),
            8300844186531470265ULL);
}

TEST(GoldenPins, HeuristicRowOlb) {
  EXPECT_EQ(heuristic_row_hash(HeuristicKind::kOlb, false),
            2574435265472261221ULL);
}

}  // namespace
}  // namespace gridsched
