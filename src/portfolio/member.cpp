#include "portfolio/member.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/evolution.h"

namespace gridsched {
namespace {

/// One engine run as a member result. Elites for the cache: the final
/// population sorted best-first, or just the best individual when the
/// engine keeps no population.
MemberResult from_evolution(EvolutionResult& evolved, const Stopwatch& watch) {
  MemberResult result;
  result.best = evolved.best;
  result.evaluations = evolved.evaluations;
  if (evolved.population.empty()) {
    result.elites = {evolved.best};
  } else {
    std::stable_sort(evolved.population.begin(), evolved.population.end(),
                     [](const Individual& a, const Individual& b) {
                       return a.fitness < b.fitness;
                     });
    result.elites = std::move(evolved.population);
  }
  result.elapsed_ms = watch.elapsed_ms();
  return result;
}

}  // namespace

HeuristicMember::HeuristicMember(HeuristicKind kind, FitnessWeights weights)
    : kind_(kind), weights_(weights) {}

std::string_view HeuristicMember::name() const noexcept {
  return heuristic_name(kind_);
}

MemberResult HeuristicMember::solve(const EtcMatrix& etc,
                                    const StopCondition& stop,
                                    std::span<const Schedule> warm,
                                    std::uint64_t seed) {
  (void)warm;
  Stopwatch watch;
  Rng rng(seed);
  MemberResult result;
  // Every heuristic runs in its budget-honoring form: identical output
  // while the token stays quiet, a complete schedule from a cheap tail
  // rule once the activation deadline fires (the batch heuristics' n
  // commit rounds, each an O(n) pick, would otherwise bust it by orders
  // of magnitude on production-size batches, and even the O(n m) passes
  // hurt at 10^5 jobs).
  const Schedule schedule = construct_schedule(kind_, etc, rng, stop.cancel);
  result.best = make_individual(schedule, etc, weights_);
  result.elites = {result.best};
  result.evaluations = 1;
  result.elapsed_ms = watch.elapsed_ms();
  return result;
}

CmaMember::CmaMember(CmaConfig config, bool synchronous)
    : config_(std::move(config)),
      synchronous_(synchronous),
      name_(synchronous ? "cMA-sync" : "cMA") {}

std::string_view CmaMember::name() const noexcept { return name_; }

MemberResult CmaMember::solve(const EtcMatrix& etc, const StopCondition& stop,
                              std::span<const Schedule> warm,
                              std::uint64_t seed) {
  Stopwatch watch;
  CmaConfig config = config_;
  config.stop = stop;
  config.seed = seed;
  config.record_progress = false;
  config.keep_final_population = true;
  // The portfolio already saturates the machine by racing members; the
  // sync engine runs its generations sequentially inside its lane.
  EvolutionResult evolved =
      synchronous_ ? SynchronousCellularMa(config, /*threads=*/0).run(etc, warm)
                   : CellularMemeticAlgorithm(config).run(etc, warm);
  return from_evolution(evolved, watch);
}

LahcMember::LahcMember(LahcConfig config) : config_(config) {}

std::string_view LahcMember::name() const noexcept { return "LAHC"; }

MemberResult LahcMember::solve(const EtcMatrix& etc, const StopCondition& stop,
                               std::span<const Schedule> warm,
                               std::uint64_t seed) {
  stop.require_bound("LAHC");
  Stopwatch watch;
  Rng rng(seed);
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  ScheduleEvaluator evaluator(etc);
  EvolutionTracker tracker(stop, /*record_progress=*/false);

  // Seed: the best warm-start elite if the cache offered any, else MCT
  // (cheap, and distinct from the portfolio's Min-Min heuristic member).
  // The warm evaluations count against the budget like everything else.
  Schedule start;
  double start_fitness = std::numeric_limits<double>::infinity();
  for (const Schedule& candidate : warm) {
    evaluator.reset(candidate);
    tracker.count_evaluations();
    const double fitness = evaluator.fitness(config_.weights);
    if (fitness < start_fitness) {
      start_fitness = fitness;
      start = candidate;
    }
  }
  if (start.num_jobs() == 0) {
    start = construct_schedule(HeuristicKind::kMct, etc, rng, stop.cancel);
    tracker.count_evaluations();
  }
  evaluator.reset(start);
  double current = evaluator.fitness(config_.weights);
  tracker.offer(individual_from_evaluator(evaluator, config_.weights));

  // The late-acceptance history, initialized to the seed's fitness.
  const std::size_t history_length =
      static_cast<std::size_t>(std::max(1, config_.history_length));
  std::vector<double> history(history_length, current);
  Individual best_scratch;

  std::uint64_t step = 0;
  while (n >= 1 && m >= 2 && !tracker.should_stop()) {
    // Candidate: a random move, or a random cross-machine swap half the
    // time (when one exists; same-machine draws degrade to a move so
    // every step costs exactly one preview and the budget stays honest).
    const JobId job = rng.uniform_int(0, n - 1);
    const MachineId from = evaluator.schedule()[job];
    double candidate_fitness;
    JobId swap_partner = -1;
    MachineId move_to = -1;
    if (n >= 2 && rng.bounded(2) == 1) {
      const JobId other = rng.uniform_int(0, n - 1);
      if (other != job && evaluator.schedule()[other] != from) {
        swap_partner = other;
      }
    }
    if (swap_partner >= 0) {
      candidate_fitness = evaluator.preview_swap(job, swap_partner)
                              .fitness(config_.weights, m);
    } else {
      move_to = rng.uniform_int(0, m - 2);
      if (move_to >= from) ++move_to;
      candidate_fitness =
          evaluator.preview_move(job, move_to).fitness(config_.weights, m);
    }
    tracker.count_evaluations();

    const std::size_t slot = step % history_length;
    if (candidate_fitness <= history[slot] || candidate_fitness <= current) {
      if (swap_partner >= 0) {
        evaluator.apply_swap(job, swap_partner);
      } else {
        evaluator.apply_move(job, move_to);
      }
      current = candidate_fitness;
      if (current < tracker.best().fitness) {
        // Canonicalize before publishing (the exactness contract every
        // engine follows), then resync `current` with the canonical
        // scalars so later acceptances compare consistently.
        assign_from_evaluator(best_scratch, evaluator, config_.weights);
        current = best_scratch.fitness;
        tracker.offer(best_scratch);
      }
    }
    history[slot] = current;
    ++step;
  }

  MemberResult result;
  result.best = tracker.best();
  result.elites = {result.best};
  result.evaluations = tracker.evaluations();
  result.elapsed_ms = watch.elapsed_ms();
  return result;
}

StruggleGaMember::StruggleGaMember(StruggleGaConfig config)
    : config_(std::move(config)) {}

std::string_view StruggleGaMember::name() const noexcept {
  return "StruggleGA";
}

MemberResult StruggleGaMember::solve(const EtcMatrix& etc,
                                     const StopCondition& stop,
                                     std::span<const Schedule> warm,
                                     std::uint64_t seed) {
  (void)warm;  // the GA reseeds from heuristics; no mesh to warm-start
  Stopwatch watch;
  StruggleGaConfig config = config_;
  config.stop = stop;
  config.seed = seed;
  config.record_progress = false;
  config.population_size =
      std::min(config.population_size, std::max(2, etc.num_jobs() * 4));
  EvolutionResult evolved = StruggleGa(config).run(etc);
  return from_evolution(evolved, watch);
}

FlooredMember::FlooredMember(std::unique_ptr<PortfolioMember> inner)
    : inner_(std::move(inner)) {}

MemberResult FlooredMember::solve(const EtcMatrix& etc,
                                  const StopCondition& stop,
                                  std::span<const Schedule> warm,
                                  std::uint64_t seed) {
  if (etc.num_jobs() == 1) {
    return HeuristicMember(HeuristicKind::kMct, weights())
        .solve(etc, StopCondition{}, warm, seed);
  }
  Stopwatch watch;
  MemberResult result = inner_->solve(etc, stop, warm, seed);
  Individual floor = make_individual(min_min(etc), etc, weights());
  ++result.evaluations;
  if (floor.fitness < result.best.fitness) result.best = std::move(floor);
  result.elapsed_ms = watch.elapsed_ms();
  return result;
}

MemberBatchScheduler::MemberBatchScheduler(
    std::unique_ptr<PortfolioMember> member, StopCondition stop)
    : member_(std::move(member)), stop_(stop) {
  stop_.validate("MemberBatchScheduler");
}

Schedule MemberBatchScheduler::schedule_batch(
    const EtcMatrix& etc, const BatchContext& /*context*/) {
  constexpr std::uint64_t kBaseSeed = 1;
  const std::uint64_t seed = splitmix64(++activation_) ^ kBaseSeed;
  return std::move(member_->solve(etc, stop_, {}, seed).best.schedule);
}

}  // namespace gridsched
