#include "cma/sync_cma.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cma/cma.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

/// Independent, reproducible stream for (seed, generation, cell): the
/// parallel schedule can hand any cell to any worker without perturbing
/// the random sequence.
Rng cell_rng(std::uint64_t seed, std::int64_t generation, int cell) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(generation) + 1));
  state ^= splitmix64(state) + static_cast<std::uint64_t>(cell);
  return Rng(splitmix64(state));
}

}  // namespace

SynchronousCellularMa::SynchronousCellularMa(CmaConfig config, int threads)
    : config_(std::move(config)), threads_(threads) {
  if (config_.pop_height <= 0 || config_.pop_width <= 0) {
    throw std::invalid_argument("SyncCma: population must be non-empty");
  }
  if (config_.parents_per_recombination < 2) {
    throw std::invalid_argument("SyncCma: need at least 2 parents");
  }
  config_.stop.require_bound("SyncCma");
  if (threads_ < 0) {
    throw std::invalid_argument("SyncCma: negative thread count");
  }
}

EvolutionResult SynchronousCellularMa::run(const EtcMatrix& etc) const {
  return run(etc, {});
}

EvolutionResult SynchronousCellularMa::run(
    const EtcMatrix& etc, std::span<const Schedule> warm) const {
  Rng init_rng(config_.seed);
  EvolutionTracker tracker(config_.stop, config_.record_progress);

  // Initial mesh: the asynchronous engine's pass, with one split stream
  // per cell for the local searches.
  std::vector<Individual> current;
  {
    ScheduleEvaluator evaluator(etc);
    current = CellularMemeticAlgorithm(config_).initialize_population(
        evaluator, init_rng, warm, tracker, /*split_streams=*/true);
  }

  const Topology topology(config_.pop_height, config_.pop_width,
                          config_.neighborhood);
  const int pop_size = topology.size();
  // Each cell mutates its offspring with the probability the asynchronous
  // engine implies: `mutations per iteration` spread over the mesh.
  const double mutation_probability =
      std::min(1.0, static_cast<double>(config_.mutations_per_iteration) /
                        static_cast<double>(pop_size));

  std::vector<Individual> next(current.size());
  std::unique_ptr<ThreadPool> pool;
  if (threads_ > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads_));
  }

  // One workspace per cell, persistent across generations: the evaluator
  // re-targets each generation's offspring via the gene-diff path instead
  // of a from-scratch rebuild, and every scratch buffer (offspring
  // schedule, parent list, mutation working sets, candidate) keeps its
  // capacity. Cells map 1:1 to workspaces, so the parallel schedule can
  // hand any cell to any worker without sharing mutable state.
  struct CellWorkspace {
    ScheduleEvaluator evaluator;
    Schedule offspring;
    Individual candidate;
    MutationScratch mutation_scratch;
    std::vector<const Schedule*> parent_schedules;
    explicit CellWorkspace(const EtcMatrix& matrix) : evaluator(matrix) {}
  };
  std::vector<CellWorkspace> workspaces;
  workspaces.reserve(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) workspaces.emplace_back(etc);

  std::int64_t generation = 0;
  while (!tracker.should_stop()) {
    auto evolve_cell = [&](std::size_t cell_index) {
      // In-generation stop poll: under the portfolio's deadline token a
      // generation on a large batch can cost several budgets, so remaining
      // cells carry their resident forward instead of evolving. Counters
      // only advance between generations, so evaluation/iteration-bounded
      // runs see a constant answer here and stay bitwise reproducible.
      if (tracker.should_stop()) {
        next[cell_index] = current[cell_index];
        return;
      }
      const int cell = static_cast<int>(cell_index);
      Rng rng = cell_rng(config_.seed, generation, cell);
      CellWorkspace& ws = workspaces[cell_index];

      const auto neighborhood = topology.neighbors(cell);
      const std::vector<int> parents =
          select_many(config_.selection, config_.parents_per_recombination,
                      neighborhood, current, rng);
      ws.parent_schedules.clear();
      ws.parent_schedules.reserve(parents.size());
      for (int p : parents) {
        ws.parent_schedules.push_back(
            &current[static_cast<std::size_t>(p)].schedule);
      }
      recombine_fold_into(ws.offspring, config_.crossover, ws.parent_schedules,
                          rng);
      ws.evaluator.reset_to(ws.offspring);
      if (rng.chance(mutation_probability)) {
        mutate(config_.mutation, ws.evaluator, rng, &ws.mutation_scratch);
      }
      local_search(config_.local_search, config_.weights, ws.evaluator, rng,
                   config_.stop.cancel);
      assign_from_evaluator(ws.candidate, ws.evaluator, config_.weights);

      const Individual& resident = current[cell_index];
      next[cell_index] = (!config_.add_only_if_better ||
                          ws.candidate.fitness < resident.fitness)
                             ? ws.candidate
                             : resident;
    };

    if (pool) {
      pool->parallel_for(current.size(), evolve_cell);
    } else {
      for (std::size_t i = 0; i < current.size(); ++i) evolve_cell(i);
    }

    current.swap(next);
    tracker.count_evaluations(pop_size);
    for (const Individual& individual : current) tracker.offer(individual);
    ++generation;
    tracker.end_iteration();
    if (config_.observer) config_.observer(tracker.iterations(), current);
  }
  EvolutionResult result = tracker.finish();
  if (config_.keep_final_population) result.population = std::move(current);
  return result;
}

}  // namespace gridsched
