#include "benchutil/experiment.h"

#include <stdexcept>

namespace gridsched {

MultiRunResult aggregate_runs(std::vector<EvolutionResult> runs) {
  if (runs.empty()) {
    throw std::invalid_argument("aggregate_runs: no runs");
  }
  MultiRunResult result;
  result.runs = std::move(runs);

  std::vector<double> makespans;
  std::vector<double> flowtimes;
  std::vector<double> fitnesses;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const auto& best = result.runs[i].best;
    makespans.push_back(best.objectives.makespan);
    flowtimes.push_back(best.objectives.flowtime);
    fitnesses.push_back(best.fitness);
    if (best.fitness < result.runs[result.best_run].best.fitness) {
      result.best_run = i;
    }
  }
  result.makespan = summarize(makespans);
  result.flowtime = summarize(flowtimes);
  result.fitness = summarize(fitnesses);
  return result;
}

MultiRunResult run_many(int runs, std::uint64_t seed0,
                        const SeededRun& run_with_seed, ThreadPool* pool) {
  if (runs <= 0) throw std::invalid_argument("run_many: runs must be > 0");
  std::vector<EvolutionResult> results(static_cast<std::size_t>(runs));

  auto one = [&](std::size_t i) {
    results[i] = run_with_seed(seed0 + 1 + static_cast<std::uint64_t>(i));
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(runs),
                       [&](std::size_t i, std::size_t) { one(i); });
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(runs); ++i) one(i);
  }
  return aggregate_runs(std::move(results));
}

std::vector<MultiRunResult> run_matrix(const std::vector<SeededRun>& jobs,
                                       int runs, std::uint64_t seed0,
                                       ThreadPool& pool) {
  if (runs <= 0) throw std::invalid_argument("run_matrix: runs must be > 0");
  std::vector<std::vector<EvolutionResult>> grid(
      jobs.size(), std::vector<EvolutionResult>(static_cast<std::size_t>(runs)));
  pool.parallel_for(jobs.size() * static_cast<std::size_t>(runs),
                    [&](std::size_t index, std::size_t) {
                      const std::size_t j = index / static_cast<std::size_t>(runs);
                      const std::size_t r = index % static_cast<std::size_t>(runs);
                      grid[j][r] =
                          jobs[j](seed0 + 1 + static_cast<std::uint64_t>(r));
                    });
  std::vector<MultiRunResult> results;
  results.reserve(jobs.size());
  for (auto& runs_of_job : grid) {
    results.push_back(aggregate_runs(std::move(runs_of_job)));
  }
  return results;
}

}  // namespace gridsched
