// The concurrent portfolio batch scheduler.
//
// At every grid activation the portfolio races a set of member algorithms
// (constructive heuristics, Struggle GA, async/sync cMA) concurrently on a
// thread pool, all under one StopCondition whose wall-clock deadline a
// cancellation token enforces (common/cancellation.h), and commits the
// schedule with the best batch fitness. Every member races every
// activation; the one-pass heuristics among them are the safety net that
// makes the portfolio never worse than its best constructive member.
// A PopulationCache carries each activation's elite schedules to the next,
// remapped to the new batch, so the cMA members start from yesterday's
// answer instead of from scratch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "portfolio/member.h"
#include "portfolio/population_cache.h"
#include "sim/batch_scheduler.h"

namespace gridsched {

namespace obs {
class TraceRecorder;
}  // namespace obs

struct PortfolioConfig {
  /// Every member's stop condition; `max_time_ms` is the shared race
  /// deadline (finite, > 0, re-armed by set_budget_ms). Tests add
  /// `max_evaluations` for bitwise-deterministic runs. The race sets `cancel`.
  StopCondition stop{.max_time_ms = 25.0};
  /// Racing pool width; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Scalarization used to pick the winner; member configs should use the
  /// same weights so cached elites rank consistently.
  FitnessWeights weights{};
  std::uint64_t seed = 1;
};

/// Per-member aggregate over all activations so far.
struct MemberStats {
  std::string name;
  int runs = 0;
  int wins = 0;
  double total_ms = 0.0;
  std::int64_t evaluations = 0;
};

/// What happened in one activation (degenerate single-job batches are
/// resolved by MCT directly and not recorded).
struct ActivationRecord {
  std::uint64_t activation = 0;
  int batch_jobs = 0;
  int winner = -1;  // member index
  std::string winner_name;
  double best_fitness = 0.0;
  double race_ms = 0.0;  // wall time of the whole activation race
  /// True when the batch carried finite deadlines and the winner was
  /// picked on the (makespan, missed, cost) Pareto front (src/qos/qos.h)
  /// instead of scalar fitness; the winner's promise outcomes follow.
  bool qos_pareto = false;
  int winner_missed = 0;
  double winner_cost = 0.0;
};

class PortfolioBatchScheduler final : public BatchScheduler {
 public:
  PortfolioBatchScheduler(PortfolioConfig config,
                          std::vector<std::unique_ptr<PortfolioMember>> members);

  /// Races on `shared_pool` instead of spawning an own pool. The sharded
  /// service runs one portfolio per shard, so N shards share one set of
  /// workers instead of oversubscribing the host with N pools. Each race
  /// waits on its own TaskGroup, so portfolios sharing a pool may run
  /// schedule_batch CONCURRENTLY (one call per portfolio instance) — the
  /// service overlaps whole shard activations this way. The pool must
  /// outlive the scheduler.
  PortfolioBatchScheduler(PortfolioConfig config,
                          std::vector<std::unique_ptr<PortfolioMember>> members,
                          ThreadPool& shared_pool);

  /// MCT + Min-Min + Struggle GA + LAHC + async cMA + sync cMA, all
  /// configured with `config.weights` (paper Table 1 settings for the
  /// cMAs; default history length for LAHC).
  [[nodiscard]] static std::vector<std::unique_ptr<PortfolioMember>>
  default_members(const PortfolioConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override;

  using BatchScheduler::schedule_batch;
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& context) override;

  [[nodiscard]] const std::vector<MemberStats>& member_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::vector<ActivationRecord>& activations()
      const noexcept {
    return records_;
  }
  [[nodiscard]] const PortfolioConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const PopulationCache& cache() const noexcept {
    return cache_;
  }

  /// Mutable cache view for the sharded service's stolen-job handoff: when
  /// a drain-tail steal moves a committed job to another shard, the victim
  /// portfolio's cache drops the job and the thief's adopts it on the
  /// machine it landed on (PopulationCache::erase_job / adopt_job), so the
  /// one-cache-per-job isolation invariant survives stealing and a churn
  /// re-queue warm-starts from where the job actually ran.
  [[nodiscard]] PopulationCache& cache() noexcept { return cache_; }

  /// Re-arms the race deadline, `config().stop.max_time_ms`. The sharded
  /// service splits its total budget over the shards that have work,
  /// which varies activation to activation.
  void set_budget_ms(double budget_ms);

  /// Replaces the warm-start cache wholesale. The sharded service uses
  /// this when it splits a shard: the child portfolio inherits a copy of
  /// the parent's elites, whose remapping machinery (MET fallback for
  /// departed machines, pattern transfer for new jobs) absorbs the
  /// partition change at the next activation.
  void seed_cache(const PopulationCache& cache) { cache_ = cache; }

  /// Binds a trace recorder (null = off; it must outlive the scheduler):
  /// every member solve then emits a cat "member" span named after the
  /// member. Races and wins are not counted here — they are
  /// `activations().size()` and `member_stats()[i].wins`.
  void bind_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }

 private:
  PortfolioBatchScheduler(PortfolioConfig config,
                          std::vector<std::unique_ptr<PortfolioMember>> members,
                          std::unique_ptr<ThreadPool> owned_pool,
                          ThreadPool* shared_pool);

  PortfolioConfig config_;
  std::vector<std::unique_ptr<PortfolioMember>> members_;
  PopulationCache cache_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null when racing on a shared pool
  ThreadPool* pool_;                        // owned or shared, never null
  std::vector<MemberStats> stats_;
  std::vector<ActivationRecord> records_;
  std::uint64_t activation_ = 0;
  obs::TraceRecorder* trace_ = nullptr;  // bind_trace; null = not tracing
};

}  // namespace gridsched
