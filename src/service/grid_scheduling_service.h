// The sharded multi-queue scheduling service.
//
// PR 1's PortfolioBatchScheduler optimizes one batch queue; a
// production-scale grid serves many. GridSchedulingService partitions the
// grid's machines into shards and runs one full portfolio — with its own
// PopulationCache — per shard, all racing on ONE shared ThreadPool. Each
// arriving job is routed to a shard by the ShardRouter of the configured
// RoutingKind; the service then activates every shard with work
// CONCURRENTLY — one TaskGroup per shard, results folded from a per-shard
// slot array after the groups drain — splitting its total wall-clock
// budget evenly over those shards. Overlapped races mean an activation's
// wall-clock is the *slice*, not the sum of slices; `concurrent_shards =
// false` restores the PR 2 one-at-a-time behavior (bench/sharded_service
// measures the overlap win between the two).
//
// The machine partition starts static (grid machine id modulo the initial
// shard count, so a machine keeps its shard across failures and repairs)
// and can SCALE DYNAMICALLY: at an activation boundary, when machine
// churn pushes the mean alive-machines-per-shard above
// `split_above_machines`, the hottest shard (by ready-time backlog)
// splits — its alive machines are cut into MIPS-balanced, class-diverse
// halves (count-balanced when speeds are unreported) and one half moves
// to a fresh (or recycled empty) shard whose portfolio inherits a copy of
// the parent's warm-start cache — and when the mean falls below
// `merge_below_machines`, the two lightest shards merge (the lighter
// one's machines fold into the other; the emptied slot idles at zero cost
// until a split recycles it). Both bounds zero disables scaling and the
// partition is exactly PR 2's. Resize decisions carry HYSTERESIS: each
// trigger has a threshold band, and any resize opens a cooldown window of
// `resize_cooldown` activations, so churn noise hovering at a bound
// cannot flap split/merge across consecutive activations.
//
// With `drain_steal` enabled, a cross-shard WORK-STEALING pass runs after
// the races commit: at the drain tail (arrivals stopped, most queues
// empty), the straggler shard's jobs spill onto neighbors' idle machines
// whenever the exact completion estimate there is strictly earlier —
// reclaiming the makespan residue a strict partition pays once the dying
// queue no longer spans the full pool (see plan_drain_steals and
// bench/sharded_service's steal-on/off drain-tail verdict). Stolen jobs
// are handed off between the shard caches (the victim keeps the entry
// when the thief has no cache to extend), so at most one warm-start
// cache knows each job.
//
// Cross-shard rebalancing runs at every activation boundary, after
// routing and before the races: while the hottest shard's backlog (ready
// times + estimated routed work) exceeds `imbalance_factor` times the
// lightest shard's, the hot shard migrates its newest queued jobs to the
// lightest shard — so a hot queue cannot starve while neighbors idle. A
// migration only happens when it strictly shrinks the spread, which makes
// the loop terminate without job ping-pong.
//
// The service is itself a BatchScheduler, so GridSimulator drives it
// unchanged: machine failures shrink a shard's column set for the
// activation, and re-queued jobs re-enter routing like any arrival (a
// re-queued job may legitimately land on a new shard — its old machine may
// be the dead one). On class-structured grids the simulator reports job
// classes through BatchContext, enabling class-aware routing
// (RoutingKind::kClassBacklog) and class-corrected work estimates.
// ShardedSimDriver (sharded_driver.h) splits the simulator's per-job
// records back into per-shard and per-class SimMetrics.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace_recorder.h"
#include "portfolio/portfolio.h"
#include "qos/admission.h"
#include "service/routing_policy.h"

namespace gridsched {

/// Service knobs. Shard portfolios are built from PortfolioConfig
/// defaults plus `member_stop`, a per-shard seed derived from `seed`, and
/// a budget the service re-arms every activation from `total_budget_ms`.
struct ServiceConfig {
  /// Initial shard count; dynamic scaling (below) may grow it.
  int num_shards = 4;
  RoutingKind routing = RoutingKind::kLeastBacklog;
  /// Wall-clock budget per service activation, split evenly over the
  /// shards that have queued work (a lone active shard gets all of it).
  /// Must be finite and > 0.
  double total_budget_ms = 25.0;
  /// Rebalance trigger: migrate newest jobs away from the hottest shard
  /// while its backlog exceeds `imbalance_factor` times the lightest
  /// shard's. Must be >= 1 (NaN is rejected); 0 disables rebalancing.
  double imbalance_factor = 2.0;
  /// Width of the shared racing pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Overlap the shard races on the shared pool. Each race runs in its own
  /// TaskGroup either way; false waits on each group before submitting the
  /// next shard's race — same schedules on a deterministic config, but the
  /// activation wall-clock is the SUM of the slices instead of the slice.
  bool concurrent_shards = true;
  /// Dynamic shard scaling at activation boundaries (0 disables each
  /// bound): split the hottest shard while mean alive machines per active
  /// shard exceeds `split_above_machines` (up to `max_shards`); merge the
  /// two lightest while it falls below `merge_below_machines`. Splits cut
  /// the parent's alive machines into MIPS-balanced halves when the batch
  /// context reports machine speeds (count-balanced otherwise), preserving
  /// hardware-class diversity on class-structured grids.
  int split_above_machines = 0;
  int merge_below_machines = 0;
  int max_shards = 32;
  /// Resize hysteresis. A split or merge opens a cooldown window of
  /// `resize_cooldown` activations during which no further resize fires
  /// (0 = react every activation), and both triggers carry a threshold
  /// band: a split needs the mean to exceed `split_above_machines` by the
  /// band fraction, a merge to undercut `merge_below_machines` by it.
  /// Together they keep a churn-noisy pool that hovers at a bound from
  /// flapping split/merge across consecutive activations.
  int resize_cooldown = 2;
  double resize_band = 0.1;
  /// Cross-shard drain-tail work stealing. After the shard races commit,
  /// the service re-examines the exact per-machine drain times: while the
  /// critical machine (the activation's straggler) holds a job that some
  /// FOREIGN machine could finish strictly earlier, the job moves there —
  /// so once a neighbor's queue has drained, the dying queue spreads over
  /// the full machine pool instead of one partition. Scoring uses real
  /// ETC entries, so class affinity is respected (see plan_drain_steals);
  /// stolen jobs are handed off between the shard caches. Off by default:
  /// the strict partition keeps the PR 2/4 invariants bitwise.
  bool drain_steal = false;
  /// Admission control at service ingress (disabled by default — every
  /// job is accepted, PR 5 behavior bitwise). When enabled, jobs whose
  /// deadline is already infeasible are degraded to best effort, shed
  /// entirely under overload, or rejected when their user's cost budget
  /// is exhausted — see src/qos/admission.h and docs/qos.md. Rejected
  /// rows come back as Schedule::kRejected genes; the simulator records
  /// them as dropped (they still count as deadline misses).
  AdmissionConfig admission{};
  /// Optional Chrome-trace recording (null = off, the zero-cost default:
  /// every instrumentation site is one null check). The recorder must
  /// outlive the service; the service flushes it at each activation
  /// boundary. See src/obs/trace_recorder.h for the span schema.
  obs::TraceRecorder* trace = nullptr;
  /// Every shard portfolio's member stop condition (PortfolioConfig::stop)
  /// apart from the wall clock, which `total_budget_ms` sets: its
  /// `max_time_ms` must stay 0. Evaluation-bounded runs set
  /// `max_evaluations` here.
  StopCondition member_stop{};
  std::uint64_t seed = 1;
};

/// One shard's slice of one service activation — the service's only
/// per-shard store (shard_stats() folds these). A shard gets a record when
/// it raced, or when any job migrated or was stolen into or out of it;
/// `jobs == 0` and `budget_ms == 0` mark a shard that did not race.
struct ShardActivationRecord {
  std::uint64_t activation = 0;
  int shard = 0;
  int jobs = 0;          // jobs raced by this shard (after rebalancing)
  int migrated_in = 0;   // jobs received from hotter shards
  int migrated_out = 0;  // jobs shed to lighter shards
  int stolen_in = 0;     // drain-tail steal moves landing here
  int stolen_out = 0;    // steal moves this shard's stragglers lost
  double backlog = 0.0;  // ready-time sum + est. routed work, pre-race
  double budget_ms = 0.0;
  double race_ms = 0.0;  // wall time of this shard's portfolio race
};

/// One whole service activation: how many shards raced and how long the
/// activation took end to end. Under concurrent activation `wall_ms`
/// tracks the budget slice (races overlap); sequentially it tracks the
/// sum of the races — the contrast bench/sharded_service reports. Either
/// way it includes the serial tail of the activation (result fold and,
/// when enabled, the drain-steal pass), so a slow steal pass cannot hide
/// from the latency books.
struct ServiceActivationRecord {
  std::uint64_t activation = 0;
  int shards_raced = 0;
  double wall_ms = 0.0;
  bool concurrent = false;
  int jobs_stolen = 0;    // drain-tail steal MOVES applied after the races
  int jobs_rejected = 0;  // rows shed at ingress by admission control
  int jobs_rerouted = 0;  // rows rescued by the stranded-row guard
};

/// One dynamic shard-scaling step (split or merge) and what moved.
struct ShardResizeEvent {
  std::uint64_t activation = 0;
  bool split = false;      // true = split, false = merge
  int from_shard = 0;      // split: the parent; merge: the emptied shard
  int to_shard = 0;        // split: the child; merge: the absorber
  int machines_moved = 0;
  int alive_machines = 0;  // grid pool size that triggered the step
};

/// Per-shard totals over all activations so far: a fold over the
/// shard's ShardActivationRecords, computed on demand by shard_stats().
/// A job migrated or stolen again later counts once per move.
struct ShardStats {
  int shard = 0;
  int activations = 0;  // activations in which the shard raced
  int jobs_scheduled = 0;
  int migrated_in = 0;
  int migrated_out = 0;
  int stolen_in = 0;
  int stolen_out = 0;
  double total_race_ms = 0.0;
  double max_race_ms = 0.0;
};

class GridSchedulingService final : public BatchScheduler {
 public:
  explicit GridSchedulingService(ServiceConfig config);

  [[nodiscard]] std::string_view name() const noexcept override;

  using BatchScheduler::schedule_batch;
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& context) override;

  /// Current shard-slot count (grows on splits; merged slots persist,
  /// empty, until a split recycles them).
  [[nodiscard]] int num_shards() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// The shard currently owning a grid machine. Machines the service
  /// never saw default to the static partition (id modulo the initial
  /// shard count) — identical to the full map when scaling is disabled.
  [[nodiscard]] int shard_of_machine(int grid_machine) const noexcept;

  /// The portfolio serving one shard (its stats, activations and cache).
  [[nodiscard]] const PortfolioBatchScheduler& shard_scheduler(
      int shard) const {
    return *shards_.at(static_cast<std::size_t>(shard));
  }

  /// One entry per shard slot (index = shard id), folded from
  /// shard_activations(): counts and race times are sums, `max_race_ms` a
  /// max, and `activations` counts the records in which the shard raced.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  [[nodiscard]] const std::vector<ShardActivationRecord>& shard_activations()
      const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<ServiceActivationRecord>&
  service_activations() const noexcept {
    return service_records_;
  }
  [[nodiscard]] const std::vector<ShardResizeEvent>& resize_events()
      const noexcept {
    return resizes_;
  }
  /// Ingress admission books (all zeros while admission is disabled).
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept {
    return admission_.stats();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Adds one shard slot (its portfolio); returns its id.
  int add_shard_slot();
  /// Assigns never-seen machines to their static default shard.
  void adopt_new_machines(const std::vector<int>& machine_ids);
  /// Split/merge pass for this activation's alive machine set.
  void maybe_resize(const EtcMatrix& etc, const BatchContext& context);

  ServiceConfig config_;
  ThreadPool pool_;  // shared by every shard's portfolio race
  std::vector<std::unique_ptr<PortfolioBatchScheduler>> shards_;
  ShardRouter router_;
  AdmissionController admission_;
  std::vector<ShardActivationRecord> records_;
  std::vector<ServiceActivationRecord> service_records_;
  std::vector<ShardResizeEvent> resizes_;
  std::unordered_map<int, int> machine_shard_;  // grid machine -> shard
  std::string name_;
  std::uint64_t activation_ = 0;
  // Hysteresis: the activation of the last split/merge (cooldown anchor).
  std::uint64_t last_resize_activation_ = 0;
  bool resized_ever_ = false;
};

}  // namespace gridsched
