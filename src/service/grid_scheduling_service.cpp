#include "service/grid_scheduling_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace gridsched {
namespace {

/// Portfolio knobs for one shard. The budget is a placeholder — the
/// service re-arms it every activation with the fair share of its total.
PortfolioConfig shard_portfolio_config(const ServiceConfig& service,
                                       int shard) {
  PortfolioConfig config;
  config.stop = service.member_stop;
  config.stop.max_time_ms =
      service.total_budget_ms / static_cast<double>(service.num_shards);
  std::uint64_t state = service.seed ^ (static_cast<std::uint64_t>(shard) + 1) *
                                           0x9e3779b97f4a7c15ULL;
  config.seed = splitmix64(state);
  return config;
}

/// Routing/rebalancing state of one available shard this activation: its
/// queue, and the record the activation's moves and race are booked
/// into. The authoritative load view (ready sums, routed work) lives in
/// the parallel ShardSnapshot vector the router reads — keeping it in one
/// place only, so there is no stale second copy to misread.
struct ActiveShard {
  std::vector<JobId> queue;  // batch rows, oldest first
  ShardActivationRecord record;
};

/// One shard's race, built serially and filled on the pool: the
/// mutex-free slot the folding step reads after the task groups drain.
struct ShardRace {
  std::size_t active_index = 0;  // into the `active`/`snapshots` vectors
  EtcMatrix sub;
  BatchContext sub_context;
  Schedule plan;
};

/// Alive-machine view of one shard while deciding splits and merges.
struct ShardLoad {
  int shard = 0;
  int alive = 0;
  double ready_sum = 0.0;
};

}  // namespace

GridSchedulingService::GridSchedulingService(ServiceConfig config)
    : config_(std::move(config)),
      pool_(config_.threads),
      router_(config_.routing),
      admission_(config_.admission),
      name_(std::string("ShardedService(") +
            std::to_string(config_.num_shards) + "x " +
            std::string(routing_name(config_.routing)) + ")") {
  if (config_.num_shards < 1) {
    throw std::invalid_argument("Service: need at least one shard");
  }
  // Negated comparisons reject NaN too. A NaN or infinite budget would
  // reach the cancellation deadline's float-to-int cast, and a NaN factor
  // would silently turn rebalancing off.
  if (!(config_.total_budget_ms > 0 &&
        std::isfinite(config_.total_budget_ms))) {
    throw std::invalid_argument(
        "Service: total_budget_ms must be finite and > 0");
  }
  // The shard portfolios validate member_stop's other bounds.
  if (config_.member_stop.max_time_ms != 0) {
    throw std::invalid_argument(
        "Service: member_stop.max_time_ms must be 0; total_budget_ms is "
        "the wall-clock budget");
  }
  if (!(config_.imbalance_factor == 0 || config_.imbalance_factor >= 1.0)) {
    throw std::invalid_argument(
        "Service: imbalance_factor must be 0 (off) or >= 1");
  }
  if (config_.split_above_machines < 0 || config_.merge_below_machines < 0) {
    throw std::invalid_argument("Service: shard-scaling bounds must be >= 0");
  }
  if (config_.split_above_machines > 0 && config_.merge_below_machines > 0 &&
      config_.split_above_machines < 2 * config_.merge_below_machines) {
    // A split leaves the mean at least half its old value, so this gap
    // guarantees one activation cannot split and merge in a cycle.
    throw std::invalid_argument(
        "Service: split_above_machines must be at least twice "
        "merge_below_machines");
  }
  if (config_.resize_cooldown < 0) {
    throw std::invalid_argument("Service: resize_cooldown must be >= 0");
  }
  // Negated form rejects NaN too: a NaN band would turn both triggers
  // into NaN comparisons that never fire — silently disabling scaling. A
  // band of 1 would push the merge trigger to zero and below — the merge
  // bound could never fire again, silently.
  if (!(config_.resize_band >= 0.0 && config_.resize_band < 1.0)) {
    throw std::invalid_argument("Service: resize_band must be in [0, 1)");
  }
  if (config_.max_shards < config_.num_shards) {
    throw std::invalid_argument(
        "Service: max_shards must be >= the initial num_shards");
  }
  for (int shard = 0; shard < config_.num_shards; ++shard) {
    (void)add_shard_slot();
  }
}

int GridSchedulingService::add_shard_slot() {
  const int shard = static_cast<int>(shards_.size());
  PortfolioConfig portfolio = shard_portfolio_config(config_, shard);
  shards_.push_back(std::make_unique<PortfolioBatchScheduler>(
      portfolio, PortfolioBatchScheduler::default_members(portfolio), pool_));
  shards_.back()->bind_trace(config_.trace);
  return shard;
}

std::string_view GridSchedulingService::name() const noexcept { return name_; }

int GridSchedulingService::shard_of_machine(int grid_machine) const noexcept {
  const auto it = machine_shard_.find(grid_machine);
  return it != machine_shard_.end() ? it->second
                                    : grid_machine % config_.num_shards;
}

std::vector<ShardStats> GridSchedulingService::shard_stats() const {
  std::vector<ShardStats> stats(shards_.size());
  for (std::size_t shard = 0; shard < stats.size(); ++shard) {
    stats[shard].shard = static_cast<int>(shard);
  }
  for (const ShardActivationRecord& record : records_) {
    ShardStats& stat = stats[static_cast<std::size_t>(record.shard)];
    stat.activations += record.jobs > 0 ? 1 : 0;
    stat.jobs_scheduled += record.jobs;
    stat.migrated_in += record.migrated_in;
    stat.migrated_out += record.migrated_out;
    stat.stolen_in += record.stolen_in;
    stat.stolen_out += record.stolen_out;
    stat.total_race_ms += record.race_ms;
    stat.max_race_ms = std::max(stat.max_race_ms, record.race_ms);
  }
  return stats;
}

void GridSchedulingService::adopt_new_machines(
    const std::vector<int>& machine_ids) {
  for (const int machine : machine_ids) {
    machine_shard_.try_emplace(machine, machine % config_.num_shards);
  }
}

void GridSchedulingService::maybe_resize(const EtcMatrix& etc,
                                         const BatchContext& context) {
  if (config_.split_above_machines <= 0 && config_.merge_below_machines <= 0) {
    return;
  }
  // Hysteresis, part 1: a resize opens a cooldown window — the partition
  // gets `resize_cooldown` activations to settle (caches re-warm, backlogs
  // redistribute) before the census may trigger again.
  if (config_.resize_cooldown > 0 && resized_ever_ &&
      activation_ - last_resize_activation_ <=
          static_cast<std::uint64_t>(config_.resize_cooldown)) {
    return;
  }
  const obs::TraceSpan resize_span(config_.trace, "resize_scan", "resize");
  // Hysteresis, part 2: band-widened triggers. A pool hovering exactly at
  // a bound (churn flipping one machine in and out) stays put; only a
  // clear excursion past the band resizes.
  const double split_trigger =
      static_cast<double>(config_.split_above_machines) *
      (1.0 + config_.resize_band);
  const double merge_trigger =
      static_cast<double>(config_.merge_below_machines) *
      (1.0 - config_.resize_band);
  const int alive_total = static_cast<int>(context.machine_ids.size());
  const std::unordered_set<int> alive_ids(context.machine_ids.begin(),
                                          context.machine_ids.end());
  // Grid machine id -> reported MIPS, built lazily: only a split that
  // actually fires consumes it, and the steady state (no resize) should
  // not pay a per-activation map build. Empty map = unreported; the
  // split cut then balances counts, which is the old parity behavior.
  std::unordered_map<int, double> mips_of;
  bool mips_mapped = false;
  const auto ensure_mips_map = [&] {
    if (mips_mapped) return;
    mips_mapped = true;
    for (std::size_t column = 0; column < context.machine_mips.size();
         ++column) {
      mips_of.emplace(context.machine_ids[column],
                      context.machine_mips[column]);
    }
  };
  // Bounded walk: each iteration either splits (capped by max_shards) or
  // merges (capped by the active count), and the ctor's bound gap forbids
  // a split/merge cycle.
  for (int step = 0; step < 2 * config_.max_shards; ++step) {
    // Alive-machine census of the current partition.
    std::vector<ShardLoad> loads(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      loads[s].shard = static_cast<int>(s);
    }
    for (int column = 0; column < etc.num_machines(); ++column) {
      const auto shard = static_cast<std::size_t>(shard_of_machine(
          context.machine_ids[static_cast<std::size_t>(column)]));
      loads[shard].alive += 1;
      loads[shard].ready_sum += etc.ready_time(static_cast<MachineId>(column));
    }
    std::vector<ShardLoad> active;
    for (const ShardLoad& load : loads) {
      if (load.alive > 0) active.push_back(load);
    }
    const double mean = static_cast<double>(alive_total) /
                        static_cast<double>(active.size());

    if (config_.split_above_machines > 0 &&
        static_cast<int>(shards_.size()) < config_.max_shards &&
        mean > split_trigger) {
      // Split the hottest shard (largest alive backlog; ties toward more
      // machines, then the lower id) that has at least two machines.
      const ShardLoad* hot = nullptr;
      for (const ShardLoad& load : active) {
        if (load.alive < 2) continue;
        if (hot == nullptr || load.ready_sum > hot->ready_sum ||
            (load.ready_sum == hot->ready_sum && load.alive > hot->alive)) {
          hot = &load;
        }
      }
      if (hot == nullptr) return;
      // Recycle an empty slot if one exists (a previous merge left it),
      // else grow.
      int child = -1;
      std::vector<bool> owns_machine(shards_.size(), false);
      for (const auto& [machine, shard] : machine_shard_) {
        owns_machine[static_cast<std::size_t>(shard)] = true;
      }
      for (std::size_t s = 0; s < owns_machine.size(); ++s) {
        if (!owns_machine[s]) {
          child = static_cast<int>(s);
          break;
        }
      }
      if (child < 0) child = add_shard_slot();
      // Cut the parent's ALIVE machines into two load-balanced halves.
      // The greedy runs PER hardware class with class-local MIPS sums —
      // heaviest machine first, each to the class's lighter side — so
      // every class with two or more machines lands on BOTH sides
      // (diversity first: a globally-balanced cut could strand a whole
      // class on one shard, recreating the off-class regime class-aware
      // routing exists to avoid). Class-local ties (including each
      // class's first machine, and every machine when speeds are
      // unreported and all weights are 1) fall through to the globally
      // lighter side, then to the parent — which is what makes the
      // classless equal-weight cut reduce to the old id-parity
      // alternation, and hands singleton classes to whichever side is
      // lighter overall. The child is guaranteed real capacity: the
      // second machine of the first multi-machine class (or the second
      // singleton) always lands on it. Splitting the alive list
      // separately from the dead one matters for the same reason it
      // always did — a cut over the mixed list could hand the child only
      // corpses, leaving the alive mean unchanged and the loop splitting
      // the same parent again. Dead machines still move by id parity (no
      // reported speed) so repairs rejoin a coherent partition.
      ensure_mips_map();
      std::vector<int> owned_alive;
      std::vector<int> owned_dead;
      for (const auto& [machine, shard] : machine_shard_) {
        if (shard != hot->shard) continue;
        (alive_ids.count(machine) > 0 ? owned_alive : owned_dead)
            .push_back(machine);
      }
      const int num_classes = context.num_job_classes;
      auto weight_of = [&](int machine) {
        const auto it = mips_of.find(machine);
        return it != mips_of.end() ? it->second : 1.0;
      };
      auto class_of = [&](int machine) {
        return num_classes > 0 ? machine % num_classes : 0;
      };
      std::sort(owned_alive.begin(), owned_alive.end(),
                [&](int a, int b) {
                  const int class_a = class_of(a);
                  const int class_b = class_of(b);
                  if (class_a != class_b) return class_a < class_b;
                  const double weight_a = weight_of(a);
                  const double weight_b = weight_of(b);
                  if (weight_a != weight_b) return weight_a > weight_b;
                  return a < b;
                });
      int moved = 0;
      double parent_mips = 0.0;
      double child_mips = 0.0;
      double class_parent = 0.0;
      double class_child = 0.0;
      int current_class = -1;
      for (const int machine : owned_alive) {
        if (class_of(machine) != current_class) {
          current_class = class_of(machine);
          class_parent = 0.0;
          class_child = 0.0;
        }
        const double weight = weight_of(machine);
        const bool to_child =
            class_child != class_parent ? class_child < class_parent
                                        : child_mips < parent_mips;
        if (to_child) {
          machine_shard_[machine] = child;
          class_child += weight;
          child_mips += weight;
          ++moved;
        } else {
          class_parent += weight;
          parent_mips += weight;
        }
      }
      std::sort(owned_dead.begin(), owned_dead.end());
      for (std::size_t i = 1; i < owned_dead.size(); i += 2) {
        machine_shard_[owned_dead[i]] = child;
        ++moved;
      }
      // The child's portfolio warms up from a copy of the parent's cache;
      // the cache's remapping (MET fallback, pattern transfer) absorbs
      // the machine move at its next activation.
      shards_[static_cast<std::size_t>(child)]->seed_cache(
          shards_[static_cast<std::size_t>(hot->shard)]->cache());
      resizes_.push_back(ShardResizeEvent{
          .activation = context.activation,
          .split = true,
          .from_shard = hot->shard,
          .to_shard = child,
          .machines_moved = moved,
          .alive_machines = alive_total,
      });
      if (config_.trace != nullptr) {
        config_.trace->instant("split", "resize",
                               {{"from", hot->shard},
                                {"to", child},
                                {"machines_moved", moved}});
      }
      resized_ever_ = true;
      last_resize_activation_ = activation_;
      continue;
    }

    if (config_.merge_below_machines > 0 && active.size() > 1 &&
        mean < merge_trigger) {
      // Merge the two lightest shards (smallest alive backlog; ties
      // toward fewer machines, then the lower id). The lower-id one
      // absorbs, so long-lived shard identities stay stable.
      std::sort(active.begin(), active.end(),
                [](const ShardLoad& a, const ShardLoad& b) {
                  if (a.ready_sum != b.ready_sum)
                    return a.ready_sum < b.ready_sum;
                  if (a.alive != b.alive) return a.alive < b.alive;
                  return a.shard < b.shard;
                });
      const int first = active[0].shard;
      const int second = active[1].shard;
      const int absorber = std::min(first, second);
      const int emptied = std::max(first, second);
      int moved = 0;
      for (auto& [machine, shard] : machine_shard_) {
        if (shard == emptied) {
          shard = absorber;
          ++moved;
        }
      }
      resizes_.push_back(ShardResizeEvent{
          .activation = context.activation,
          .split = false,
          .from_shard = emptied,
          .to_shard = absorber,
          .machines_moved = moved,
          .alive_machines = alive_total,
      });
      if (config_.trace != nullptr) {
        config_.trace->instant("merge", "resize",
                               {{"from", emptied},
                                {"to", absorber},
                                {"machines_moved", moved}});
      }
      resized_ever_ = true;
      last_resize_activation_ = activation_;
      continue;
    }
    return;
  }
}

Schedule GridSchedulingService::schedule_batch(const EtcMatrix& etc,
                                               const BatchContext& context) {
  // Started first so the activation record owns the serial pre-race cost
  // too: validation, admission, routing, rebalance, sub-matrix build.
  Stopwatch activation_watch;
  if (context.job_ids.size() != static_cast<std::size_t>(etc.num_jobs()) ||
      context.machine_ids.size() !=
          static_cast<std::size_t>(etc.num_machines())) {
    throw std::invalid_argument(
        "Service: batch context does not match the ETC dimensions");
  }
  // machine_mips is indexed alongside machine_ids by the split cut; a
  // caller reporting speeds for a different machine set (say the full
  // grid while machine_ids holds only the alive subset) would silently
  // weight the wrong machines.
  if (!context.machine_mips.empty()) {
    if (context.machine_mips.size() !=
        static_cast<std::size_t>(etc.num_machines())) {
      throw std::invalid_argument(
          "Service: machine_mips must be empty or one entry per batch "
          "machine");
    }
    for (const double mips : context.machine_mips) {
      // Negated comparison rejects NaN too. A zero or garbage rating
      // would freeze the greedy split cut's running sums and hand the
      // child shard no alive capacity.
      if (!(mips > 0.0) || !std::isfinite(mips)) {
        throw std::invalid_argument(
            "Service: machine_mips entries must be finite and > 0");
      }
    }
  }
  // QoS vectors are indexed by batch row/column below (admission, the
  // deadline-aware router, sub-context slicing); a size mismatch would
  // silently read the wrong job's promise.
  if (!context.job_deadlines.empty() &&
      context.job_deadlines.size() !=
          static_cast<std::size_t>(etc.num_jobs())) {
    throw std::invalid_argument(
        "Service: job_deadlines must be empty or one entry per batch job");
  }
  if (!context.machine_cost_rates.empty() &&
      context.machine_cost_rates.size() !=
          static_cast<std::size_t>(etc.num_machines())) {
    throw std::invalid_argument(
        "Service: machine_cost_rates must be empty or one entry per batch "
        "machine");
  }
  if ((!context.job_users.empty() &&
       context.job_users.size() !=
           static_cast<std::size_t>(etc.num_jobs())) ||
      (!context.job_budgets.empty() &&
       context.job_budgets.size() !=
           static_cast<std::size_t>(etc.num_jobs()))) {
    throw std::invalid_argument(
        "Service: job_users/job_budgets must be empty or one entry per "
        "batch job");
  }
  // Class info must be coherent before anything indexes by class: the
  // simulator resolves classes modulo num_job_classes, but this is a
  // public BatchScheduler entry point, and an out-of-range class would
  // otherwise index the per-class books out of bounds. -1 (unclassed) is
  // legal and routes classless.
  if (context.num_job_classes > 0) {
    if (!context.job_classes.empty() &&
        context.job_classes.size() !=
            static_cast<std::size_t>(etc.num_jobs())) {
      throw std::invalid_argument(
          "Service: job_classes must be empty or one entry per batch job");
    }
    for (const int job_class : context.job_classes) {
      if (job_class < -1 || job_class >= context.num_job_classes) {
        throw std::invalid_argument(
            "Service: job class out of range for num_job_classes");
      }
    }
  }
  ++activation_;
  if (etc.num_jobs() == 0) return Schedule(0);

  // Explicit begin/end (not TraceSpan): the activation span must close
  // BEFORE the end-of-activation flush below, and a scoped span would
  // still be open there.
  obs::TraceRecorder* const trace = config_.trace;
  if (trace != nullptr) {
    trace->begin("activation", "service",
                 {{"activation",
                   static_cast<std::int64_t>(context.activation)},
                  {"jobs", etc.num_jobs()}});
  }

  adopt_new_machines(context.machine_ids);
  maybe_resize(etc, context);

  const int num_classes = context.num_job_classes;
  auto job_class_of = [&](JobId row) {
    return static_cast<std::size_t>(row) < context.job_classes.size()
               ? context.job_classes[static_cast<std::size_t>(row)]
               : -1;
  };

  // --- Partition the batch's machines into their shards. ---
  std::vector<ShardSnapshot> snapshots;  // authoritative shard load view
  std::vector<ActiveShard> active;       // only shards with alive machines
  std::vector<int> active_index(shards_.size(), -1);
  for (int column = 0; column < etc.num_machines(); ++column) {
    const int machine =
        context.machine_ids[static_cast<std::size_t>(column)];
    const int shard = shard_of_machine(machine);
    if (active_index[static_cast<std::size_t>(shard)] < 0) {
      active_index[static_cast<std::size_t>(shard)] =
          static_cast<int>(active.size());
      active.push_back(ActiveShard{
          .queue = {},
          .record = {.activation = context.activation, .shard = shard}});
      ShardSnapshot snapshot;
      snapshot.shard = shard;
      if (num_classes > 0) {
        snapshot.class_machines.assign(static_cast<std::size_t>(num_classes),
                                       0);
        snapshot.class_routed_work.assign(
            static_cast<std::size_t>(num_classes), 0.0);
        snapshot.class_speedup = context.class_speedup;
      }
      snapshots.push_back(std::move(snapshot));
    }
    ShardSnapshot& snapshot = snapshots[static_cast<std::size_t>(
        active_index[static_cast<std::size_t>(shard)])];
    snapshot.columns.push_back(column);
    snapshot.ready_sum += etc.ready_time(static_cast<MachineId>(column));
    if (num_classes > 0) {
      snapshot.class_machines[static_cast<std::size_t>(machine %
                                                       num_classes)] += 1;
    }
  }
  // The simulator only activates on alive machines, so `active` cannot be
  // empty here; a defensive check keeps misuse loud.
  if (active.empty()) {
    throw std::invalid_argument("Service: batch has no machines");
  }

  // --- Admission triage at ingress, before any routing. Rejected rows
  // never enter a shard queue (their gene becomes kRejected at the fold);
  // degraded rows keep running but with the deadline stripped, so they
  // stop competing for the urgent machines downstream. ---
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto deadline_of = [&](JobId row) {
    return static_cast<std::size_t>(row) < context.job_deadlines.size()
               ? context.job_deadlines[static_cast<std::size_t>(row)]
               : kInf;
  };
  std::vector<bool> row_rejected(static_cast<std::size_t>(etc.num_jobs()),
                                 false);
  std::vector<bool> row_degraded(static_cast<std::size_t>(etc.num_jobs()),
                                 false);
  int jobs_rejected = 0;
  int jobs_degraded = 0;
  if (config_.admission.enabled) {
    const obs::TraceSpan admission_span(trace, "admission", "admission");
    double ready_sum = 0.0;
    for (MachineId column = 0; column < etc.num_machines(); ++column) {
      ready_sum += etc.ready_time(column);
    }
    const double mean_backlog =
        ready_sum / static_cast<double>(etc.num_machines());
    for (JobId row = 0; row < etc.num_jobs(); ++row) {
      double best_etc = kInf;
      for (MachineId column = 0; column < etc.num_machines(); ++column) {
        best_etc = std::min(best_etc, etc(row, column));
      }
      // Cheapest money cost of the row anywhere — what the budget account
      // is charged on acceptance. Zero when costs are not modelled, so
      // budget rejection never fires on a cost-free grid.
      double cost_estimate = 0.0;
      if (!context.machine_cost_rates.empty()) {
        cost_estimate = kInf;
        for (MachineId column = 0; column < etc.num_machines(); ++column) {
          cost_estimate = std::min(
              cost_estimate,
              etc(row, column) *
                  context.machine_cost_rates[static_cast<std::size_t>(
                      column)]);
        }
      }
      const auto index = static_cast<std::size_t>(row);
      const int user =
          index < context.job_users.size() ? context.job_users[index] : -1;
      const double budget = index < context.job_budgets.size()
                                ? context.job_budgets[index]
                                : -1.0;
      switch (admission_.admit(deadline_of(row), best_etc, mean_backlog,
                               user, budget, cost_estimate)) {
        case AdmissionDecision::kReject:
          row_rejected[index] = true;
          ++jobs_rejected;
          break;
        case AdmissionDecision::kBestEffort:
          row_degraded[index] = true;
          ++jobs_degraded;
          break;
        case AdmissionDecision::kAccept:
          break;
      }
    }
    if (trace != nullptr) {
      trace->instant("admission.decisions", "admission",
                     {{"accepted",
                       etc.num_jobs() - jobs_rejected - jobs_degraded},
                      {"degraded", jobs_degraded},
                      {"rejected", jobs_rejected}});
    }
  }
  auto routed_deadline_of = [&](JobId row) {
    return row_degraded[static_cast<std::size_t>(row)] ? kInf
                                                       : deadline_of(row);
  };

  // --- Route every admitted job to a shard. ---
  for (JobId row = 0; row < etc.num_jobs(); ++row) {
    if (row_rejected[static_cast<std::size_t>(row)]) continue;
    const RoutedJob job(row, job_class_of(row), routed_deadline_of(row));
    const std::size_t pick = router_.route(job, etc, snapshots);
    active[pick].queue.push_back(row);
    snapshots[pick].book_routed(
        job.job_class, shard_work_estimate(etc, job, snapshots[pick]), 1);
  }

  // --- Rebalance: the hottest shard sheds its newest jobs to the
  // lightest while the backlogs differ by more than the imbalance factor.
  // Each migration must strictly shrink the hot/light spread, which
  // guarantees termination and forbids ping-pong. ---
  if (config_.imbalance_factor >= 1.0 && active.size() > 1) {
    const std::size_t max_migrations =
        static_cast<std::size_t>(etc.num_jobs());
    for (std::size_t moves = 0; moves < max_migrations; ++moves) {
      std::size_t hot = 0;
      std::size_t light = 0;
      for (std::size_t s = 1; s < snapshots.size(); ++s) {
        if (snapshots[s].backlog() > snapshots[hot].backlog()) hot = s;
        if (snapshots[s].backlog() < snapshots[light].backlog()) light = s;
      }
      if (active[hot].queue.empty() ||
          snapshots[hot].backlog() <=
              config_.imbalance_factor * snapshots[light].backlog() + 1e-12) {
        break;
      }
      const RoutedJob job(active[hot].queue.back(),
                          job_class_of(active[hot].queue.back()));
      const double out_work = shard_work_estimate(etc, job, snapshots[hot]);
      const double in_work = shard_work_estimate(etc, job, snapshots[light]);
      if (snapshots[light].backlog() + in_work >= snapshots[hot].backlog()) {
        break;  // moving the job would just swap who is hot
      }
      active[hot].queue.pop_back();
      active[light].queue.push_back(job.row);
      snapshots[hot].book_routed(job.job_class, out_work, -1);
      snapshots[light].book_routed(job.job_class, in_work, 1);
      active[hot].record.migrated_out += 1;
      active[light].record.migrated_in += 1;
    }
  }

  // --- Build every racing shard's sub-problem (serially — cheap), then
  // race them on the shared pool, one TaskGroup per shard, folding the
  // results from the per-shard slots afterwards. ---
  std::vector<ShardRace> races;
  for (std::size_t s = 0; s < active.size(); ++s) {
    ActiveShard& entry = active[s];
    const ShardSnapshot& shard = snapshots[s];
    entry.record.jobs = static_cast<int>(entry.queue.size());
    entry.record.backlog = shard.backlog();
    if (entry.queue.empty()) continue;
    ShardRace race;
    race.active_index = s;
    race.sub = EtcMatrix(static_cast<int>(entry.queue.size()),
                         static_cast<int>(shard.columns.size()));
    race.sub_context.activation = context.activation;
    race.sub_context.num_job_classes = context.num_job_classes;
    race.sub_context.class_speedup = context.class_speedup;
    for (std::size_t row = 0; row < entry.queue.size(); ++row) {
      const JobId job = entry.queue[row];
      race.sub_context.job_ids.push_back(
          context.job_ids[static_cast<std::size_t>(job)]);
      if (num_classes > 0) {
        race.sub_context.job_classes.push_back(job_class_of(job));
      }
      if (!context.job_deadlines.empty()) {
        // Degraded rows pass +infinity: the shard's Pareto race must not
        // chase a promise admission already declared broken.
        race.sub_context.job_deadlines.push_back(routed_deadline_of(job));
      }
      for (std::size_t column = 0; column < shard.columns.size(); ++column) {
        race.sub.set(static_cast<JobId>(row), static_cast<MachineId>(column),
                     etc(job, static_cast<MachineId>(shard.columns[column])));
      }
    }
    for (std::size_t column = 0; column < shard.columns.size(); ++column) {
      race.sub.set_ready_time(static_cast<MachineId>(column),
                              etc.ready_time(static_cast<MachineId>(
                                  shard.columns[column])));
      race.sub_context.machine_ids.push_back(context.machine_ids[
          static_cast<std::size_t>(shard.columns[column])]);
      if (!context.machine_cost_rates.empty()) {
        race.sub_context.machine_cost_rates.push_back(
            context.machine_cost_rates[static_cast<std::size_t>(
                shard.columns[column])]);
      }
    }
    races.push_back(std::move(race));
  }

  const double slice =
      config_.total_budget_ms / static_cast<double>(races.size());
  const bool concurrent = config_.concurrent_shards && races.size() > 1;
  // One group per shard: a group's wait drains exactly that shard's race,
  // so concurrent races overlap instead of queueing behind a whole-pool
  // barrier, and sequential mode waits on each group before submitting
  // the next shard's race. Budgets are armed serially before each race
  // starts (the portfolios are only ever touched by their own task).
  std::vector<TaskGroup> groups;
  groups.reserve(races.size());
  for (ShardRace& race : races) {
    ShardActivationRecord& record = active[race.active_index].record;
    const int shard_id = record.shard;
    PortfolioBatchScheduler* scheduler =
        shards_[static_cast<std::size_t>(shard_id)].get();
    scheduler->set_budget_ms(slice);
    record.budget_ms = slice;
    groups.push_back(pool_.make_group());
    ShardRace* slot = &race;
    double* race_ms = &record.race_ms;
    // The span opens inside the task, on the pool thread running this
    // shard's race — so per-tid nesting holds and the member spans the
    // portfolio emits sit inside it.
    pool_.submit(groups.back(), [scheduler, slot, race_ms, trace, shard_id] {
      const obs::TraceSpan span(
          trace, "shard_race", "shard",
          {{"shard", shard_id},
           {"jobs", slot->sub.num_jobs()}});
      Stopwatch watch;
      slot->plan = scheduler->schedule_batch(slot->sub, slot->sub_context);
      *race_ms = watch.elapsed_ms();
    });
    // Sequentially nothing else is in flight, so a failure may leave here.
    if (!concurrent) groups.back().wait();
  }
  // Wait on EVERY group even when one throws — the others still hold
  // references into `races` — then rethrow with the multi-failure
  // contract. Groups already waited on return at once.
  std::vector<std::exception_ptr> failures;
  for (TaskGroup& group : groups) {
    try {
      group.wait();
    } catch (...) {
      failures.push_back(std::current_exception());
    }
  }
  if (failures.size() == 1) std::rethrow_exception(failures.front());
  if (failures.size() > 1) throw TaskGroupError(std::move(failures));
  // --- Fold the slots back into the global plan. ---
  Schedule plan(etc.num_jobs());
  for (const ShardRace& race : races) {
    const ActiveShard& entry = active[race.active_index];
    const ShardSnapshot& shard = snapshots[race.active_index];
    for (std::size_t row = 0; row < entry.queue.size(); ++row) {
      plan[entry.queue[row]] = static_cast<MachineId>(
          shard.columns[static_cast<std::size_t>(
              race.plan[static_cast<JobId>(row)])]);
    }
  }
  // --- Seal the plan: rejected rows get their explicit kRejected gene,
  // and any OTHER still-unassigned row is rescued by a whole-batch MCT
  // pick. The partition invariants make a stranded row impossible today
  // (a shard only races when it has alive columns, and every race plans
  // its whole queue), but the cost of a strand is a thrown activation and
  // a lost job — so the guard re-routes instead of trusting the
  // invariant, and the books (`jobs_rerouted`) make any rescue visible. ---
  int jobs_rerouted = 0;
  for (JobId row = 0; row < etc.num_jobs(); ++row) {
    if (row_rejected[static_cast<std::size_t>(row)]) {
      plan[row] = Schedule::kRejected;
      continue;
    }
    if (plan[row] >= 0) continue;
    MachineId best_column = 0;
    double best_completion = kInf;
    for (MachineId column = 0; column < etc.num_machines(); ++column) {
      const double completion = etc.ready_time(column) + etc(row, column);
      if (completion < best_completion) {
        best_completion = completion;
        best_column = column;
      }
    }
    plan[row] = best_column;
    ++jobs_rerouted;
  }

  // --- Drain-tail work stealing: with the races committed, the exact
  // per-machine drain times are known; while a FOREIGN machine can finish
  // one of the critical machine's jobs strictly earlier, the job moves
  // there (plan_drain_steals). This is where a dying queue stops being a
  // one-partition problem: once neighbors drain, their idle machines
  // absorb the last shard's stragglers. Every move updates the plan and
  // the steal counts, and hands the job's cache entry from the victim
  // portfolio to the thief's, so at most one cache knows each job.
  int jobs_stolen = 0;
  if (config_.drain_steal && active.size() > 1) {
    const obs::TraceSpan steal_span(trace, "drain_steal", "steal");
    std::vector<int> column_shard(
        static_cast<std::size_t>(etc.num_machines()));
    for (int column = 0; column < etc.num_machines(); ++column) {
      column_shard[static_cast<std::size_t>(column)] = shard_of_machine(
          context.machine_ids[static_cast<std::size_t>(column)]);
    }
    const std::vector<StealMove> steals =
        plan_drain_steals(etc, plan, column_shard, etc.num_jobs());
    auto record_of = [&](int shard) -> ShardActivationRecord& {
      return active[static_cast<std::size_t>(
                        active_index[static_cast<std::size_t>(shard)])]
          .record;
    };
    for (const StealMove& steal : steals) {
      plan[steal.row] = static_cast<MachineId>(steal.to_column);
      const int job = context.job_ids[static_cast<std::size_t>(steal.row)];
      record_of(steal.from_shard).stolen_out += 1;
      record_of(steal.to_shard).stolen_in += 1;
      // Hand the warm-start entry to the thief — but only when its cache
      // has elites to extend (adopt_job is a no-op on an empty cache, and
      // erasing first would drop the entry from EVERY cache). When the
      // thief cannot hold it, the victim keeps the entry: at most one
      // cache knows the job either way, and a stale hint beats none.
      PopulationCache& victim_cache =
          shards_[static_cast<std::size_t>(steal.from_shard)]->cache();
      PopulationCache& thief_cache =
          shards_[static_cast<std::size_t>(steal.to_shard)]->cache();
      if (!thief_cache.empty() && victim_cache.erase_job(job)) {
        thief_cache.adopt_job(
            job, context.machine_ids[static_cast<std::size_t>(
                     steal.to_column)]);
      }
    }
    jobs_stolen = static_cast<int>(steals.size());
  }

  // --- Keep the record of every shard that raced or moved jobs. ---
  for (const ActiveShard& entry : active) {
    const ShardActivationRecord& record = entry.record;
    if (record.jobs > 0 || record.migrated_in > 0 || record.migrated_out > 0 ||
        record.stolen_in > 0 || record.stolen_out > 0) {
      records_.push_back(record);
    }
  }

  // The activation wall stops HERE so the record owns every serial cost
  // of the activation — fold and steal pass included, not just the
  // overlapped races. A regression that made stealing slow must show up
  // in the bench's activation-wall columns, not hide behind them.
  const double wall_ms = activation_watch.elapsed_ms();
  service_records_.push_back(ServiceActivationRecord{
      .activation = context.activation,
      .shards_raced = static_cast<int>(races.size()),
      .wall_ms = wall_ms,
      .concurrent = concurrent,
      .jobs_stolen = jobs_stolen,
      .jobs_rejected = jobs_rejected,
      .jobs_rerouted = jobs_rerouted,
  });
  if (trace != nullptr) {
    trace->end("activation");
    // Flush at the boundary: every racing thread's buffer drains while no
    // race is in flight, so the central log grows between activations,
    // not during them.
    trace->flush();
  }
  return plan;
}

}  // namespace gridsched
