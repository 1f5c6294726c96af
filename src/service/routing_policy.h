// Job routing across portfolio shards.
//
// The sharded scheduling service partitions the grid's machines into
// shards and must decide, per arriving job, which shard's queue it joins.
// A ShardRouter sees the batch ETC plus a snapshot of every *available*
// shard (one with at least one alive machine this activation) and picks
// one by its RoutingKind (the kinds are documented on the enum below).
//
// Ties break toward the lower shard id, so routing is deterministic given
// the snapshots. Round-robin keeps a cursor, so a router is stateful.
#pragma once

#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace gridsched {

enum class RoutingKind {
  /// Cycle over the available shards — the oblivious baseline, perfect
  /// spread by count, blind to load and to ETC.
  kRoundRobin,
  /// Shard with the smallest backlog: sum of its machines' ready times plus
  /// the estimated work already routed to it this activation (without the
  /// second term every job of a batch would pile onto the shard that was
  /// lightest when the batch opened).
  kLeastBacklog,
  /// Shard containing the machine with the lowest ETC for this job —
  /// chases machine affinity on inconsistent grids, ignoring load.
  kBestFit,
  /// Per-class backlog routing: score(s) = the shard's mean per-machine
  /// backlog (general congestion) + the job's class queue depth on the
  /// shard's matched machines (class_routed_work / matched machines; a
  /// shard with NO matched machine carries the whole class queue on one
  /// virtual slot, so class-starved shards repel the class) + the job's
  /// real best ETC there. Minimizing that estimate gives every job class
  /// its own view of the queues — the paper-adjacent QoS partition-by-class
  /// story — while classless jobs fall back to plain least-backlog.
  kClassBacklog,
  /// Deadline-pressure routing for QoS runs (src/qos/qos.h). A job with a
  /// deadline is a completion-time problem: it takes the class-corrected
  /// completion estimate (congestion + its class queue depth + its best ETC
  /// there — class-backlog's score, degrading to per-machine backlog plus
  /// best ETC, batch-mode MCT lifted to shards, when classes are not
  /// reported) and joins the shard minimizing it. Best-effort jobs spread
  /// by plain least-backlog, which keeps overall balance AND leaves the
  /// low-ETC matched machines available to the jobs whose promise depends
  /// on them. Without deadlines in the batch it behaves exactly like
  /// least-backlog. See docs/qos.md.
  kDeadlineAware,
};

[[nodiscard]] std::string_view routing_name(RoutingKind kind) noexcept;

/// All routing kinds, in a stable display order.
[[nodiscard]] std::span<const RoutingKind> all_routing_kinds() noexcept;

/// Parses a display name ("least-backlog", "class-backlog", ...) back to
/// its kind; throws std::invalid_argument on an unknown name, listing the
/// valid ones (CLI surfaces pick routing policies by name).
[[nodiscard]] RoutingKind routing_kind_from_name(std::string_view name);

/// The job a routing decision is about: its batch ETC row, its class on
/// class-structured grids (-1 = unclassed), and its relative deadline on
/// QoS runs (+infinity = best effort). Implicitly constructible from a
/// bare row so class-oblivious callers just pass the JobId.
struct RoutedJob {
  JobId row = 0;
  int job_class = -1;
  /// Deadline minus the activation time; +infinity = no deadline.
  double deadline = std::numeric_limits<double>::infinity();

  // NOLINTNEXTLINE(google-explicit-constructor): a bare row IS a routed
  // job on classless grids; the implicit form keeps old call sites valid.
  RoutedJob(JobId row) noexcept : row(row) {}
  RoutedJob(JobId row, int job_class) noexcept
      : row(row), job_class(job_class) {}
  RoutedJob(JobId row, int job_class, double deadline) noexcept
      : row(row), job_class(job_class), deadline(deadline) {}
};

/// What a router knows about one shard at routing time. `columns`
/// are batch ETC column indices (not grid machine ids), so routers can
/// read ETC entries directly. The class fields are filled only on
/// class-structured grids (empty vectors otherwise).
struct ShardSnapshot {
  int shard = 0;
  std::vector<int> columns;  // batch columns of this shard's alive machines
  double ready_sum = 0.0;    // sum of those machines' ready times
  double routed_work = 0.0;  // est. work routed to the shard this activation
  int routed_jobs = 0;
  /// Alive machines per hardware class in this shard (index = class).
  std::vector<int> class_machines;
  /// Estimated work routed per job class this activation (index = class).
  std::vector<double> class_routed_work;
  /// Matched-pair speedup of the grid (1 = classless).
  double class_speedup = 1.0;

  [[nodiscard]] double backlog() const noexcept {
    return ready_sum + routed_work;
  }

  /// Estimated work of `job_class` (>= 0) routed here this activation, per
  /// matched machine. A shard with no matched machine carries the whole
  /// class queue on one virtual slot — the class has a single (slow) lane.
  [[nodiscard]] double class_queue(int job_class) const noexcept {
    const auto index = static_cast<std::size_t>(job_class);
    const double matched =
        has_class(job_class) ? static_cast<double>(class_machines[index])
                             : 1.0;
    return (index < class_routed_work.size() ? class_routed_work[index]
                                             : 0.0) /
           matched;
  }

  /// Books (`jobs` = 1) or unbooks (`jobs` = -1, a migration away) one
  /// routed job whose estimated work on this shard is `work`, in the
  /// total and in its class's column.
  void book_routed(int job_class, double work, int jobs) noexcept {
    const double signed_work = jobs * work;
    routed_work += signed_work;
    routed_jobs += jobs;
    if (job_class >= 0 && !class_routed_work.empty()) {
      class_routed_work[static_cast<std::size_t>(job_class)] += signed_work;
    }
  }

  /// Whether the shard holds at least one alive machine of `job_class`.
  [[nodiscard]] bool has_class(int job_class) const noexcept {
    return job_class >= 0 &&
           job_class < static_cast<int>(class_machines.size()) &&
           class_machines[static_cast<std::size_t>(job_class)] > 0;
  }
};

/// Routes jobs to shards by one RoutingKind.
class ShardRouter {
 public:
  explicit ShardRouter(RoutingKind kind) noexcept : kind_(kind) {}

  /// Picks the index *into `shards`* (not the shard id) for `job`.
  /// `shards` is never empty and every snapshot has at least one column.
  [[nodiscard]] std::size_t route(RoutedJob job, const EtcMatrix& etc,
                                  std::span<const ShardSnapshot> shards);

 private:
  RoutingKind kind_;
  std::size_t next_ = 0;  // round-robin cursor
};

/// Work estimate the service books against a shard when it routes or
/// migrates the job: the job's best ETC over the shard's machines. On
/// heterogeneous grids the shard scheduler places a job at or near its
/// best machine, so the min tracks realized cost far better than the mean
/// (which counts machines the job will never run on).
///
/// Class correction: when the simulator reports classes and the shard
/// holds NO machine of the job's class, the raw minimum is the off-class
/// time — `class_speedup` times the matched-machine cost the same job
/// books on a class-complete shard. Booking it raw makes least-backlog
/// read a class-starved shard as several times busier per routed job than
/// a matched shard absorbing identical intrinsic work, over-diverting the
/// jobs that follow; dividing by the speedup keeps every booking in
/// matched-machine seconds so backlogs stay comparable across shards.
[[nodiscard]] double shard_work_estimate(const EtcMatrix& etc, RoutedJob job,
                                         const ShardSnapshot& shard);

/// One accepted drain-tail steal: the job at batch row `row`, committed to
/// batch column `from_column` by its shard's race, moves to `to_column` —
/// a machine of a DIFFERENT shard that drains earlier and can absorb the
/// job without becoming the new straggler.
struct StealMove {
  JobId row = 0;
  int from_column = 0;
  int to_column = 0;
  int from_shard = 0;
  int to_shard = 0;
};

/// Plans the cross-shard drain-tail steal pass over a committed plan.
///
/// Completion estimates are exact here: a machine's drain time is its
/// ready time plus the summed ETC of the jobs the plan put on it (the
/// execution order on one machine does not change when it drains). The
/// pass repeatedly takes the CRITICAL machine — the one defining the
/// activation's drain tail — and moves one of its jobs to the foreign
/// machine minimizing `completion + etc(job, there)`, accepting the move
/// only when that estimate lands strictly below the critical machine's
/// old drain time. That acceptance rule is the whole contract:
///
///   * the donor pair's max completion strictly shrinks, so the global
///     drain tail is monotonically non-increasing and the pass cannot
///     ping-pong a job back at the same activation;
///   * only cross-shard moves are considered — intra-shard placement is
///     the shard portfolio's job, and second-guessing it here would just
///     re-run local search serially;
///   * class affinity costs nothing extra: the scoring uses the job's
///     REAL ETC on the candidate machine, which already carries the
///     class-speedup structure (an off-class machine only wins when its
///     queue is so short that even the speedup-corrected cost — the same
///     correction `shard_work_estimate` applies to routing books — still
///     beats every matched alternative).
///
/// `column_shard[c]` is the owning shard of batch column `c`. At most
/// `max_moves` moves are planned (a cap, not a target; the pass stops as
/// soon as the critical machine cannot shed profitably). The plan itself
/// is NOT mutated — the service applies the returned moves so its books
/// (job map, steal stats, cache handoff) stay in one place.
[[nodiscard]] std::vector<StealMove> plan_drain_steals(
    const EtcMatrix& etc, const Schedule& plan,
    std::span<const int> column_shard, int max_moves);

}  // namespace gridsched
