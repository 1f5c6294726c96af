// The batch-scheduler interface the dynamic grid uses.
//
// The paper's deployment story (abstract & conclusions): a dynamic
// scheduler is obtained by running the cMA "in batch mode for a very short
// time to schedule jobs arriving to the system since the last activation".
// GridSimulator hands each activation's pending jobs to a BatchScheduler as
// a fresh ETC sub-problem whose ready times encode the machines' current
// backlogs, with the batch's identity in the grid. Every scheduler
// implements one virtual, schedule_batch(etc, context): MemberBatchScheduler
// (portfolio/member.h) runs one member (a heuristic, the cMA, the Struggle
// GA) under one StopCondition, PortfolioBatchScheduler races several, and
// GridSchedulingService (service/) shards the grid over portfolios.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace gridsched {

/// Identity of a batch within the surrounding grid: which global job each
/// ETC row is, which grid machine each ETC column is, and the activation
/// counter. Stateless schedulers ignore it; stateful ones (the portfolio's
/// warm-start cache) use it to carry information across activations even as
/// jobs come and go and machines fail and recover.
struct BatchContext {
  std::vector<int> job_ids;      // batch row -> global job id
  std::vector<int> machine_ids;  // batch column -> global machine id
  std::uint64_t activation = 0;
  /// Class structure of the batch on class-structured grids (see
  /// SimConfig::num_job_classes); empty/zero on classless grids. A
  /// machine's hardware class is `machine_id % num_job_classes` — the
  /// simulator's interleaved-rack convention — so the sharded service's
  /// class-aware routing can see which shards hold a job's matched
  /// machines and correct its work estimates by `class_speedup`.
  std::vector<int> job_classes;  // batch row -> job class
  int num_job_classes = 0;
  double class_speedup = 1.0;
  /// MIPS rating per batch column (empty = unknown; identity contexts and
  /// hand-built batches leave it so). The sharded service's load-weighted
  /// split cuts balance summed MIPS instead of machine counts when the
  /// simulator reports them — a shard of 4 slow machines is NOT the equal
  /// of a shard of 4 fast ones.
  std::vector<double> machine_mips;
  /// Relative deadline per batch row: absolute deadline minus the
  /// activation time, so it compares directly against completion times
  /// computed from the batch's ready times. +infinity = no deadline for
  /// that row; empty = the run carries no QoS at all (see src/qos/qos.h).
  std::vector<double> job_deadlines;
  /// Cost rate per batch column (cost units per busy second, e.g.
  /// proportional to MIPS); empty = costs not modelled.
  std::vector<double> machine_cost_rates;
  /// Owning user per batch row (-1 = anonymous) and that user's total
  /// cost budget (-1 = unlimited); both empty when the run carries no
  /// per-user accounting. The service's AdmissionController charges each
  /// accepted job's cost estimate against the budget (src/qos/admission.h).
  std::vector<int> job_users;
  std::vector<double> job_budgets;

  /// Identity context for a standalone batch (row i = job i, column j =
  /// machine j) — what callers outside a simulator get by default.
  [[nodiscard]] static BatchContext identity(const EtcMatrix& etc,
                                             std::uint64_t activation = 0);
};

class BatchScheduler {
 public:
  virtual ~BatchScheduler() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Maps every job of `etc` (a batch of pending jobs x available machines,
  /// ready times already set) to a machine. Must return a complete schedule.
  /// `context` names the batch's rows and columns in the grid (the
  /// simulator fills it); stateless schedulers ignore it.
  [[nodiscard]] virtual Schedule schedule_batch(
      const EtcMatrix& etc, const BatchContext& context) = 0;

  /// A standalone batch: forwards BatchContext::identity(etc), so its
  /// activation label is 0. Derived classes re-expose it with
  /// `using BatchScheduler::schedule_batch;`; it stays virtual only so a
  /// forwarding decorator can pass each overload to its twin.
  [[nodiscard]] virtual Schedule schedule_batch(const EtcMatrix& etc) {
    return schedule_batch(etc, BatchContext::identity(etc));
  }
};

}  // namespace gridsched
