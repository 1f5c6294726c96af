// Incremental schedule evaluation.
//
// The local search methods of the cMA preview tens of thousands of candidate
// moves and swaps per second, so evaluating a neighbor from scratch
// (O(jobs)) would dominate the runtime. ScheduleEvaluator maintains
// per-machine state (assigned jobs sorted by ETC, completion time, SPT
// flowtime) plus two aggregate caches — a running total flowtime and a
// top-3 completion-time cache — so that:
//   - previewing a move/swap costs O(log k) in the two affected machines'
//     job counts and is INDEPENDENT of the machine count: the flowtime is
//     the running total plus two closed-form machine deltas, and the
//     makespan is the maximum of the two new completion times and the
//     first top-3 cache entry not owned by an affected machine,
//   - scanning every swap partner of one job (`best_swap`, the LMCTS
//     kernel) costs one pass over the other machines' lists: the job's
//     removal is shared by all partners, its insertion rank and the
//     rest-of-fleet makespan by all partners on one machine,
//   - applying one costs O(k) for the two affected machines (sorted-list
//     surgery plus a prefix-sum rebuild) and adopts the exact closed-form
//     scalars the preview computed, so a preview is bitwise equal to
//     apply-then-measure,
//   - re-targeting the evaluator at a sibling schedule (`reset_to`) costs
//     O(n + d k) where d is the number of differing genes, instead of the
//     full O(n log n) rebuild — the delta path the cMA offspring pipeline
//     rides (docs/performance.md documents the invariants and formulas).
//
// Canonical vs. fast scalars: closed-form deltas round differently than a
// from-scratch summation, so machines touched by apply_move/apply_swap are
// marked dirty and carry "fast" scalars that may sit a few ULP from the
// canonical values (the job lists themselves are always exact).
// canonicalize() — called implicitly by reset()/reset_to() — recomputes the
// dirty machines and the aggregate caches so the state is bitwise identical
// to a fresh reset() of the same schedule. check_consistency() verifies
// both layers (exact lists + caches within tolerance) against a rebuild.
//
// Objective conventions (Section 2 of the paper; DESIGN.md section 4):
//   completion[m] = ready[m] + sum of ETC of jobs on m          (Eq. 1)
//   makespan      = max over machines of completion[m]          (Eq. 2)
//   flowtime      = sum over jobs of their finishing times, with each
//                   machine running its jobs in SPT (ascending ETC) order,
//                   which minimizes flowtime for a fixed assignment.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace gridsched {

/// The objective values a hypothetical edit would produce.
struct PreviewResult {
  Objectives objectives;
  [[nodiscard]] double fitness(const FitnessWeights& w,
                               int num_machines) const noexcept {
    return objectives.fitness(w, num_machines);
  }
};

class ScheduleEvaluator {
 public:
  /// Binds to an ETC matrix; the matrix must outlive the evaluator.
  explicit ScheduleEvaluator(const EtcMatrix& etc);

  /// Loads a complete schedule and (re)builds all machine state from
  /// scratch. O(n log n). Recycles every internal buffer, so a warm reset
  /// allocates nothing once capacities have grown to steady state.
  void reset(const Schedule& schedule);

  /// Re-targets the evaluator at `target` by replaying only the genes that
  /// differ from the current schedule, then canonicalizing the touched
  /// machines — bitwise identical to reset(target) at a fraction of the
  /// cost when the two schedules are similar (offspring vs. parent).
  /// Falls back to reset(target) when the evaluator is empty or the diff
  /// is large enough that the full rebuild is cheaper.
  void reset_to(const Schedule& target);

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] const EtcMatrix& etc() const noexcept { return *etc_; }
  [[nodiscard]] int num_jobs() const noexcept { return etc_->num_jobs(); }
  [[nodiscard]] int num_machines() const noexcept {
    return etc_->num_machines();
  }

  [[nodiscard]] double completion(MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].completion;
  }
  [[nodiscard]] double machine_flow(MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].flow;
  }
  /// Jobs currently assigned to machine m, ascending by (ETC, job id).
  [[nodiscard]] const std::vector<std::pair<double, JobId>>& machine_jobs(
      MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].jobs;
  }

  /// O(1) from the top-3 cache. Throws std::logic_error on a zero-machine
  /// evaluator (there is no completion time to report).
  [[nodiscard]] double makespan() const;
  /// O(1): the running total maintained across applies.
  [[nodiscard]] double flowtime() const noexcept { return total_flow_; }
  [[nodiscard]] Objectives objectives() const {
    return {makespan(), flowtime()};
  }
  [[nodiscard]] double fitness(const FitnessWeights& w) const {
    return objectives().fitness(w, num_machines());
  }
  /// A machine whose completion time equals the makespan (lowest id).
  /// O(1). Throws std::logic_error on a zero-machine evaluator.
  [[nodiscard]] MachineId makespan_machine() const;

  /// Objectives if job were moved to machine `to` (no state change).
  /// O(log k) in the two affected machines — independent of machine count.
  [[nodiscard]] PreviewResult preview_move(JobId job, MachineId to) const;

  /// Objectives if jobs a and b (on different machines) swapped machines.
  /// Precondition: schedule()[a] != schedule()[b].
  [[nodiscard]] PreviewResult preview_swap(JobId a, JobId b) const;

  /// The best swap partner of a focus job, found in one pass.
  struct SwapPick {
    JobId partner = -1;         // -1: no partner scored below the bound
    double score = 0.0;         // the partner's score (the bound if none)
    std::int64_t previews = 0;  // partners scored
  };

  /// Scores swapping `a` with every job b >= `first_partner` on another
  /// machine under `objective` and returns the lexicographic minimum of
  /// (score, b) among the partners scoring strictly below `bound` — the
  /// pair a job-id-ordered scan of preview_swap(a, b) keeping the first
  /// strict improvement picks. Each partner's objectives are bitwise those
  /// of preview_swap(a, b): both run the same closed forms, but here a's
  /// removal is computed once per call and a's insertion rank and the
  /// rest-of-fleet makespan once per destination machine, leaving one
  /// rank count over a's machine per partner.
  [[nodiscard]] SwapPick best_swap(JobId a, JobId first_partner, double bound,
                                   LsObjective objective,
                                   const FitnessWeights& weights) const;

  /// Moves job to machine `to`. Adopts the closed-form scalars a preview
  /// of the same edit computes, so preview_move(job, to) followed by
  /// apply_move(job, to) leaves makespan()/flowtime() bitwise equal to the
  /// preview. Marks the two machines dirty (see canonicalize()).
  void apply_move(JobId job, MachineId to);

  /// Swaps the machines of jobs a and b (must differ). Same exactness
  /// contract as apply_move.
  void apply_swap(JobId a, JobId b);

  /// Recomputes every dirty machine from its (exact) job list and rebuilds
  /// the aggregate caches, leaving the state bitwise identical to a fresh
  /// reset() of the current schedule. No-op when nothing is dirty. Call
  /// before publishing objectives that must match a from-scratch
  /// evaluation (the evolutionary loops do this at readback).
  void canonicalize();

  /// Rebuilds everything from the current schedule and asserts the cached
  /// state matches (test hook). Throws std::logic_error on mismatch.
  void check_consistency() const;

 private:
  struct MachineState {
    std::vector<std::pair<double, JobId>> jobs;  // ascending (etc, job)
    // prefix[i] = sum of the first i ETC values; size jobs.size() + 1.
    // Lets previews answer "flow without job at p / with x inserted" from
    // closed forms instead of re-merging the whole list. Always canonical
    // (rebuilt by full summation after every structural edit).
    std::vector<double> prefix;
    // Structure-of-arrays mirror of jobs[i].first: previews find a virtual
    // job's insertion rank by a branchless count over this contiguous
    // double array (vectorizable) instead of a serial binary search over
    // the pair list. Kept coherent by the same list surgery as `jobs`.
    std::vector<double> keys;
    double completion = 0.0;  // ready + sum of etc
    double flow = 0.0;        // SPT flowtime contribution of this machine
  };

  // Top-3 completion-time cache, ordered by (completion desc, machine id
  // asc). Invariant: every machine not in the cache compares not-better
  // than the last cache entry, so the first entry is always the makespan
  // machine and the first entry not owned by an edit's two affected
  // machines bounds the rest exactly.
  struct TopEntry {
    double completion = 0.0;
    MachineId machine = -1;
  };

  [[nodiscard]] static bool top_better(double ca, MachineId ma, double cb,
                                       MachineId mb) noexcept {
    return ca != cb ? ca > cb : ma < mb;
  }
  [[nodiscard]] int top_capacity() const noexcept {
    return num_machines() < 3 ? num_machines() : 3;
  }
  /// Largest completion among machines other than x and y (0.0 when none).
  [[nodiscard]] double rest_completion(MachineId x, MachineId y) const noexcept;
  void topk_offer(double completion, MachineId m);
  void topk_update(MachineId m, double completion);
  void topk_rebuild();

  /// Recomputes prefix sums, completion and flow of one machine from its
  /// job list — the canonical (from-scratch) summation order.
  void recompute_machine(MachineId m);
  /// Rebuilds just the prefix sums (canonical order) after list surgery.
  static void rebuild_prefix(MachineState& state);

  void list_insert(MachineState& state, double etc, JobId job);
  void list_erase(MachineState& state, double etc, JobId job);

  /// Installs closed-form scalars on a machine, folds the flow delta into
  /// the running total, refreshes the top-3 cache and marks it dirty.
  void commit_machine(MachineId m, double flow, double completion);
  void mark_dirty(MachineId m);
  /// Recomputes the aggregate caches (total flow in machine-id order, then
  /// the top-3 scan) and clears the dirty set.
  void rebuild_caches();

  /// Flow and completion of machine m with `skip` removed (if >= 0) and a
  /// virtual job `add` of the given ETC inserted (if add_job >= 0). Snaps
  /// to {0.0, ready} exactly when the machine ends up empty.
  [[nodiscard]] std::pair<double, double> flow_completion_with(
      MachineId m, JobId skip, JobId add_job, double add_etc) const;

  // The closed forms behind every preview, in one place so that
  // flow_completion_with and best_swap round identically:
  //   remove at p (0-based, list size k):
  //     flow -= ready + prefix[p] + (k - p) * e_p
  //   insert x at q (list size k after removal):
  //     flow += ready + prefix'(q) + (k + 1 - q) * x
  struct Removal {
    double flow;     // machine flow without the removed job
    double sum;      // busy time (completion - ready) without it
    std::size_t k;   // list size after the removal
    std::size_t at;  // removed rank (the pre-removal size when none)
    double etc;      // removed job's ETC (0.0 when none)
  };
  /// Machine scalars with the job at rank p removed.
  [[nodiscard]] static Removal removal(const MachineState& state, double ready,
                                       std::size_t p) noexcept;
  /// Rank of a virtual (etc, job) entry in the machine's (pre-removal)
  /// sorted list.
  [[nodiscard]] static std::size_t insertion_rank(const MachineState& state,
                                                  double etc,
                                                  JobId job) noexcept;
  /// {flow, completion} after inserting `etc` at pre-removal rank q into
  /// the list `base` describes.
  [[nodiscard]] static std::pair<double, double> insertion(
      const MachineState& state, double ready, const Removal& base,
      std::size_t q, double etc) noexcept;

  const EtcMatrix* etc_;
  Schedule schedule_;
  std::vector<MachineState> machines_;

  double total_flow_ = 0.0;        // sum of machine flows, delta-maintained
  std::array<TopEntry, 3> topk_{};  // see TopEntry invariant above
  int topk_size_ = 0;

  std::vector<std::uint8_t> dirty_flag_;  // per-machine: scalars non-canonical
  std::vector<MachineId> dirty_list_;

  // job_pos_[j] = index of job j in its machine's sorted job list. Gives
  // previews the "remove at p" rank in O(1); maintained by the list
  // surgery (stale for jobs mid-flight between erase and insert, which
  // previews never observe).
  std::vector<int> job_pos_;
};

}  // namespace gridsched
