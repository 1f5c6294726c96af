// The memetic component: local search applied to every offspring.
//
// The paper studies three methods (Section 3.2, Fig. 2):
//   LM    Local Move             - random job to a random machine, kept only
//                                  if it improves.
//   SLM   Steepest Local Move    - random job, moved to the best machine if
//                                  that improves.
//   LMCTS Local Minimum Completion Time Swap - the best improving swap of
//                                  two jobs on different machines.
//
// The improvement metric (LsObjective, core/fitness.h) defaults to the
// scalarized fitness (what the replacement rule uses); a makespan-only
// mode matches the paper's "reduction of the completion time" wording —
// both are kept and compared in bench/ablation_local_search (DESIGN.md
// section 4).
//
// LMCTS pair scan: the paper's "the pair of jobs that yields the best
// reduction in the completion time is applied" leaves the candidate set
// open. The literal all-pairs reading is O(n^2) per step — far beyond what
// the paper's 450 MHz testbed could have sustained at 37 offspring x 5 LS
// steps per iteration — so the default mirrors LM/SLM's "one random focus
// job per step" shape: a random job on the makespan machine is paired
// against every job on the other machines. The heavier scans are kept as
// config options and compared in bench/ablation_local_search.
//
// Every scan but kSampled runs ScheduleEvaluator::best_swap once per
// focus job — O(n + m log k) plus O(1) per partner, the partners' ranks on
// the focus job's machine coming from one walk of its ETC column, where
// previewing pair by pair paid n - k_c swap previews of two rank counts
// each — with the best score so far as the strict bound. It picks the
// pair, and the bitwise score, of a job-id-ordered preview_swap scan
// keeping the first strict improvement (tests/test_local_search.cpp holds
// it to that oracle).
#pragma once

#include <string_view>

#include "common/cancellation.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/fitness.h"

namespace gridsched {

// VNS (kVns) is a post-paper addition: a variable-neighborhood ladder
// over the paper's own operators. Rung 0 is a steepest move, rung 1 the
// LMCTS swap scan, rung 2 a two-move ejection chain off the critical
// machine (move a critical job to its best target, then relocate one job
// from that target to a third machine — a compound edit neither single
// operator can express). The rung escalates on stagnation and resets to
// 0 on improvement; with `vns_max_rung = 0` the walk degenerates to SLM
// exactly (bitwise — tests pin this).
enum class LocalSearchKind {
  kNone,
  kLocalMove,
  kSteepestLocalMove,
  kLmcts,
  kVns,
};
enum class LmctsScan {
  kCriticalRandomJob,  // random job on the makespan machine x all partners
  kCriticalAllJobs,    // every job on the makespan machine x all partners
  kFull,               // every pair of jobs on different machines
  kSampled,            // `sampled_pairs` random pairs
};

[[nodiscard]] std::string_view local_search_name(LocalSearchKind k) noexcept;

struct LocalSearchConfig {
  LocalSearchKind kind = LocalSearchKind::kLmcts;
  int iterations = 5;  // paper's tuned "nb local search iterations"
  LsObjective objective = LsObjective::kFitness;
  LmctsScan scan = LmctsScan::kCriticalRandomJob;
  int sampled_pairs = 512;  // budget for LmctsScan::kSampled
  /// Highest VNS rung (0 = moves only, 1 = +swaps, 2 = +ejection chains).
  int vns_max_rung = 2;
};

/// Statistics of one local_search() call (useful for tests and ablations).
struct LocalSearchStats {
  int iterations_run = 0;
  int improvements = 0;
  std::int64_t previews = 0;  // candidate evaluations performed
};

/// Improves the evaluator's schedule in place. Never worsens the schedule
/// under the configured objective. Stops early once an iteration finds no
/// improving neighbor (the walk reached a local optimum for its operator).
/// `cancel` is polled between neighborhood moves so a portfolio deadline
/// cuts a pass short mid-walk instead of overshooting by a whole pass
/// (matters once per-activation budgets drop below ~5 ms); the schedule is
/// left in a valid, never-worse state at whatever move the poll fired.
LocalSearchStats local_search(const LocalSearchConfig& config,
                              const FitnessWeights& weights,
                              ScheduleEvaluator& evaluator, Rng& rng,
                              const CancellationToken& cancel = {});

}  // namespace gridsched
