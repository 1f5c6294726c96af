// Constructive (one-pass) scheduling heuristics.
//
// LJFR-SJFR is the paper's population seed and the Table 4 baseline. The
// rest are the classic immediate/batch heuristics of Braun et al. (2001),
// provided both as comparison baselines and as alternative population seeds:
//
//   MCT       assign each job (in id order) to the machine that completes
//             it earliest given current loads.
//   MET       machine with the smallest ETC for the job, ignoring load.
//   OLB       machine that becomes free earliest, ignoring ETC.
//   Min-Min   repeatedly commit the (job, machine) pair with the globally
//             smallest completion time.
//   Max-Min   like Min-Min but commits the job whose best completion time
//             is largest (places long jobs first).
//   Sufferage commits the job that would "suffer" most if denied its best
//             machine (largest best-vs-second-best gap).
//   Random    uniform assignment (control baseline).
//
// LJFR-SJFR (Abraham, Buyya & Nath 2000), as described in Section 3.2 of
// the paper: jobs are sorted by workload; the m longest jobs go to the m
// machines, longest job to fastest machine; each remaining step picks the
// machine with the least completion time and gives it alternately the
// shortest (SJFR) or the longest (LJFR) remaining job. Workload and machine
// speed use the mean-ETC proxies documented in DESIGN.md section 3.
#pragma once

#include <span>
#include <string_view>

#include "common/cancellation.h"
#include "common/rng.h"
#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace gridsched {

enum class HeuristicKind {
  kLjfrSjfr,
  kMinMin,
  kMaxMin,
  kMct,
  kMet,
  kOlb,
  kSufferage,
  kRandom,
};

[[nodiscard]] std::string_view heuristic_name(HeuristicKind kind) noexcept;

/// All heuristics, in a stable display order.
[[nodiscard]] std::span<const HeuristicKind> all_heuristics() noexcept;

/// Runs one heuristic. `rng` is only consumed by kRandom (and for
/// deterministic tie-breaking elsewhere it is not needed: ties break toward
/// the lowest machine id so results are reproducible without randomness).
/// `cancel` is threaded into the heuristic (see the per-function contracts
/// below); kRandom is O(n) and ignores it.
[[nodiscard]] Schedule construct_schedule(HeuristicKind kind,
                                          const EtcMatrix& etc, Rng& rng,
                                          const CancellationToken& cancel = {});

// Every heuristic honors an optional CancellationToken. The shared
// contract, mirrored from Min-Min's: the committed prefix is exactly what
// an uncancelled run would have built, so an unfired (or invalid, the
// default) token yields the identical schedule, and a fired one still
// returns a COMPLETE schedule via a strictly cheaper tail rule:
//
//   * the batch heuristics (Min-Min, Max-Min, Sufferage: n commit rounds,
//     each an O(n) pick over cached scores plus re-scoring the jobs whose
//     pick read the machine just loaded) poll between commit rounds and
//     finish the tail with one O(n m) MCT pass (remaining jobs in id
//     order, each to the machine that completes it earliest given the
//     loads built so far);
//   * the O(n m) one-pass heuristics (MCT, MET, OLB, LJFR-SJFR) poll
//     every few jobs and dump the tail round-robin over the machines —
//     O(1) per job, load-blind, but any complete answer beats busting
//     the activation deadline (the portfolio's ensemble rule discards a
//     degraded member result whenever a better one finished in time).

[[nodiscard]] Schedule ljfr_sjfr(const EtcMatrix& etc,
                                 const CancellationToken& cancel = {});
// The batch heuristics' cached picks are exact — bitwise the schedule a
// full O(n^2 m) rescan per round would build — provided every ETC entry
// and ready time is finite and every ETC entry is >= 0 (constructive.cpp,
// greedy_batch). Other inputs still yield a complete schedule.
[[nodiscard]] Schedule min_min(const EtcMatrix& etc,
                               const CancellationToken& cancel = {});
[[nodiscard]] Schedule max_min(const EtcMatrix& etc,
                               const CancellationToken& cancel = {});
[[nodiscard]] Schedule mct(const EtcMatrix& etc,
                           const CancellationToken& cancel = {});
[[nodiscard]] Schedule met(const EtcMatrix& etc,
                           const CancellationToken& cancel = {});
[[nodiscard]] Schedule olb(const EtcMatrix& etc,
                           const CancellationToken& cancel = {});
[[nodiscard]] Schedule sufferage(const EtcMatrix& etc,
                                 const CancellationToken& cancel = {});

}  // namespace gridsched
