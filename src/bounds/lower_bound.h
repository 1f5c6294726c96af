// Optimality-gap machinery: the strongest makespan lower bound the
// library can compute on an ETC instance, and the gap helper every bench
// reports through obs::BenchReport.
//
// Layering: `core/bounds.h` owns the cheap closed-form floors (ready, job
// and load bounds — O(nm), always computed). This module adds the LP
// relaxation of the assignment problem,
//
//   minimize T
//   s.t.  sum_m x[j][m] = 1                      for every job j
//         ready[m] + sum_j ETC[j][m]·x[j][m] <= T  for every machine m
//         x >= 0
//
// i.e. R||Cmax with jobs allowed to split fractionally across machines —
// but approached from its Lagrangian dual instead of solved directly.
// Pricing machine m's capacity row at λ_m >= 0 with sum_m λ_m = 1 gives
//
//   g(λ) = sum_m λ_m·ready[m] + sum_j min_m λ_m·ETC[j][m],
//
// and weak duality makes EVERY such λ a valid lower bound on the LP
// optimum LP*, hence on every real schedule. Uniform λ reproduces the
// load bound exactly; the maximum over λ equals LP* (strong duality).
// makespan_bound runs a fixed number of projected supergradient steps on
// g and keeps the best value seen, so the result is a valid bound at
// every iterate — no budget can turn it into garbage — in O(n·m) memory.
// docs/bounds.md works the math and records measured tightness.
//
// The dual can sit BELOW the per-job bound (a single job splits across
// machines, so max_j min_m(ready+ETC) no longer binds it). The final
// bound is max(cheap, dual), never the dual alone.
//
// ETC values and ready times must be finite and non-negative (the ETC
// model's own invariant).
#pragma once

#include "etc/etc_matrix.h"

namespace gridsched::bounds {

/// Budget knob for the Lagrangian-dual bound.
struct LpOptions {
  /// Iteration budget of the supergradient ascent; each iteration costs
  /// one O(n·m) pass over the ETC matrix. <= 0 skips the dual (status
  /// kDisabled). The name predates the dual; it stays for callers that
  /// still set it.
  int max_pivots = 2'000;
};

/// kDisabled: the budget was <= 0 and `lp` is 0. kPivotLimit: the budget
/// was spent and `lp` holds the best dual value found, which `value`
/// uses. kOptimal is reserved for a proven LP optimum, which the ascent
/// never certifies, so makespan_bound does not report it.
enum class LpBoundStatus { kOptimal, kPivotLimit, kDisabled };

struct MakespanBoundResult {
  /// The bound to use: max(cheap, lp).
  double value = 0.0;
  /// max(ready, job, load) from core/bounds.h. Always valid.
  double cheap = 0.0;
  /// Best Lagrangian dual value g(λ)/sum(λ) over the iterates: a valid
  /// lower bound on LP*, never above it. 0.0 when kDisabled.
  double lp = 0.0;
  LpBoundStatus lp_status = LpBoundStatus::kDisabled;
  /// Ascent iterations run.
  int lp_pivots = 0;
};

[[nodiscard]] MakespanBoundResult makespan_bound(const EtcMatrix& etc,
                                                 const LpOptions& options = {});

/// The gap every bench reports: 100·(objective − lb)/lb. Returns NaN when
/// lb <= 0 (obs::BenchReport serializes non-finite metrics as null).
[[nodiscard]] double optimality_gap_pct(double objective,
                                        double lower_bound) noexcept;

}  // namespace gridsched::bounds
