// Test-side LP oracle: a small dense two-phase simplex solver
// (minimization, x >= 0) and the exact R||Cmax LP relaxation optimum LP*
// built on it. tests/test_bounds.cpp checks the library's Lagrangian-dual
// bound (bounds/lower_bound.h) against LP* at shapes up to 64x8, where the
// dense tableau stays small; the library itself no longer builds this.
//
// A textbook tableau implementation tuned for determinism, not speed:
//
//   * Bland's rule for both the entering and the leaving variable
//     (smallest index wins every tie). This guarantees termination
//     without perturbation tricks AND makes the pivot sequence — and
//     therefore the returned optimum — a pure function of the input.
//   * A pivot budget instead of open-ended iteration: running out of
//     budget is a first-class status, never a silent best-effort (a
//     truncated minimization is NOT a valid lower bound).
//
// Phase 1 minimizes the sum of artificial variables to find a feasible
// basis; artificial columns are barred from re-entering in phase 2.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "etc/etc_matrix.h"

namespace gridsched::oracle {

enum class SimplexStatus { kOptimal, kInfeasible, kUnbounded, kPivotLimit };

struct SimplexOptions {
  /// Total pivot budget across both phases. Bland's rule terminates
  /// finitely anyway; the cap bounds the worst case wall-clock.
  int max_pivots = 20'000;
};

struct SimplexResult {
  SimplexStatus status = SimplexStatus::kPivotLimit;
  /// c·x at the final basis. Only meaningful when status == kOptimal.
  double objective = 0.0;
  /// Structural variable values (empty unless status == kOptimal).
  std::vector<double> x;
  int pivots = 0;
};

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

struct LinearConstraint {
  std::vector<double> coeffs;  // one per structural variable
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// minimize objective·x subject to the constraints and x >= 0.
struct LinearProgram {
  std::vector<double> objective;
  std::vector<LinearConstraint> constraints;
};

namespace detail {

// Tolerances assume a well-scaled problem (coefficients O(1) —
// lp_relaxation_optimum normalizes by the largest ETC value before
// building its LP). Zero-pivot and reduced-cost cutoffs are the usual
// dense-simplex compromise between stalling and accepting noise pivots.
constexpr double kEps = 1e-9;
constexpr double kPhase1Tol = 1e-7;

/// Dense tableau: `rows` constraint rows plus two cost rows (phase-2 then
/// phase-1), `cols` variable columns plus the rhs column.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_((rows + 2) * (cols + 1), 0.0) {}

  double& at(std::size_t r, std::size_t c) { return cells_[r * (cols_ + 1) + c]; }
  double& rhs(std::size_t r) { return at(r, cols_); }
  std::size_t cost_row() const { return rows_; }
  std::size_t phase1_row() const { return rows_ + 1; }

  /// Gauss-Jordan pivot on (pivot_row, pivot_col), cost rows included.
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const double p = at(pivot_row, pivot_col);
    assert(std::fabs(p) > 0.0);
    double* prow = &cells_[pivot_row * (cols_ + 1)];
    const double inv = 1.0 / p;
    for (std::size_t c = 0; c <= cols_; ++c) prow[c] *= inv;
    prow[pivot_col] = 1.0;  // kill roundoff on the pivot itself
    for (std::size_t r = 0; r < rows_ + 2; ++r) {
      if (r == pivot_row) continue;
      double* row = &cells_[r * (cols_ + 1)];
      const double factor = row[pivot_col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) row[c] -= factor * prow[c];
      row[pivot_col] = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> cells_;
};

}  // namespace detail

inline SimplexResult solve_simplex(const LinearProgram& lp,
                                   const SimplexOptions& options = {}) {
  using detail::kEps;
  using detail::kPhase1Tol;
  SimplexResult result;
  const std::size_t n = lp.objective.size();
  const std::size_t m = lp.constraints.size();

  // Column layout: [structural n][one slack/surplus per inequality]
  // [one artificial per >=/= row]. Count them first.
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const auto& con : lp.constraints) {
    assert(con.coeffs.size() == n);
    // Normalizing to rhs >= 0 can flip <= into >= and vice versa, so the
    // effective relation decides the extra columns.
    const bool flip = con.rhs < 0.0;
    Relation rel = con.relation;
    if (flip && rel == Relation::kLessEqual) rel = Relation::kGreaterEqual;
    else if (flip && rel == Relation::kGreaterEqual) rel = Relation::kLessEqual;
    if (rel != Relation::kEqual) ++num_slack;
    if (rel != Relation::kLessEqual) ++num_artificial;
  }

  const std::size_t num_real = n + num_slack;  // columns allowed in phase 2
  const std::size_t cols = num_real + num_artificial;
  detail::Tableau t(m, cols);
  std::vector<std::size_t> basis(m);

  std::size_t next_slack = n;
  std::size_t next_artificial = num_real;
  for (std::size_t r = 0; r < m; ++r) {
    const auto& con = lp.constraints[r];
    const double sign = con.rhs < 0.0 ? -1.0 : 1.0;
    for (std::size_t c = 0; c < n; ++c) t.at(r, c) = sign * con.coeffs[c];
    t.rhs(r) = sign * con.rhs;
    Relation rel = con.relation;
    if (sign < 0.0 && rel == Relation::kLessEqual) rel = Relation::kGreaterEqual;
    else if (sign < 0.0 && rel == Relation::kGreaterEqual) {
      rel = Relation::kLessEqual;
    }
    if (rel == Relation::kLessEqual) {
      t.at(r, next_slack) = 1.0;
      basis[r] = next_slack++;
    } else {
      if (rel == Relation::kGreaterEqual) t.at(r, next_slack++) = -1.0;
      t.at(r, next_artificial) = 1.0;
      basis[r] = next_artificial++;
    }
  }

  // Phase-2 cost row starts as c (reduced costs once basic columns are
  // priced out below); phase-1 cost is the sum of artificials.
  for (std::size_t c = 0; c < n; ++c) t.at(t.cost_row(), c) = lp.objective[c];
  for (std::size_t c = num_real; c < cols; ++c) t.at(t.phase1_row(), c) = 1.0;

  // Price out the starting basis from both cost rows. Slack basics have
  // zero cost in both; artificial basics cost 1 in phase 1.
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] >= num_real) {
      for (std::size_t c = 0; c <= cols; ++c) {
        t.at(t.phase1_row(), c) -= t.at(r, c);
      }
    }
  }

  // Bland's rule iteration over the given cost row; `limit` bars columns
  // >= limit from entering (used to freeze artificials in phase 2).
  auto iterate = [&](std::size_t cost_row, std::size_t limit) -> SimplexStatus {
    for (;;) {
      // Entering: smallest column index with negative reduced cost.
      std::size_t entering = limit;
      for (std::size_t c = 0; c < limit; ++c) {
        if (t.at(cost_row, c) < -kEps) {
          entering = c;
          break;
        }
      }
      if (entering == limit) return SimplexStatus::kOptimal;

      // Leaving: minimum ratio; ties by smallest basis variable index.
      std::size_t leaving = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        const double a = t.at(r, entering);
        if (a <= kEps) continue;
        const double ratio = t.rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps &&
             (leaving == m || basis[r] < basis[leaving]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving == m) return SimplexStatus::kUnbounded;

      if (result.pivots >= options.max_pivots) {
        return SimplexStatus::kPivotLimit;
      }
      t.pivot(leaving, entering);
      basis[leaving] = entering;
      ++result.pivots;
    }
  };

  // Phase 1: drive the artificials to zero.
  if (num_artificial > 0) {
    const SimplexStatus phase1 = iterate(t.phase1_row(), cols);
    if (phase1 != SimplexStatus::kOptimal) {
      // Unbounded cannot happen with the bounded-below phase-1 objective.
      result.status = phase1 == SimplexStatus::kUnbounded
                          ? SimplexStatus::kInfeasible
                          : phase1;
      return result;
    }
    if (-t.rhs(t.phase1_row()) > kPhase1Tol) {
      result.status = SimplexStatus::kInfeasible;
      return result;
    }
  }

  // Phase 2 on the real objective. Artificial columns stay barred; any
  // artificial still basic sits at value ~0 and is harmless.
  result.status = iterate(t.cost_row(), num_real);
  if (result.status != SimplexStatus::kOptimal) return result;

  result.objective = -t.rhs(t.cost_row());
  result.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) result.x[basis[r]] = t.rhs(r);
  }
  return result;
}

struct LpRelaxation {
  SimplexStatus status = SimplexStatus::kPivotLimit;
  double optimum = 0.0;  // LP*; meaningful only when status == kOptimal
};

/// LP*, the optimum of the fractional-assignment relaxation of R||Cmax
/// (bounds/lower_bound.h states the LP). Variables: x[j][m] at j*m_count+k,
/// then T last. The data is scaled so the largest coefficient is 1.0,
/// because the simplex tolerances are absolute and Braun hi-hi ETC values
/// reach ~3e6.
inline LpRelaxation lp_relaxation_optimum(const EtcMatrix& etc) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  double scale = 0.0;
  for (int j = 0; j < n; ++j) {
    for (const double v : etc.row(j)) scale = std::max(scale, v);
  }
  for (int k = 0; k < m; ++k) scale = std::max(scale, etc.ready_time(k));
  if (scale <= 0.0) return {SimplexStatus::kOptimal, 0.0};
  const double inv_scale = 1.0 / scale;

  const std::size_t num_vars = static_cast<std::size_t>(n) * m + 1;
  const std::size_t t_var = num_vars - 1;
  LinearProgram lp;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[t_var] = 1.0;
  for (int j = 0; j < n; ++j) {
    LinearConstraint con;
    con.coeffs.assign(num_vars, 0.0);
    for (int k = 0; k < m; ++k) {
      con.coeffs[static_cast<std::size_t>(j) * m + k] = 1.0;
    }
    con.relation = Relation::kEqual;
    con.rhs = 1.0;
    lp.constraints.push_back(std::move(con));
  }
  for (int k = 0; k < m; ++k) {
    // T - sum_j ETC[j][k]·x[j][k] >= ready[k]
    LinearConstraint con;
    con.coeffs.assign(num_vars, 0.0);
    for (int j = 0; j < n; ++j) {
      con.coeffs[static_cast<std::size_t>(j) * m + k] = -etc(j, k) * inv_scale;
    }
    con.coeffs[t_var] = 1.0;
    con.relation = Relation::kGreaterEqual;
    con.rhs = etc.ready_time(k) * inv_scale;
    lp.constraints.push_back(std::move(con));
  }
  const SimplexResult solved = solve_simplex(lp);
  return {solved.status, solved.objective * scale};
}

}  // namespace gridsched::oracle
