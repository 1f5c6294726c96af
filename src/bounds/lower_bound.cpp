#include "bounds/lower_bound.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "core/bounds.h"

namespace gridsched::bounds {
namespace {

/// Iterations without a new best dual value before the step halves.
/// Measured on the 12 Braun classes at shapes 24x4 .. 128x12: 75–100
/// keeps every instance within 2.5e-5 of LP* at 2000 iterations, where a
/// 1/sqrt(k) schedule left some up to 1.3e-4 short (docs/bounds.md).
constexpr int kStallLimit = 100;

/// Euclidean projection onto the probability simplex {x >= 0, sum x = 1}:
/// x_i = max(v_i − θ, 0) with θ the threshold that makes the kept entries
/// sum to 1 (sort-based, O(m log m)). `sorted` is scratch of size m.
void project_onto_simplex(std::vector<double>& v, std::vector<double>& sorted) {
  sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double prefix = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    prefix += sorted[i];
    const double candidate = (prefix - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] > candidate) theta = candidate;
  }
  for (double& x : v) x = std::max(x - theta, 0.0);
}

}  // namespace

MakespanBoundResult makespan_bound(const EtcMatrix& etc,
                                   const LpOptions& options) {
  MakespanBoundResult result;
  result.cheap = makespan_lower_bound(etc);
  result.value = result.cheap;
  if (options.max_pivots <= 0) {
    result.lp_status = LpBoundStatus::kDisabled;
    return result;
  }
  result.lp_status = LpBoundStatus::kPivotLimit;

  // Projected supergradient ascent on g(λ) from uniform λ (the load
  // bound). At λ, each job prices cheapest on its argmin machine; the
  // machine loads of that assignment, ready[m] + sum of its ETCs, form a
  // supergradient. It is normalized by its sum, which scales the step to
  // the load imbalance and makes the walk independent of ETC magnitudes.
  // The step depends only on the iterates so far, never on the budget, so
  // a larger budget extends the same walk and the best value cannot drop.
  // Only IEEE basic operations run here: the result is bitwise
  // reproducible.
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  const auto machines = static_cast<std::size_t>(m);
  std::vector<double> lambda(machines, 1.0 / m);
  std::vector<double> supergradient(machines);
  std::vector<double> scratch(machines);
  double step = 1.0 / m;
  int stalled = 0;
  for (int iteration = 0; iteration < options.max_pivots; ++iteration) {
    double g = 0.0;
    double weight = 0.0;
    for (std::size_t k = 0; k < machines; ++k) {
      const double ready = etc.ready_time(static_cast<MachineId>(k));
      g += lambda[k] * ready;
      supergradient[k] = ready;
      weight += lambda[k];
    }
    for (JobId j = 0; j < n; ++j) {
      const auto row = etc.row(j);
      std::size_t best = 0;
      double priced = lambda[0] * row[0];
      for (std::size_t k = 1; k < machines; ++k) {
        const double candidate = lambda[k] * row[k];
        if (candidate < priced) {
          priced = candidate;
          best = k;
        }
      }
      g += priced;
      supergradient[best] += row[best];
    }
    result.lp_pivots = iteration + 1;
    // g is positively homogeneous, so g(λ)/sum(λ) is the bound of the
    // normalized λ whatever rounding the projection left in sum(λ).
    const double bound = g / weight;
    if (bound > result.lp) {
      result.lp = bound;
      stalled = 0;
    } else if (++stalled == kStallLimit) {
      step *= 0.5;
      stalled = 0;
    }

    double total = 0.0;
    for (const double s : supergradient) total += s;
    if (!(total > 0.0)) break;  // all-zero instance: g is 0 everywhere
    for (std::size_t k = 0; k < machines; ++k) {
      lambda[k] += step * supergradient[k] / total;
    }
    project_onto_simplex(lambda, scratch);
  }
  result.value = std::max(result.value, result.lp);
  return result;
}

double optimality_gap_pct(double objective, double lower_bound) noexcept {
  if (!(lower_bound > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return 100.0 * (objective - lower_bound) / lower_bound;
}

}  // namespace gridsched::bounds
