// The paper's scalarized bi-objective fitness (Section 2, Eq. 3):
//
//   fitness = lambda * makespan + (1 - lambda) * flowtime / num_machines
//
// Mean flowtime (rather than raw flowtime) keeps the two terms in comparable
// magnitude; lambda = 0.75 is the paper's tuned weight.
#pragma once

namespace gridsched {

/// The scalar a local search minimizes: the scalarized fitness, or the
/// makespan alone (the paper's "reduction of the completion time").
enum class LsObjective { kFitness, kMakespan };

struct FitnessWeights {
  double lambda = 0.75;

  [[nodiscard]] constexpr double combine(double makespan,
                                         double mean_flowtime) const noexcept {
    return lambda * makespan + (1.0 - lambda) * mean_flowtime;
  }
};

/// The two raw objective values of a schedule.
struct Objectives {
  double makespan = 0.0;
  double flowtime = 0.0;

  [[nodiscard]] constexpr double mean_flowtime(int num_machines) const noexcept {
    return flowtime / static_cast<double>(num_machines);
  }

  [[nodiscard]] constexpr double fitness(const FitnessWeights& w,
                                         int num_machines) const noexcept {
    return w.combine(makespan, mean_flowtime(num_machines));
  }

  /// The value `objective` minimizes.
  [[nodiscard]] constexpr double score(LsObjective objective,
                                       const FitnessWeights& w,
                                       int num_machines) const noexcept {
    return objective == LsObjective::kFitness ? fitness(w, num_machines)
                                              : makespan;
  }
};

}  // namespace gridsched
