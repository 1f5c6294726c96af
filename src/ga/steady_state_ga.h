// Steady-state GA in the style of Carretero & Xhafa (2006), the second
// Table 3 baseline: small unstructured population, tournament selection,
// one offspring per step replacing an incumbent when better.
//
// The replacement rule is pluggable because it is exactly the dimension
// Xhafa's BIOMA 2006 study (the paper's reference [21], origin of the
// Struggle GA baseline) explores; bench/ablation_replacement reruns that
// comparison:
//   kWorst                 offspring replaces the least-fit individual
//   kRandom                offspring replaces a uniformly random one
//   kOldest                offspring replaces the longest-resident one
//   kMostSimilar           the Struggle rule (minimum Hamming distance)
//   kDeterministicCrowding offspring competes with its more similar parent
// All rules are gated on "only if fitter". The Struggle GA baseline is
// this loop under kMostSimilar (the preset in ga/struggle_ga.h).
#pragma once

#include <cstdint>
#include <string_view>

#include "cma/crossover.h"
#include "cma/mutation.h"
#include "cma/selection.h"
#include "core/evolution.h"
#include "core/fitness.h"
#include "etc/etc_matrix.h"
#include "ga/ga_common.h"

namespace gridsched {

enum class ReplacementPolicy {
  kWorst,
  kRandom,
  kOldest,
  kMostSimilar,
  kDeterministicCrowding,
};

[[nodiscard]] std::string_view replacement_name(ReplacementPolicy p) noexcept;

struct SteadyStateGaConfig {
  int population_size = 70;
  ReplacementPolicy replacement = ReplacementPolicy::kWorst;
  SelectionConfig selection{SelectionKind::kTournament, 3};
  double crossover_rate = 0.8;
  double mutation_rate = 0.4;
  CrossoverKind crossover = CrossoverKind::kOnePoint;
  MutationKind mutation = MutationKind::kRebalance;
  // Seeded with both classic heuristics: the published Table 3 numbers
  // show these GAs within ~1% of the cMA, which a plain GA only reaches
  // from a strong start (EXPERIMENTS.md discusses the calibration).
  GaSeeding seeding{{HeuristicKind::kLjfrSjfr, HeuristicKind::kMinMin}};
  FitnessWeights weights{};
  StopCondition stop{.max_time_ms = 90'000.0};
  std::uint64_t seed = 1;
  bool record_progress = false;

  /// Steps folded into one reported "iteration" (progress granularity).
  int steps_per_iteration = 32;
};

class SteadyStateGa {
 public:
  explicit SteadyStateGa(SteadyStateGaConfig config);

  [[nodiscard]] EvolutionResult run(const EtcMatrix& etc) const;

  [[nodiscard]] const SteadyStateGaConfig& config() const noexcept {
    return config_;
  }

 private:
  SteadyStateGaConfig config_;
};

}  // namespace gridsched
