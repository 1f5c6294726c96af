// Struggle GA (Xhafa, BIOMA 2006), the Tables 3 & 5 baseline.
//
// A steady-state GA whose replacement rule preserves diversity: a new
// offspring competes with ("struggles against") the *most similar*
// individual of the population — by Hamming distance over the assignment
// vector — and replaces it only if fitter. That rule is
// ReplacementPolicy::kMostSimilar of the shared steady-state loop
// (ga/steady_state_ga.h), so the Struggle GA is a preset of that loop
// rather than an engine of its own.
#pragma once

#include "ga/steady_state_ga.h"

namespace gridsched {

/// SteadyStateGaConfig with the Struggle GA's defaults: most-similar
/// replacement, and recombination on every step (struggle GAs typically
/// always recombine).
struct StruggleGaConfig : SteadyStateGaConfig {
  StruggleGaConfig()
      : SteadyStateGaConfig{.replacement = ReplacementPolicy::kMostSimilar,
                            .crossover_rate = 1.0} {}
};

using StruggleGa = SteadyStateGa;

}  // namespace gridsched
