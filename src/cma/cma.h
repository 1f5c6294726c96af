// The Cellular Memetic Algorithm engine — Algorithm 1 of the paper.
//
// Asynchronous cellular model: within one iteration, first
// `recombinations_per_iteration` cells are visited in the recombination
// sweep order (each recombines parents selected from its neighborhood,
// offspring is locally improved, and replaces the cell if better), then
// `mutations_per_iteration` cells are visited in the independent mutation
// sweep order (mutate, improve, replace if better). Because updates are
// asynchronous, a cell sees earlier replacements of the same iteration.
//
// Note on the paper's pseudo-code: its mutation loop reads
// "Replace P[rec_order.current]" / "rec_order.next()", which contradicts
// the surrounding text and Table 1 (mutation has its own NRS order). We use
// mut_order there; DESIGN.md section 4 records the decision.
#pragma once

#include <span>
#include <vector>

#include "cma/config.h"
#include "core/evolution.h"
#include "etc/etc_matrix.h"

namespace gridsched {

class CellularMemeticAlgorithm {
 public:
  explicit CellularMemeticAlgorithm(CmaConfig config);

  /// Runs the full algorithm on an instance. Deterministic in config.seed.
  [[nodiscard]] EvolutionResult run(const EtcMatrix& etc) const;

  /// Warm-started run: the mesh is built by `initialize_population` as
  /// usual, then cells starting at index 1 are overwritten with the given
  /// schedules (cell 0 keeps the LJFR-SJFR seed so the constructive anchor
  /// survives a bad cache). Surplus schedules are ignored; schedules must
  /// be complete for the instance. Deterministic in (config.seed, warm).
  [[nodiscard]] EvolutionResult run(const EtcMatrix& etc,
                                    std::span<const Schedule> warm) const;

  [[nodiscard]] const CmaConfig& config() const noexcept { return config_; }

  /// Builds the initial mesh population for `evaluator.etc()`, evaluating
  /// every cell through the run's `evaluator` (exposed for tests and for
  /// warm-started dynamic scheduling).
  [[nodiscard]] std::vector<Individual> initialize_population(
      ScheduleEvaluator& evaluator, Rng& rng) const;

  /// Overwrites mesh cells [1, 1 + warm.size()) with the warm schedules
  /// (shared by the async and sync engines), evaluated through the run's
  /// `evaluator`. Throws if a schedule does not fit the instance. When a
  /// tracker is given, each inserted elite is offered (and counted)
  /// immediately, so a cancellation during mesh initialization can never
  /// discard a warm-start best.
  void apply_warm_start(std::vector<Individual>& population,
                        std::span<const Schedule> warm,
                        ScheduleEvaluator& evaluator,
                        EvolutionTracker* tracker = nullptr) const;

 private:
  CmaConfig config_;
};

}  // namespace gridsched
