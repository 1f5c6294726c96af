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
  /// usual, with cells starting at index 1 taking the given schedules
  /// (cell 0 keeps the LJFR-SJFR seed so the constructive anchor survives
  /// a bad cache). Surplus schedules are ignored; schedules must be
  /// complete for the instance. Deterministic in (config.seed, warm).
  [[nodiscard]] EvolutionResult run(const EtcMatrix& etc,
                                    std::span<const Schedule> warm) const;

  [[nodiscard]] const CmaConfig& config() const noexcept { return config_; }

  /// The mesh-initialization pass of both engines. Draws every cell's
  /// schedule from `rng` (the LJFR-SJFR seed plus perturbed copies, or
  /// random schedules), puts the warm schedules in cells 1.. — each
  /// evaluated, counted and offered at once, so a cancellation during
  /// initialization can never discard a warm-start best — then improves
  /// the cells in index order: each is evaluated by the evaluator reset
  /// that precedes its local search, then counted and offered. The
  /// searches draw from `rng` itself or, with `split_streams`, from one
  /// `rng.split()` per cell (the synchronous engine's streams). The pass
  /// stops after the first cell at which `tracker` says stop; cells it
  /// never reached are evaluated as drawn, so every returned fitness is
  /// real. Throws if a warm schedule does not fit the instance.
  [[nodiscard]] std::vector<Individual> initialize_population(
      ScheduleEvaluator& evaluator, Rng& rng, std::span<const Schedule> warm,
      EvolutionTracker& tracker, bool split_streams) const;

 private:
  CmaConfig config_;
};

}  // namespace gridsched
