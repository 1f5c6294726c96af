// Types shared by all evolutionary engines (cMA and the baseline GAs):
// stop conditions, progress traces, and the result bundle benches consume.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/stopwatch.h"
#include "core/individual.h"

namespace gridsched {

/// A run stops as soon as ANY enabled bound is hit. Bounds set to 0 are
/// disabled; every engine needs at least one enabled.
struct StopCondition {
  double max_time_ms = 0.0;
  std::int64_t max_evaluations = 0;
  std::int64_t max_iterations = 0;
  /// Stop after this many iterations without best-fitness improvement
  /// (0 = disabled). The Braun GA uses 150.
  std::int64_t max_stagnation = 0;
  /// Cooperative external stop signal (invalid token = disabled). The
  /// portfolio scheduler shares one token across every engine it races so
  /// all of them stop at the activation deadline, however late they were
  /// dequeued (see common/cancellation.h).
  CancellationToken cancel{};

  [[nodiscard]] bool any_enabled() const noexcept {
    return max_time_ms > 0 || max_evaluations > 0 || max_iterations > 0 ||
           max_stagnation > 0 || cancel.valid();
  }

  /// Throws std::invalid_argument naming `owner` and the field when a
  /// bound is NaN, negative or infinite (all disabled passes).
  void validate(std::string_view owner) const {
    const auto check = [owner](bool ok, std::string_view field) {
      if (ok) return;
      throw std::invalid_argument(std::string(owner) + ": stop." +
                                  std::string(field) +
                                  " must be finite and >= 0 (0 = disabled)");
    };
    check(max_time_ms >= 0 && std::isfinite(max_time_ms), "max_time_ms");
    check(max_evaluations >= 0, "max_evaluations");
    check(max_iterations >= 0, "max_iterations");
    check(max_stagnation >= 0, "max_stagnation");
  }

  /// validate(), and at least one bound enabled: what a search loop needs.
  void require_bound(std::string_view owner) const {
    validate(owner);
    if (!any_enabled()) {
      throw std::invalid_argument(std::string(owner) +
                                  ": no stop condition enabled");
    }
  }
};

/// One sample of the best-so-far trajectory (the data behind Figs. 2-5).
struct ProgressPoint {
  double time_ms = 0.0;
  std::int64_t evaluations = 0;
  std::int64_t iteration = 0;
  double best_makespan = 0.0;
  double best_flowtime = 0.0;
  double best_fitness = 0.0;
};

struct EvolutionResult {
  Individual best;
  std::int64_t evaluations = 0;
  std::int64_t iterations = 0;
  double elapsed_ms = 0.0;
  std::vector<ProgressPoint> progress;
  /// Final population snapshot; only filled by engines whose config sets
  /// `keep_final_population` (the warm-start cache feeds on it).
  std::vector<Individual> population;
};

/// Bookkeeping helper used inside engine loops: tracks the best individual,
/// stagnation, and appends progress samples on improvement.
class EvolutionTracker {
 public:
  EvolutionTracker(StopCondition stop, bool record_progress)
      : stop_(stop), record_progress_(record_progress) {}

  /// Offers a candidate; returns true if it became the new best.
  bool offer(const Individual& candidate) {
    if (candidate.fitness < best_.fitness) {
      best_ = candidate;
      improved_this_iteration_ = true;
      sample();
      return true;
    }
    return false;
  }

  void count_evaluations(std::int64_t n = 1) noexcept { evaluations_ += n; }

  /// Ends an iteration: updates stagnation and records a trace sample.
  void end_iteration() {
    ++iterations_;
    stagnation_ = improved_this_iteration_ ? 0 : stagnation_ + 1;
    improved_this_iteration_ = false;
    sample();
  }

  [[nodiscard]] bool should_stop() const noexcept {
    if (stop_.cancel.cancelled()) return true;
    if (stop_.max_time_ms > 0 && watch_.elapsed_ms() >= stop_.max_time_ms) {
      return true;
    }
    if (stop_.max_evaluations > 0 && evaluations_ >= stop_.max_evaluations) {
      return true;
    }
    if (stop_.max_iterations > 0 && iterations_ >= stop_.max_iterations) {
      return true;
    }
    if (stop_.max_stagnation > 0 && stagnation_ >= stop_.max_stagnation) {
      return true;
    }
    return false;
  }

  [[nodiscard]] const Individual& best() const noexcept { return best_; }
  [[nodiscard]] std::int64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::int64_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return watch_.elapsed_ms();
  }

  [[nodiscard]] EvolutionResult finish() {
    EvolutionResult result;
    result.best = best_;
    result.evaluations = evaluations_;
    result.iterations = iterations_;
    result.elapsed_ms = watch_.elapsed_ms();
    result.progress = std::move(progress_);
    return result;
  }

 private:
  void sample() {
    if (!record_progress_) return;
    progress_.push_back(ProgressPoint{watch_.elapsed_ms(), evaluations_,
                                      iterations_, best_.objectives.makespan,
                                      best_.objectives.flowtime,
                                      best_.fitness});
  }

  StopCondition stop_;
  bool record_progress_;
  Stopwatch watch_;
  Individual best_;
  std::int64_t evaluations_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t stagnation_ = 0;
  bool improved_this_iteration_ = false;
  std::vector<ProgressPoint> progress_;
};

}  // namespace gridsched
