// Portfolio members: the algorithms the racing scheduler can field.
//
// A member is a batch solver with a uniform contract: given the batch ETC,
// a StopCondition (which carries the activation's shared cancellation
// token), optional warm-start schedules, and a per-activation seed, return
// your best individual plus the elites the warm-start cache may keep.
// Members must honor the stop condition cooperatively — the portfolio
// never kills threads — and must always return a complete schedule, even
// when cancelled before their first iteration (every member here falls
// back to a constructive solution at worst). Search members throw
// std::invalid_argument on a stop condition with no bound enabled.
//
// MemberBatchScheduler, at the bottom, runs one member alone as the
// simulator's BatchScheduler; FlooredMember floors a search member at
// Min-Min.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cma/cma.h"
#include "cma/sync_cma.h"
#include "core/individual.h"
#include "etc/etc_matrix.h"
#include "ga/struggle_ga.h"
#include "heuristics/constructive.h"
#include "sim/batch_scheduler.h"

namespace gridsched {

struct MemberResult {
  Individual best;
  std::vector<Individual> elites;  // candidates for the warm-start cache
  std::int64_t evaluations = 0;
  double elapsed_ms = 0.0;  // wall time spent inside solve()
};

class PortfolioMember {
 public:
  virtual ~PortfolioMember() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The weights `MemberResult::best.fitness` is scored under.
  [[nodiscard]] virtual FitnessWeights weights() const noexcept = 0;

  /// Solves one batch. `stop` aggregates the member's own bounds with the
  /// activation budget and cancellation token; `warm` may be empty.
  [[nodiscard]] virtual MemberResult solve(const EtcMatrix& etc,
                                           const StopCondition& stop,
                                           std::span<const Schedule> warm,
                                           std::uint64_t seed) = 0;
};

/// One-pass constructive heuristic (MCT, Min-Min, ...). Reads only the
/// stop condition's cancellation token, finishing with a cheap tail rule
/// once it fires.
class HeuristicMember final : public PortfolioMember {
 public:
  explicit HeuristicMember(HeuristicKind kind, FitnessWeights weights = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] FitnessWeights weights() const noexcept override {
    return weights_;
  }
  [[nodiscard]] MemberResult solve(const EtcMatrix& etc,
                                   const StopCondition& stop,
                                   std::span<const Schedule> warm,
                                   std::uint64_t seed) override;

 private:
  HeuristicKind kind_;
  FitnessWeights weights_;
};

/// Cellular memetic algorithm, asynchronous (the paper's engine) or
/// synchronous sweep. Accepts warm starts into its mesh.
class CmaMember final : public PortfolioMember {
 public:
  CmaMember(CmaConfig config, bool synchronous);

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] FitnessWeights weights() const noexcept override {
    return config_.weights;
  }
  [[nodiscard]] MemberResult solve(const EtcMatrix& etc,
                                   const StopCondition& stop,
                                   std::span<const Schedule> warm,
                                   std::uint64_t seed) override;

 private:
  CmaConfig config_;
  bool synchronous_;
  std::string name_;
};

/// Tuning for the LAHC member below.
struct LahcConfig {
  FitnessWeights weights{};
  /// Length of the late-acceptance fitness history. The classic
  /// Burke-Bykov guidance: longer = slower convergence, better quality;
  /// the default suits 25 ms activation slices.
  int history_length = 64;
};

/// Late Acceptance Hill-Climbing (Burke & Bykov) over the evaluator's
/// allocation-free move/swap previews. Near-parameter-free: a candidate
/// is accepted when it beats either the current solution or the solution
/// from `history_length` steps ago, which lets the walk traverse plateaus
/// and shallow worsenings without a cooling schedule. Seeds from the best
/// warm-start elite when the cache offers one, else from MCT, and tracks
/// the best-so-far separately — so it is never worse than its seed.
class LahcMember final : public PortfolioMember {
 public:
  explicit LahcMember(LahcConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] FitnessWeights weights() const noexcept override {
    return config_.weights;
  }
  [[nodiscard]] MemberResult solve(const EtcMatrix& etc,
                                   const StopCondition& stop,
                                   std::span<const Schedule> warm,
                                   std::uint64_t seed) override;

 private:
  LahcConfig config_;
};

/// Struggle GA baseline under the activation budget.
class StruggleGaMember final : public PortfolioMember {
 public:
  explicit StruggleGaMember(StruggleGaConfig config);

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] FitnessWeights weights() const noexcept override {
    return config_.weights;
  }
  [[nodiscard]] MemberResult solve(const EtcMatrix& etc,
                                   const StopCondition& stop,
                                   std::span<const Schedule> warm,
                                   std::uint64_t seed) override;

 private:
  StruggleGaConfig config_;
};

/// A search member never worse than Min-Min: Min-Min's schedule replaces
/// the inner member's best when it scores strictly better under the
/// member's own weights, so a too-short budget cannot undercut the
/// constructive fallback. Single-job batches shortcut to MCT without
/// searching. The cMA needs the extra Min-Min run (its mesh starts from
/// LJFR-SJFR, never Min-Min); the Struggle GA seeds Min-Min itself, so
/// its row gains the shortcut and pays ~0.1% of a 25 ms budget.
class FlooredMember final : public PortfolioMember {
 public:
  explicit FlooredMember(std::unique_ptr<PortfolioMember> inner);

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] FitnessWeights weights() const noexcept override {
    return inner_->weights();
  }
  [[nodiscard]] MemberResult solve(const EtcMatrix& etc,
                                   const StopCondition& stop,
                                   std::span<const Schedule> warm,
                                   std::uint64_t seed) override;

 private:
  std::unique_ptr<PortfolioMember> inner_;
};

/// Runs one member alone as the dynamic grid's batch scheduler — the
/// paper's "cMA in batch mode for a very short time" — under `stop` (wall
/// clock, evaluations, or both; `{}` suits only HeuristicMember) at every
/// activation, with a fresh seed per activation from a fixed base seed.
/// It returns the member's best and does nothing else.
class MemberBatchScheduler final : public BatchScheduler {
 public:
  /// Throws std::invalid_argument on a NaN, negative or infinite bound.
  explicit MemberBatchScheduler(std::unique_ptr<PortfolioMember> member,
                                StopCondition stop = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return member_->name();
  }
  using BatchScheduler::schedule_batch;
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& context) override;

 private:
  std::unique_ptr<PortfolioMember> member_;
  StopCondition stop_;
  std::uint64_t activation_ = 0;
};

}  // namespace gridsched
