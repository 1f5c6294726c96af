#include "portfolio/portfolio.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/cancellation.h"
#include "common/stopwatch.h"
#include "obs/trace_recorder.h"
#include "qos/qos.h"

namespace gridsched {
namespace {

/// Elites each activation hands to the next one's warm start.
constexpr int kEliteCapacity = 8;

}  // namespace

PortfolioBatchScheduler::PortfolioBatchScheduler(
    PortfolioConfig config,
    std::vector<std::unique_ptr<PortfolioMember>> members)
    : PortfolioBatchScheduler(std::move(config), std::move(members),
                              /*owned_pool=*/nullptr,
                              /*shared_pool=*/nullptr) {}

PortfolioBatchScheduler::PortfolioBatchScheduler(
    PortfolioConfig config,
    std::vector<std::unique_ptr<PortfolioMember>> members,
    ThreadPool& shared_pool)
    : PortfolioBatchScheduler(std::move(config), std::move(members),
                              /*owned_pool=*/nullptr, &shared_pool) {}

PortfolioBatchScheduler::PortfolioBatchScheduler(
    PortfolioConfig config,
    std::vector<std::unique_ptr<PortfolioMember>> members,
    std::unique_ptr<ThreadPool> owned_pool, ThreadPool* shared_pool)
    : config_(std::move(config)),
      members_(std::move(members)),
      cache_(kEliteCapacity),
      owned_pool_(shared_pool != nullptr
                      ? std::move(owned_pool)
                      : std::make_unique<ThreadPool>(config_.threads)),
      pool_(shared_pool != nullptr ? shared_pool : owned_pool_.get()) {
  if (members_.empty()) {
    throw std::invalid_argument("Portfolio: need at least one member");
  }
  config_.stop.validate("Portfolio");
  set_budget_ms(config_.stop.max_time_ms);  // validates the deadline
  for (const auto& member : members_) {
    stats_.push_back(MemberStats{std::string(member->name())});
  }
}

void PortfolioBatchScheduler::set_budget_ms(double budget_ms) {
  // Negated comparison rejects NaN too; a non-finite budget would reach
  // the cancellation deadline as a meaningless float-to-int cast.
  if (!(budget_ms > 0 && std::isfinite(budget_ms))) {
    throw std::invalid_argument(
        "Portfolio: stop.max_time_ms must be finite and > 0");
  }
  config_.stop.max_time_ms = budget_ms;
}

std::vector<std::unique_ptr<PortfolioMember>>
PortfolioBatchScheduler::default_members(const PortfolioConfig& config) {
  std::vector<std::unique_ptr<PortfolioMember>> members;
  members.push_back(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct, config.weights));
  members.push_back(std::make_unique<HeuristicMember>(HeuristicKind::kMinMin,
                                                      config.weights));
  StruggleGaConfig ga;
  ga.weights = config.weights;
  members.push_back(std::make_unique<StruggleGaMember>(ga));
  LahcConfig lahc;
  lahc.weights = config.weights;
  members.push_back(std::make_unique<LahcMember>(lahc));
  CmaConfig cma;  // Table 1 settings
  cma.weights = config.weights;
  members.push_back(std::make_unique<CmaMember>(cma, /*synchronous=*/false));
  members.push_back(std::make_unique<CmaMember>(cma, /*synchronous=*/true));
  return members;
}

std::string_view PortfolioBatchScheduler::name() const noexcept {
  return "Portfolio";
}

Schedule PortfolioBatchScheduler::schedule_batch(const EtcMatrix& etc,
                                                 const BatchContext& context) {
  ++activation_;
  // Degenerate batch: every member would return MCT's answer (or worse).
  if (etc.num_jobs() == 1) {
    Schedule s(1);
    s[0] = mct(etc)[0];
    return s;
  }

  const std::vector<Schedule> warm = cache_.warm_start(etc, context);

  // --- Race every member under one deadline. ---
  CancellationSource deadline;
  deadline.set_deadline_in_ms(config_.stop.max_time_ms);
  StopCondition stop = config_.stop;
  stop.cancel = deadline.token();
  std::uint64_t seed_state =
      config_.seed ^ (activation_ * 0x9e3779b97f4a7c15ULL);
  const std::size_t num_members = members_.size();
  std::vector<std::uint64_t> seeds(num_members);
  for (std::uint64_t& seed : seeds) seed = splitmix64(seed_state);
  // A race whose members stop on a count goes out last member first: the
  // default list ends with the two cMA solves, the longest, so they start
  // at once and the one-pass heuristics fill the tail (the paper's LJFR
  // rule on the pool's lanes). A wall-clock race keeps index order: there
  // every search member runs to the deadline, and on a crowded pool the
  // first one submitted takes the slice. Seeds stay tied to the member
  // index, so the order moves no schedule bit.
  const bool counted = stop.max_evaluations > 0 || stop.max_iterations > 0;
  std::vector<MemberResult> results(num_members);
  Stopwatch race_watch;
  // The race runs in its own task group: waiting drains THIS portfolio's
  // members only (helping on the calling thread), so several portfolios —
  // the sharded service's concurrent shard activations — can share one
  // pool without false barriers, and a member failure here never leaks
  // into a neighboring race.
  TaskGroup race = pool_->make_group();
  for (std::size_t k = 0; k < num_members; ++k) {
    const std::size_t i = counted ? num_members - 1 - k : k;
    const std::uint64_t seed = seeds[i];
    PortfolioMember* member = members_[i].get();
    MemberResult* out = &results[i];
    // The span lives inside the task so it opens and closes on whichever
    // pool thread actually ran the solve — per-tid nesting stays correct.
    // Each task polls its own copy of `stop`, not the caller's stack.
    obs::TraceRecorder* const trace = trace_;
    pool_->submit(race, [member, &etc, stop, &warm, seed, out, trace] {
      const obs::TraceSpan span(trace, member->name(), "member");
      *out = member->solve(etc, stop, warm, seed);
    });
  }
  race.wait();
  const double race_ms = race_watch.elapsed_ms();

  // --- Pick the winner under the portfolio's own weights (members could
  // carry different scalarizations; normalize before comparing). ---
  std::vector<Individual> normalized(num_members);
  ScheduleEvaluator evaluator(etc);
  for (std::size_t i = 0; i < num_members; ++i) {
    normalized[i] = make_individual(results[i].best.schedule, evaluator,
                                    config_.weights);
  }
  // QoS batches (any finite relative deadline) pick the winner on the
  // (makespan, missed deadlines, cost) Pareto front instead of scalar
  // fitness alone — a member that keeps one more promise beats one that
  // shaved a second of makespan. Without deadlines the front degenerates
  // and the historical min-fitness scan runs untouched, so non-QoS runs
  // are bitwise identical to before.
  const bool qos = qos_active(context.job_deadlines);
  std::vector<QosOutcome> qos_outcomes;
  std::size_t winner = 0;
  if (qos) {
    qos_outcomes.reserve(num_members);
    for (const Individual& candidate : normalized) {
      qos_outcomes.push_back(evaluate_qos(candidate.schedule, etc,
                                          context.job_deadlines,
                                          context.machine_cost_rates));
    }
    winner = pick_qos_winner(normalized, qos_outcomes);
  } else {
    for (std::size_t i = 1; i < num_members; ++i) {
      if (normalized[i].fitness < normalized[winner].fitness) winner = i;
    }
  }

  // --- Bookkeeping. ---
  for (std::size_t i = 0; i < num_members; ++i) {
    MemberStats& stat = stats_[i];
    ++stat.runs;
    if (i == winner) ++stat.wins;
    stat.total_ms += results[i].elapsed_ms;
    stat.evaluations += results[i].evaluations;
  }

  // --- Feed the warm-start cache with this activation's elites. ---
  std::vector<Individual> elites;
  for (MemberResult& result : results) {
    for (Individual& individual : result.elites) {
      elites.push_back(std::move(individual));
    }
  }
  cache_.store(context, elites);

  ActivationRecord record;
  record.activation = context.activation;
  record.batch_jobs = etc.num_jobs();
  record.winner = static_cast<int>(winner);
  record.winner_name = stats_[winner].name;
  record.best_fitness = normalized[winner].fitness;
  record.race_ms = race_ms;
  if (qos) {
    record.qos_pareto = true;
    record.winner_missed = qos_outcomes[winner].missed;
    record.winner_cost = qos_outcomes[winner].total_cost;
  }
  records_.push_back(std::move(record));

  return std::move(normalized[winner].schedule);
}

}  // namespace gridsched
