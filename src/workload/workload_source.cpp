#include "workload/workload_source.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gridsched {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

TraceJob lognormal_job(double arrival, const LogNormalSize& size,
                       Rng& workload_rng) {
  TraceJob job;
  job.arrival = arrival;
  job.workload_mi =
      std::exp(workload_rng.normal(size.log_mean, size.log_sigma));
  return job;
}

/// Non-homogeneous Poisson process by thinning: candidates at `rate_max`,
/// kept with probability rate(t) / rate_max. Exact for any rate function
/// bounded by rate_max; sizes are drawn only for accepted arrivals so the
/// workload stream does not depend on the rejected candidates.
template <typename RateFn>
std::vector<TraceJob> thinned_stream(double horizon, double rate_max,
                                     RateFn rate_at, const LogNormalSize& size,
                                     Rng& arrival_rng, Rng& workload_rng) {
  std::vector<TraceJob> jobs;
  double t = arrival_rng.exponential(rate_max);
  while (t < horizon) {
    if (arrival_rng.uniform() * rate_max < rate_at(t)) {
      jobs.push_back(lognormal_job(t, size, workload_rng));
    }
    t += arrival_rng.exponential(rate_max);
  }
  return jobs;
}

}  // namespace

std::vector<TraceJob> PoissonWorkload::generate(double horizon,
                                                Rng& arrival_rng,
                                                Rng& workload_rng) {
  // Draw-for-draw the loop GridSimulator ran before workload sources
  // existed: one exponential gap, then one size, per job — a SimConfig
  // without a source replays its historical stream bit for bit.
  std::vector<TraceJob> jobs;
  double t = arrival_rng.exponential(rate_);
  while (t < horizon) {
    jobs.push_back(lognormal_job(t, size_, workload_rng));
    t += arrival_rng.exponential(rate_);
  }
  return jobs;
}

BurstyWorkload::BurstyWorkload(BurstyConfig config) : config_(config) {
  require(config_.on_rate > 0 && config_.off_rate >= 0,
          "BurstyWorkload: rates must be positive (off may be 0)");
  require(config_.mean_on > 0 && config_.mean_off > 0,
          "BurstyWorkload: phase lengths must be positive");
}

std::vector<TraceJob> BurstyWorkload::generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) {
  std::vector<TraceJob> jobs;
  // Start from the chain's stationary distribution: always starting "on"
  // would add ~one relaxation time of extra burst, biasing the offered
  // load above the duty-cycle calibration at every horizon.
  const double duty =
      config_.mean_on / (config_.mean_on + config_.mean_off);
  bool on = arrival_rng.chance(duty);
  double t = 0.0;
  double phase_end = arrival_rng.exponential(
      1.0 / (on ? config_.mean_on : config_.mean_off));
  while (t < horizon) {
    const double rate = on ? config_.on_rate : config_.off_rate;
    // A zero off-rate means silent gaps: skip straight to the next phase.
    const double gap = rate > 0 ? arrival_rng.exponential(rate)
                                : std::numeric_limits<double>::infinity();
    if (t + gap < std::min(phase_end, horizon)) {
      t += gap;
      jobs.push_back(lognormal_job(t, config_.size, workload_rng));
    } else {
      // Memorylessness lets us discard the partial gap at a phase switch.
      t = phase_end;
      on = !on;
      phase_end = t + arrival_rng.exponential(
                          1.0 / (on ? config_.mean_on : config_.mean_off));
    }
  }
  return jobs;
}

DiurnalWorkload::DiurnalWorkload(DiurnalConfig config) : config_(config) {
  require(config_.base_rate > 0, "DiurnalWorkload: base_rate must be > 0");
  require(config_.amplitude >= 0 && config_.amplitude < 1.0,
          "DiurnalWorkload: amplitude must be in [0, 1)");
  require(config_.period > 0, "DiurnalWorkload: period must be > 0");
}

std::vector<TraceJob> DiurnalWorkload::generate(double horizon,
                                                Rng& arrival_rng,
                                                Rng& workload_rng) {
  const double rate_max = config_.base_rate * (1.0 + config_.amplitude);
  const auto rate_at = [this](double t) {
    return config_.base_rate *
           (1.0 + config_.amplitude *
                      std::sin(kTwoPi * t / config_.period + config_.phase));
  };
  return thinned_stream(horizon, rate_max, rate_at, config_.size, arrival_rng,
                        workload_rng);
}

HeavyTailWorkload::HeavyTailWorkload(HeavyTailConfig config)
    : config_(config) {
  require(config_.rate > 0, "HeavyTailWorkload: rate must be > 0");
  require(config_.alpha > 0, "HeavyTailWorkload: alpha must be > 0");
  require(config_.min_mi > 0 && config_.max_mi > config_.min_mi,
          "HeavyTailWorkload: need 0 < min_mi < max_mi");
}

std::vector<TraceJob> HeavyTailWorkload::generate(double horizon,
                                                  Rng& arrival_rng,
                                                  Rng& workload_rng) {
  // Bounded Pareto by inverse CDF: u uniform in [0, 1),
  // x = L / (1 - u (1 - (L/H)^alpha))^(1/alpha).
  const double ratio_a = std::pow(config_.min_mi / config_.max_mi,
                                  config_.alpha);
  std::vector<TraceJob> jobs;
  double t = arrival_rng.exponential(config_.rate);
  while (t < horizon) {
    const double u = workload_rng.uniform();
    TraceJob job;
    job.arrival = t;
    job.workload_mi =
        config_.min_mi /
        std::pow(1.0 - u * (1.0 - ratio_a), 1.0 / config_.alpha);
    jobs.push_back(job);
    t += arrival_rng.exponential(config_.rate);
  }
  return jobs;
}

FlashCrowdWorkload::FlashCrowdWorkload(FlashCrowdConfig config)
    : config_(config) {
  require(config_.base_rate > 0, "FlashCrowdWorkload: base_rate must be > 0");
  require(config_.spike_multiplier >= 1.0,
          "FlashCrowdWorkload: spike_multiplier must be >= 1");
  require(config_.begin_frac >= 0 && config_.duration_frac >= 0 &&
              config_.begin_frac + config_.duration_frac <= 1.0,
          "FlashCrowdWorkload: spike window must fit inside the horizon");
}

std::vector<TraceJob> FlashCrowdWorkload::generate(double horizon,
                                                   Rng& arrival_rng,
                                                   Rng& workload_rng) {
  const double begin = config_.begin_frac * horizon;
  const double end = begin + config_.duration_frac * horizon;
  const double rate_max = config_.base_rate * config_.spike_multiplier;
  const auto rate_at = [&](double t) {
    return (t >= begin && t < end) ? rate_max : config_.base_rate;
  };
  return thinned_stream(horizon, rate_max, rate_at, config_.size, arrival_rng,
                        workload_rng);
}

ClassMixWorkload::ClassMixWorkload(std::shared_ptr<WorkloadSource> base,
                                   std::vector<double> weights)
    : ClassMixWorkload(std::move(base), std::move(weights), {}) {}

ClassMixWorkload::ClassMixWorkload(std::shared_ptr<WorkloadSource> base,
                                   std::vector<double> weights,
                                   std::vector<double> size_scales)
    : base_(std::move(base)), size_scales_(std::move(size_scales)) {
  require(base_ != nullptr, "ClassMixWorkload: base source must not be null");
  require(!weights.empty(), "ClassMixWorkload: need at least one class");
  double total = 0.0;
  for (const double weight : weights) {
    require(weight >= 0.0, "ClassMixWorkload: weights must be >= 0");
    total += weight;
  }
  require(total > 0.0, "ClassMixWorkload: weights must sum to > 0");
  require(size_scales_.empty() || size_scales_.size() == weights.size(),
          "ClassMixWorkload: need one size scale per class (or none)");
  for (const double scale : size_scales_) {
    require(scale > 0.0 && std::isfinite(scale),
            "ClassMixWorkload: size scales must be finite and > 0");
  }
  double cumulative = 0.0;
  for (const double weight : weights) {
    cumulative += weight / total;
    cumulative_.push_back(cumulative);
  }
  cumulative_.back() = 1.0;  // guard against rounding at the top bin
  name_ = "class-mix(" + std::string(base_->name()) + ")";
}

std::vector<TraceJob> ClassMixWorkload::generate(double horizon,
                                                 Rng& arrival_rng,
                                                 Rng& workload_rng) {
  std::vector<TraceJob> jobs = base_->generate(horizon, arrival_rng,
                                               workload_rng);
  // One class draw per job, AFTER the base stream is fully materialized:
  // the wrapped source sees exactly the generator states it would see
  // unwrapped, so wrapping never perturbs arrivals or sizes.
  for (TraceJob& job : jobs) {
    const double u = workload_rng.uniform();
    // upper_bound, so zero-weight classes are unreachable even at u == 0
    // (u < 1 and the top bin is exactly 1, so a bin always exists).
    const auto bin = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                      u);
    job.job_class = static_cast<int>(bin - cumulative_.begin());
    if (!size_scales_.empty()) {
      job.workload_mi *= size_scales_[static_cast<std::size_t>(job.job_class)];
    }
  }
  return jobs;
}

StreamQos stream_qos_of(std::span<const TraceJob> jobs) noexcept {
  StreamQos qos;
  for (const TraceJob& job : jobs) {
    if (job.deadline >= 0 && std::isfinite(job.deadline)) {
      qos.deadlines = true;
    }
    if (job.user >= 0 || (job.budget >= 0 && std::isfinite(job.budget))) {
      qos.budgets = true;
    }
  }
  return qos;
}

MaterializedStream::MaterializedStream(std::vector<TraceJob> jobs,
                                       std::string name)
    : jobs_(std::move(jobs)), name_(std::move(name)) {
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const TraceJob& a, const TraceJob& b) {
                     return a.arrival < b.arrival;
                   });
  qos_ = stream_qos_of(jobs_);
}

MaterializedStream::MaterializedStream(WorkloadSource& source, double horizon,
                                       Rng& arrival_rng, Rng& workload_rng)
    : MaterializedStream(source.generate(horizon, arrival_rng, workload_rng),
                         "stream(" + std::string(source.name()) + ")") {}

bool MaterializedStream::next_chunk(double until, std::vector<TraceJob>& out) {
  // Negated so a NaN arrival is released to the simulator's validator.
  while (cursor_ < jobs_.size() && !(jobs_[cursor_].arrival > until)) {
    out.push_back(jobs_[cursor_]);
    ++cursor_;
  }
  return cursor_ < jobs_.size();
}

TraceWorkloadSource::TraceWorkloadSource(std::vector<TraceJob> jobs)
    : jobs_(std::move(jobs)) {
  // Real logs interleave slightly; a stable sort restores arrival order
  // while keeping equal-time jobs in file order (job ids stay meaningful).
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const TraceJob& a, const TraceJob& b) {
                     return a.arrival < b.arrival;
                   });
}

std::vector<TraceJob> TraceWorkloadSource::generate(double horizon,
                                                    Rng& arrival_rng,
                                                    Rng& workload_rng) {
  (void)arrival_rng;
  (void)workload_rng;
  const auto cut = std::lower_bound(
      jobs_.begin(), jobs_.end(), horizon,
      [](const TraceJob& job, double h) { return job.arrival < h; });
  return std::vector<TraceJob>(jobs_.begin(), cut);
}

std::string_view workload_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kPoisson: return "poisson";
    case WorkloadKind::kBursty: return "bursty";
    case WorkloadKind::kDiurnal: return "diurnal";
    case WorkloadKind::kHeavyTail: return "heavy-tail";
    case WorkloadKind::kFlashCrowd: return "flash-crowd";
  }
  return "?";
}

std::span<const WorkloadKind> all_workload_kinds() noexcept {
  static constexpr std::array<WorkloadKind, 5> kAll = {
      WorkloadKind::kPoisson,   WorkloadKind::kBursty,
      WorkloadKind::kDiurnal,   WorkloadKind::kHeavyTail,
      WorkloadKind::kFlashCrowd,
  };
  return kAll;
}

std::unique_ptr<WorkloadSource> make_workload(WorkloadKind kind, double rate,
                                              double horizon,
                                              LogNormalSize size) {
  require(rate > 0 && horizon > 0,
          "make_workload: rate and horizon must be > 0");
  switch (kind) {
    case WorkloadKind::kPoisson:
      return std::make_unique<PoissonWorkload>(rate, size);
    case WorkloadKind::kBursty: {
      // 25% duty cycle with a quiet background: duty * on + (1 - duty) *
      // off = rate keeps the offered volume equal to plain Poisson.
      BurstyConfig config;
      config.off_rate = 0.2 * rate;
      config.on_rate = (rate - 0.75 * config.off_rate) / 0.25;
      config.mean_on = horizon / 12.0;
      config.mean_off = 3.0 * config.mean_on;
      config.size = size;
      return std::make_unique<BurstyWorkload>(config);
    }
    case WorkloadKind::kDiurnal: {
      // Two whole cycles over the horizon: the sine integrates to zero,
      // so the expected volume is exactly rate * horizon.
      DiurnalConfig config;
      config.base_rate = rate;
      config.amplitude = 0.8;
      config.period = horizon / 2.0;
      config.size = size;
      return std::make_unique<DiurnalWorkload>(config);
    }
    case WorkloadKind::kHeavyTail: {
      // Match the LogNormal's mean: a bounded Pareto with alpha = 1.5 and
      // H >> L has mean ~ alpha / (alpha - 1) * L = 3 L.
      HeavyTailConfig config;
      config.rate = rate;
      config.alpha = 1.5;
      config.min_mi =
          std::exp(size.log_mean + 0.5 * size.log_sigma * size.log_sigma) /
          3.0;
      config.max_mi = 1000.0 * config.min_mi;
      return std::make_unique<HeavyTailWorkload>(config);
    }
    case WorkloadKind::kFlashCrowd: {
      // base * (1 - d) + spike * d = rate with a 10% window at 5x base.
      FlashCrowdConfig config;
      config.spike_multiplier = 5.0;
      config.duration_frac = 0.1;
      config.begin_frac = 0.4;
      config.base_rate =
          rate / (1.0 - config.duration_frac +
                  config.duration_frac * config.spike_multiplier);
      config.size = size;
      return std::make_unique<FlashCrowdWorkload>(config);
    }
  }
  throw std::invalid_argument("make_workload: unknown kind");
}

}  // namespace gridsched
