// The two service workloads: a GridSimulator replay through a 4-shard
// GridSchedulingService, every portfolio member stopped on an evaluation
// count (the wall budget is set so large it never binds), so schedules
// and simulated outcomes are pure functions of the seed.
//
//   swf-stream   a seeded synthetic SWF log (50k jobs) written into a
//                string at set-up and streamed through SwfStreamReader:
//                ~500 small batches, deadline-aware routing, admission on,
//                tens of evaluations per member. The parser, the simulator
//                and the service's serial pre-race phases dominate.
//   burst-churn  a class-mix over the bursty on/off source, materialized
//                by the simulator (SimConfig::workload), on a churning
//                grid (MTBF/MTTR) with class-backlog routing, drain-tail
//                stealing and split/merge bounds; hundreds of evaluations
//                per member, so burst batches make the races dominate.
//
// Arrivals are open-loop in simulated time; in wall time the simulator
// waits on every activation, a closed loop with one caller.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "batch_check.h"
#include "decorators.h"
#include "measure.h"
#include "runner.h"
#include "service/grid_scheduling_service.h"
#include "sim/grid_simulator.h"
#include "workload/swf_io.h"
#include "workload/workload_source.h"

namespace perfbench {

using namespace gridsched;

namespace {

/// Wall budget that never binds: members stop on evaluations.
constexpr double kUnboundedBudgetMs = 1e9;

/// Activations a rep must have, so its tail percentiles rest on enough
/// samples; both workloads are sized to clear it on every seed.
constexpr std::size_t kMinActivations = 500;

/// SimConfig::seed of every run. The grid — machine speeds and, in
/// burst-churn, the failure process — is fixed like the paper's canonical
/// instances; the workload seed drives the traffic and the service's
/// search seeds. A per-seed grid swung the batch-level makespan gap by
/// 30-45% from seed to seed.
constexpr std::uint64_t kGridSeed = 1;

/// Non-owning shared_ptr for SimConfig's source slots.
template <typename T>
std::shared_ptr<T> borrow(T& object) {
  return std::shared_ptr<T>(std::shared_ptr<T>(), &object);
}

/// istream over a string the caller keeps alive, without copying it.
class StringViewBuf final : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

/// A source attached to one rep's SimConfig; keeps what it built alive
/// for the rep and reports its layer metrics afterwards.
class AttachedSource {
 public:
  virtual ~AttachedSource() = default;
  virtual void layers(const std::vector<Span>& spans,
                      LayerMetrics& out) const = 0;
};

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, SimConfig sim, ServiceConfig service,
                  std::size_t expected_jobs)
      : seed_(seed),
        sim_config_(std::move(sim)),
        service_config_(std::move(service)),
        expected_jobs_(expected_jobs) {
    sim_config_.seed = kGridSeed;
    service_config_.seed = seed;
    service_config_.total_budget_ms = kUnboundedBudgetMs;
    service_config_.threads = service_threads();
  }

  void setup(SpanRecorder* spans) override {
    build_inputs(spans);
    ScopedSpan span(spans, "service.construct");
    service_ = std::make_unique<GridSchedulingService>(service_config_);
  }

  void release_inputs() override { service_.reset(); }

  RepResult run_rep(SpanRecorder* spans) override;

 protected:
  virtual void build_inputs(SpanRecorder* spans) = 0;
  /// Points `config` at this rep's arrival source.
  virtual std::unique_ptr<AttachedSource> attach_source(
      SimConfig& config, SpanRecorder* spans) = 0;

  std::uint64_t seed_;
  SimConfig sim_config_;

 private:
  void service_layers(const GridSchedulingService& service,
                      const TimedScheduler& timed, LayerMetrics& out) const;

  ServiceConfig service_config_;
  std::size_t expected_jobs_;
  /// Built by set-up and consumed by the next rep; later reps build a
  /// fresh one before their timer starts (the service is stateful).
  std::unique_ptr<GridSchedulingService> service_;
};

RepResult ServiceWorkload::run_rep(SpanRecorder* spans) {
  if (!service_) {
    service_ = std::make_unique<GridSchedulingService>(service_config_);
  }
  RepResult rep;
  SimConfig config = sim_config_;
  const std::unique_ptr<AttachedSource> source = attach_source(config, spans);
  GridSimulator sim(config);

  // Per-job outcomes, as the simulator finalizes them.
  std::vector<double> flowtimes;
  flowtimes.reserve(expected_jobs_);
  long seen = 0, completed = 0, rejected = 0, unfinished = 0;
  sim.set_job_observer([&](const SimJobRecord& record, const TraceJob&) {
    ++seen;
    if (record.rejected) {
      ++rejected;
    } else if (record.finish >= 0.0) {
      ++completed;
      flowtimes.push_back(record.flowtime());
    } else {
      ++unfinished;
    }
  });

  // Per-activation checks, and batch quality against LJFR-SJFR on the
  // same batches as ratios of sums over the activations. (A gap to the
  // certified floor would be the natural measure, but on these batches the
  // floor is mostly one job or one backlog, and that gap moved 13-27%
  // from seed to seed against 2% for the ratios.)
  double makespan_sum = 0.0, flowtime_sum = 0.0, reference_makespan_sum = 0.0,
         reference_flowtime_sum = 0.0;
  const bool admission = service_config_.admission.enabled;
  TimedScheduler timed(
      *service_, "service.schedule_batch", spans,
      [&](const EtcMatrix& etc, const Schedule& schedule) {
        const BatchQuality q = check_batch(etc, schedule, admission, true);
        ++rep.checked;
        if (!q.ok()) {
          rep.errors.push_back("activation " +
                               std::to_string(rep.checked) + ": " + q.error);
          return;
        }
        makespan_sum += q.makespan;
        flowtime_sum += q.flowtime;
        reference_makespan_sum += q.reference_makespan;
        reference_flowtime_sum += q.reference_flowtime;
      },
      2048);

  SimMetrics metrics;
  {
    ScopedSpan root(spans, "sim.run");
    const double start = now_s();
    metrics = sim.run(timed);
    rep.solve_s = now_s() - start - timed.check_s();
  }
  rep.activation_ms = timed.call_ms();
  rep.jobs = metrics.jobs_arrived;

  rep.checked += 1;
  if (rep.activation_ms.size() < kMinActivations) {
    rep.errors.push_back("only " + std::to_string(rep.activation_ms.size()) +
                         " activations, fewer than " +
                         std::to_string(kMinActivations));
  }

  // Lossless accounting: every arrived job is completed, rejected or
  // unfinished, and the simulator's books agree with the per-job records.
  rep.checked += 1;
  if (seen != metrics.jobs_arrived || completed != metrics.jobs_completed ||
      rejected != metrics.jobs_rejected ||
      completed + rejected + unfinished != metrics.jobs_arrived ||
      static_cast<long>(metrics.flowtime_hist.count()) != completed) {
    rep.errors.push_back(
        "job accounting: arrived " + std::to_string(metrics.jobs_arrived) +
        ", observed " + std::to_string(seen) + " (completed " +
        std::to_string(completed) + ", rejected " + std::to_string(rejected) +
        ", unfinished " + std::to_string(unfinished) + ")");
  }
  if (metrics.jobs_arrived == 0 || completed == 0 ||
      reference_makespan_sum <= 0.0 || reference_flowtime_sum <= 0.0) {
    rep.errors.push_back("the replay scheduled no work");
    return rep;
  }

  Quality& q = rep.quality;
  q.makespan_ratio = makespan_sum / reference_makespan_sum;
  q.flowtime_ratio = flowtime_sum / reference_flowtime_sum;
  q.mean_flowtime_s = metrics.mean_flowtime;
  q.flowtime_p99_s = percentile(flowtimes, 99.0);
  q.deadline_met_pct = 100.0 * (1.0 - metrics.deadline_miss_rate());
  q.completed_pct = 100.0 * static_cast<double>(completed) /
                    static_cast<double>(metrics.jobs_arrived);
  rep.outcome = {
      static_cast<double>(metrics.jobs_arrived),
      static_cast<double>(metrics.jobs_completed),
      static_cast<double>(metrics.jobs_rejected),
      static_cast<double>(metrics.jobs_requeued),
      static_cast<double>(metrics.activations),
      static_cast<double>(metrics.deadline_jobs),
      static_cast<double>(metrics.deadline_missed),
      static_cast<double>(metrics.peak_resident_jobs),
      metrics.mean_batch_size,
      metrics.mean_flowtime,
      metrics.mean_wait,
      metrics.mean_slowdown,
      metrics.max_flowtime,
      metrics.makespan,
      metrics.utilization,
      metrics.total_tardiness,
      metrics.total_cost,
      makespan_sum,
      flowtime_sum,
      reference_makespan_sum,
      reference_flowtime_sum,
      q.makespan_ratio,
      q.flowtime_ratio,
      q.mean_flowtime_s,
      q.flowtime_p99_s,
      q.deadline_met_pct,
      q.completed_pct,
  };

  if (spans) {
    const std::vector<Span>& s = spans->spans();
    rep.layers["sim.self_s"] = layer_self_times(s)["sim"];
    rep.layers["sim.activations"] = metrics.activations;
    rep.layers["sim.mean_batch_jobs"] = metrics.mean_batch_size;
    rep.layers["sim.peak_resident_jobs"] = metrics.peak_resident_jobs;
    rep.layers["sim.jobs_requeued"] = metrics.jobs_requeued;
    service_layers(*service_, timed, rep.layers);
    source->layers(s, rep.layers);
  }
  service_.reset();
  return rep;
}

/// Lower-case member name: "Min-Min" -> "min-min", "cMA-sync" -> "cma-sync".
std::string member_slug(std::string_view name) {
  std::string slug(name);
  for (char& c : slug) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return slug;
}

void ServiceWorkload::service_layers(const GridSchedulingService& service,
                                     const TimedScheduler& timed,
                                     LayerMetrics& out) const {
  double activation_s = 0.0;
  for (const double ms : timed.call_ms()) activation_s += ms / 1e3;
  double recorded_s = 0.0, stolen = 0.0, rerouted = 0.0;
  for (const ServiceActivationRecord& record : service.service_activations()) {
    recorded_s += record.wall_ms / 1e3;
    stolen += record.jobs_stolen;
    rerouted += record.jobs_rerouted;
  }
  double race_s = 0.0;
  for (const ShardActivationRecord& record : service.shard_activations()) {
    race_s += record.race_ms / 1e3;
  }
  double migrated = 0.0;
  for (const ShardStats& stats : service.shard_stats()) {
    migrated += stats.migrated_in;
  }
  out["service.activation_s"] = activation_s;
  out["service.recorded_s"] = recorded_s;
  out["service.unrecorded_s"] = activation_s - recorded_s;
  out["service.race_s"] = race_s;
  out["service.pool_busy_frac"] =
      race_s / (static_cast<double>(service_config_.threads) * activation_s);
  out["service.jobs_migrated"] = migrated;
  out["service.jobs_stolen"] = stolen;
  out["service.jobs_rerouted"] = rerouted;
  out["service.resizes"] = static_cast<double>(service.resize_events().size());

  struct MemberTotals {
    double runs = 0.0, wins = 0.0, ms = 0.0, evaluations = 0.0;
  };
  std::map<std::string, MemberTotals> members;
  double races = 0.0, pareto = 0.0;
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    const PortfolioBatchScheduler& portfolio = service.shard_scheduler(shard);
    races += static_cast<double>(portfolio.activations().size());
    for (const ActivationRecord& record : portfolio.activations()) {
      pareto += record.qos_pareto;
    }
    for (const MemberStats& stats : portfolio.member_stats()) {
      MemberTotals& totals = members[member_slug(stats.name)];
      totals.runs += stats.runs;
      totals.wins += stats.wins;
      totals.ms += stats.total_ms;
      totals.evaluations += static_cast<double>(stats.evaluations);
    }
  }
  out["portfolio.races"] = races;
  for (const auto& [slug, totals] : members) {
    const std::string prefix = "portfolio." + slug;
    out[prefix + ".ms_per_race"] = totals.runs > 0 ? totals.ms / totals.runs
                                                   : 0.0;
    out[prefix + ".win_pct"] = races > 0 ? 100.0 * totals.wins / races : 0.0;
    if (slug != "mct" && slug != "min-min") {
      out[prefix + ".evals_per_s"] =
          totals.ms > 0 ? totals.evaluations / (totals.ms / 1e3) : 0.0;
    }
  }
  const AdmissionStats& admission = service.admission_stats();
  out["qos.accepted"] = static_cast<double>(admission.accepted);
  out["qos.degraded"] = static_cast<double>(admission.degraded);
  out["qos.rejected"] = static_cast<double>(admission.rejected());
  out["qos.pareto_activations"] = pareto;
}

// --- swf-stream ---------------------------------------------------------

constexpr long kSwfJobs = 50'000;
constexpr double kSwfRate = 20.0;  // arrivals per simulated second
// The log ends near 2500 s (sd ~11 s); a horizon well past it on every
// seed lets the log, not the horizon, end the replay, and a 4.8 s period
// gives ~520 activations.
constexpr double kSwfHorizon = kSwfJobs / kSwfRate + 100.0;
constexpr double kSwfPeriod = 4.8;

class SwfStream final : public ServiceWorkload {
 public:
  explicit SwfStream(std::uint64_t seed)
      : ServiceWorkload(seed, sim_config(), service_config(), kSwfJobs) {}

 protected:
  void build_inputs(SpanRecorder* spans) override {
    ScopedSpan span(spans, "workload.swf_write");
    // The text is written into the previous set-up's buffer, sized up
    // front: only the first set-up pays for touching fresh pages.
    text_.clear();
    text_.reserve(static_cast<std::size_t>(kSwfJobs) * 96);
    std::ostringstream out(std::move(text_));
    out << "; synthetic SWF log, seed " << seed_ << "\n";
    Rng rng(seed_);
    double t = 0.0;
    for (long i = 0; i < kSwfJobs; ++i) {
      t += rng.exponential(kSwfRate);
      // ~1.8 s of work at the 1000-MIPS reference speed on average.
      const double run_seconds = std::exp(rng.normal(7.0, 1.0)) / 1000.0;
      // A quarter of the jobs carry a deadline with tight slack, so a
      // visible share misses it.
      const double requested =
          i % 4 == 0 ? run_seconds * 1.5 + 3.0 : -1.0;
      write_swf_row(out, i + 1, t, run_seconds, /*procs=*/1,
                    /*user=*/static_cast<int>(i % 50),
                    /*queue=*/static_cast<int>(i % 3), requested);
    }
    text_ = std::move(out).str();
  }

  std::unique_ptr<AttachedSource> attach_source(SimConfig& config,
                                                SpanRecorder* spans) override {
    auto source = std::make_unique<Source>(text_, spans);
    config.stream = source->traced
                        ? std::shared_ptr<StreamingWorkloadSource>(
                              borrow(*source->traced))
                        : std::shared_ptr<StreamingWorkloadSource>(
                              borrow(source->reader));
    return source;
  }

 private:
  struct Source final : AttachedSource {
    Source(const std::string& text, SpanRecorder* spans)
        : buffer(text), stream(&buffer), reader(stream) {
      if (spans) traced = std::make_unique<TracedStream>(reader, spans);
    }
    void layers(const std::vector<Span>& spans,
                LayerMetrics& out) const override {
      out["workload.next_chunk_s"] = total_duration(spans, "workload.next_chunk");
      out["workload.rows"] = static_cast<double>(traced->rows());
      out["workload.peak_buffered"] =
          static_cast<double>(reader.peak_buffered());
    }
    StringViewBuf buffer;
    std::istream stream;
    SwfStreamReader reader;
    std::unique_ptr<TracedStream> traced;
  };

  static SimConfig sim_config() {
    SimConfig config;
    config.horizon = kSwfHorizon;
    config.scheduler_period = kSwfPeriod;
    config.num_machines = 48;
    config.mips_min = 500.0;
    config.mips_max = 2'000.0;
    config.num_job_classes = 3;
    return config;
  }

  static ServiceConfig service_config() {
    ServiceConfig config;
    config.num_shards = 4;
    config.routing = RoutingKind::kDeadlineAware;
    config.admission = AdmissionConfig{.enabled = true,
                                       .overload_backlog = 60.0};
    config.member_stop = StopCondition{.max_evaluations = 60};
    return config;
  }

  std::string text_;
};

// --- burst-churn --------------------------------------------------------

/// Seed of burst-churn's arrival generator. The arrival timeline (burst
/// phases and arrival times) is fixed like the grid; the workload seed
/// draws the job sizes and classes and the service's search seeds. With
/// the timeline drawn per seed, the empirical duty cycle over a replay
/// moved the offered load by +-10% from seed to seed, and
/// activation_ms_p50 by up to 40%.
constexpr std::uint64_t kArrivalSeed = 1;

/// Draws a source's job sizes and classes from a generator seeded by the
/// workload seed, and its arrivals from one seeded by kArrivalSeed, instead
/// of the simulator's generators (which follow the fixed grid seed).
class SeededSource final : public WorkloadSource {
 public:
  SeededSource(std::shared_ptr<WorkloadSource> inner, std::uint64_t seed)
      : inner_(std::move(inner)), seed_(seed) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon, Rng&,
                                               Rng&) override {
    Rng arrivals(kArrivalSeed);
    Rng sizes(seed_ * 2 + 2);
    return inner_->generate(horizon, arrivals, sizes);
  }

 private:
  std::shared_ptr<WorkloadSource> inner_;
  std::uint64_t seed_;
};

// Mean arrivals per simulated second: ~30% utilization, so bursts queue
// but the backlog drains between them (2.5/s tipped some seeds into a
// growing backlog).
constexpr double kBurstRate = 1.5;
constexpr double kBurstHorizon = 12'000;  // ~600 activations at a 20 s period

/// On/off phases of 10 s / 30 s (25% duty) at the mean rate above:
/// hundreds of bursts per replay, so the arrival pattern — and with it
/// every quality metric — varies little from seed to seed, while a burst
/// still lands in one or two activations as a large batch.
BurstyConfig burst_config() {
  BurstyConfig config;
  config.off_rate = 0.2 * kBurstRate;
  config.on_rate = (kBurstRate - 0.75 * config.off_rate) / 0.25;
  config.mean_on = 10.0;
  config.mean_off = 30.0;
  return config;
}

class BurstChurn final : public ServiceWorkload {
 public:
  explicit BurstChurn(std::uint64_t seed)
      : ServiceWorkload(seed, sim_config(), service_config(),
                        static_cast<std::size_t>(kBurstRate * kBurstHorizon *
                                                 1.5)) {}

 protected:
  void build_inputs(SpanRecorder* spans) override {
    ScopedSpan span(spans, "workload.construct");
    source_ = std::make_shared<SeededSource>(
        std::make_shared<ClassMixWorkload>(
            std::make_shared<BurstyWorkload>(burst_config()),
            std::vector<double>{0.6, 0.3, 0.1}),
        seed_);
  }

  std::unique_ptr<AttachedSource> attach_source(SimConfig& config,
                                                SpanRecorder* spans) override {
    auto source = std::make_unique<Source>();
    if (spans) {
      source->traced = std::make_unique<TracedSource>(*source_, spans);
      config.workload = borrow<WorkloadSource>(*source->traced);
    } else {
      config.workload = source_;
    }
    return source;
  }

 private:
  struct Source final : AttachedSource {
    void layers(const std::vector<Span>& spans,
                LayerMetrics& out) const override {
      out["workload.generate_ms"] =
          total_duration(spans, "workload.generate") * 1e3;
    }
    std::unique_ptr<TracedSource> traced;
  };

  static SimConfig sim_config() {
    SimConfig config;
    config.horizon = kBurstHorizon;
    config.scheduler_period = 20.0;
    config.num_machines = 48;
    config.mips_min = 500.0;
    config.mips_max = 2'000.0;
    config.num_job_classes = 3;
    config.machine_mtbf = 1'500.0;
    config.machine_mttr = 150.0;
    return config;
  }

  static ServiceConfig service_config() {
    ServiceConfig config;
    // Five shards of ~9.6 machines: the merge bound fires once churn has
    // taken four machines down; the split bound (at least twice the merge
    // bound, the service's anti-oscillation rule) stays out of reach.
    config.num_shards = 5;
    config.routing = RoutingKind::kClassBacklog;
    config.drain_steal = true;
    config.split_above_machines = 20;
    config.merge_below_machines = 10;
    config.member_stop = StopCondition{.max_evaluations = 200};
    return config;
  }

  std::shared_ptr<WorkloadSource> source_;
};

}  // namespace

std::unique_ptr<Workload> make_swf_stream(std::uint64_t seed) {
  return std::make_unique<SwfStream>(seed);
}

std::unique_ptr<Workload> make_burst_churn(std::uint64_t seed) {
  return std::make_unique<BurstChurn>(seed);
}

}  // namespace perfbench
