// Workload sources: who arrives when, and how big they are.
//
// The dynamic-grid benches so far exercised one arrival pattern — the
// Poisson process hard-coded into GridSimulator. Real grid traffic is
// bursty, diurnal and heavy-tailed, and scheduler rankings flip under
// those patterns, so the simulator now delegates its arrival stream to a
// pluggable WorkloadSource. A source materializes the full stream over
// the horizon as `TraceJob`s (arrival time, job size in MI, optional job
// class); the simulator pulls it by cursor, one activation at a time,
// validating each arrival and resolving its effective job class, and
// exposes the stream back via `GridSimulator::arrival_trace()` so any run
// can be re-emitted as a trace (workload/trace_io.h) and replayed
// bit-for-bit through TraceWorkloadSource.
//
// Built-in sources:
//
//   PoissonWorkload     exponential inter-arrivals, LogNormal sizes — the
//                       simulator's historical default, reproduced draw
//                       for draw (a SimConfig without a source behaves
//                       exactly as before).
//   BurstyWorkload      on/off Markov-modulated Poisson: exponential
//                       burst/gap phases, high rate inside a burst.
//   DiurnalWorkload     sinusoidally rate-modulated Poisson (thinning),
//                       the day/night cycle of user-facing grids.
//   HeavyTailWorkload   Poisson arrivals with bounded-Pareto sizes — a
//                       few elephants dominate the total work.
//   FlashCrowdWorkload  baseline Poisson plus one spike window at a
//                       multiple of the base rate.
//   TraceWorkloadSource replays a recorded or imported trace verbatim.
//
// `make_workload` builds any synthetic kind calibrated so its expected
// arrival volume over the horizon matches a plain Poisson process at the
// given rate — scenarios compare at equal offered load.
//
// HORIZON CONVENTION (pinned by tests/test_workload.cpp): the arrival
// window is half-open, [0, horizon). Every source — synthetic generators,
// TraceWorkloadSource::generate, and the arrival pull in GridSimulator —
// drops a job whose arrival equals the horizon exactly, so replaying a
// recorded run can never drop or duplicate the boundary job.
//
// For traces too large to materialize (a multi-million-job supercomputer
// log), `StreamingWorkloadSource` is the incremental counterpart of
// `WorkloadSource`: the simulator pulls its chunks (`next_chunk(until)`)
// through the same per-activation path, never materializing the trace,
// and retires per-job state as jobs finalize, so peak memory is bounded
// by the in-flight window, not the trace length. `MaterializedStream`
// adapts any in-memory stream (or any existing WorkloadSource via its
// untouched `generate()`) into a StreamingWorkloadSource.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace gridsched {

/// One arriving job of a workload trace.
struct TraceJob {
  double arrival = 0.0;      // seconds since simulation start
  double workload_mi = 0.0;  // job size, millions of instructions
  /// Job class for class-structured grids; -1 = unspecified (the
  /// simulator hashes one from the job id, as it always did).
  int job_class = -1;
  /// Absolute completion deadline in simulation seconds; -1 = best
  /// effort (no deadline). See src/qos/qos.h for the QoS semantics.
  double deadline = -1.0;
  /// Cost budget of the submitting user; -1 = unlimited. The budget is
  /// shared across all jobs of the same user, not per job.
  double budget = -1.0;
  /// Submitting user id for budget accounting; -1 = anonymous.
  int user = -1;

  friend bool operator==(const TraceJob&, const TraceJob&) = default;
};

/// One machine-failure episode of a simulated run: the machine dies at
/// `fail_at` and comes back at `repair_at` (jobs unfinished at the
/// failure are re-queued; see sim/grid_simulator.h). Recording them next
/// to the arrival trace closes the record -> replay loop: arrivals alone
/// do not reproduce a churny run under a non-deterministic scheduler,
/// because the drawn failure process depends on how long the run drains.
/// Serialized as a sidecar stream by workload/trace_io.h
/// (read/write_churn_trace); replayed via SimConfig::churn_replay.
struct ChurnEvent {
  int machine = -1;
  double fail_at = 0.0;
  double repair_at = 0.0;

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Materializes every arrival in [0, horizon), sorted by arrival time
  /// with positive sizes (the simulator validates and throws otherwise).
  /// The two streams are the simulator's seed-split generators — using
  /// them keeps a run bitwise reproducible from SimConfig::seed; sources
  /// that replay recorded data ignore them.
  [[nodiscard]] virtual std::vector<TraceJob> generate(
      double horizon, Rng& arrival_rng, Rng& workload_rng) = 0;
};

/// Which QoS columns a stream can carry. The simulator decides ONCE, at
/// run start, whether batches get deadline/budget context (it cannot scan
/// an unmaterialized stream the way it scans a generated workload), so
/// streaming sources declare it up front. Declaring a column
/// that turns out to hold only sentinels is harmless: an all-infinite
/// deadline column is behaviorally identical to an absent one
/// (test-pinned in the portfolio), it just rides along in BatchContext.
struct StreamQos {
  bool deadlines = false;  ///< some job may carry a finite deadline
  bool budgets = false;    ///< some job may carry a user or cost budget
};

/// The QoS columns an in-memory stream actually uses, by the simulator's
/// sentinel rule: a deadline or budget counts only when finite and >= 0,
/// a user only when >= 0.
[[nodiscard]] StreamQos stream_qos_of(std::span<const TraceJob> jobs) noexcept;

/// Incremental counterpart of WorkloadSource for traces too large to
/// materialize. A streaming source is single-shot: it consumes its
/// underlying input (an open istream, a generator) as chunks are pulled,
/// so construct a fresh one per simulation run.
class StreamingWorkloadSource {
 public:
  virtual ~StreamingWorkloadSource() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Appends every remaining job with arrival <= until to `out`, in
  /// arrival order (ties in input order). Returns true while the stream
  /// may still hold jobs with arrival > until; false once it is
  /// exhausted. Callers bound their pull window (the simulator passes its
  /// activation time), which bounds the chunk size by the offered load —
  /// the O(1)-in-trace-length memory contract.
  virtual bool next_chunk(double until, std::vector<TraceJob>& out) = 0;

  /// QoS column presence (see StreamQos). Default: none.
  [[nodiscard]] virtual StreamQos qos() const noexcept { return {}; }
};

/// Streams an in-memory job vector — the adapter that lets every existing
/// WorkloadSource (whose `generate()` is untouched) and every recorded
/// trace feed SimConfig::stream. QoS presence is `stream_qos_of` the
/// jobs, so a simulation consuming the adapter is bit-identical to one
/// given the same jobs as a SimConfig::workload.
class MaterializedStream final : public StreamingWorkloadSource {
 public:
  /// Jobs are stably sorted by arrival here (file/recorded order kept for
  /// ties), exactly like TraceWorkloadSource.
  explicit MaterializedStream(std::vector<TraceJob> jobs,
                              std::string name = "materialized");

  /// Materializes `source` over [0, horizon) with the given generators
  /// and streams the result.
  MaterializedStream(WorkloadSource& source, double horizon,
                     Rng& arrival_rng, Rng& workload_rng);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  bool next_chunk(double until, std::vector<TraceJob>& out) override;
  [[nodiscard]] StreamQos qos() const noexcept override { return qos_; }

 private:
  std::vector<TraceJob> jobs_;
  std::size_t cursor_ = 0;
  StreamQos qos_;
  std::string name_;
};

/// LogNormal(log_mean, log_sigma) job sizes, shared by every synthetic
/// source except the heavy-tailed one.
struct LogNormalSize {
  double log_mean = 10.0;  // exp(10) ~ 22k MI
  double log_sigma = 0.8;
};

class PoissonWorkload final : public WorkloadSource {
 public:
  PoissonWorkload(double rate, LogNormalSize size) noexcept
      : rate_(rate), size_(size) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "poisson";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

 private:
  double rate_;
  LogNormalSize size_;
};

/// On/off Markov-modulated Poisson process: phases alternate between a
/// burst (rate `on_rate`, mean length `mean_on`) and a gap (`off_rate`,
/// `mean_off`), with exponentially distributed phase lengths.
struct BurstyConfig {
  double on_rate = 1.7;
  double off_rate = 0.1;
  double mean_on = 30.0;   // seconds
  double mean_off = 90.0;  // seconds
  LogNormalSize size{};
};

class BurstyWorkload final : public WorkloadSource {
 public:
  explicit BurstyWorkload(BurstyConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "bursty";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

 private:
  BurstyConfig config_;
};

/// Sinusoidal rate modulation: rate(t) = base * (1 + amplitude *
/// sin(2 pi t / period + phase)). Sampled by thinning (Lewis-Shedler), so
/// the stream stays exact for any modulation depth.
struct DiurnalConfig {
  double base_rate = 0.5;  // long-run mean jobs/s
  double amplitude = 0.8;  // in [0, 1): peak rate = base * (1 + amplitude)
  double period = 600.0;   // seconds per day/night cycle
  double phase = 0.0;      // radians
  LogNormalSize size{};
};

class DiurnalWorkload final : public WorkloadSource {
 public:
  explicit DiurnalWorkload(DiurnalConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "diurnal";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

 private:
  DiurnalConfig config_;
};

/// Poisson arrivals with bounded-Pareto sizes: P(X > x) ~ x^-alpha on
/// [min_mi, max_mi]. The truncation keeps a sampled elephant from turning
/// a finite-horizon simulation into one endless job.
struct HeavyTailConfig {
  double rate = 0.5;
  double alpha = 1.5;      // tail index; heavier as it approaches 1
  double min_mi = 1e4;     // smallest job size
  double max_mi = 1e7;     // truncation point
};

class HeavyTailWorkload final : public WorkloadSource {
 public:
  explicit HeavyTailWorkload(HeavyTailConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "heavy-tail";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

 private:
  HeavyTailConfig config_;
};

/// Baseline Poisson with one flash-crowd window: inside
/// [begin_frac, begin_frac + duration_frac) * horizon the rate jumps to
/// `spike_multiplier` times the base rate.
struct FlashCrowdConfig {
  double base_rate = 0.5;
  double spike_multiplier = 5.0;
  double begin_frac = 0.4;     // window start, fraction of the horizon
  double duration_frac = 0.1;  // window length, fraction of the horizon
  LogNormalSize size{};
};

class FlashCrowdWorkload final : public WorkloadSource {
 public:
  explicit FlashCrowdWorkload(FlashCrowdConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "flash-crowd";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

 private:
  FlashCrowdConfig config_;
};

/// Wraps any source and assigns every job's class by per-class arrival
/// rate weights — class i with probability weights[i] / sum(weights) —
/// instead of the simulator's per-id hash (which yields a uniform mix).
/// This is the workload that makes class-aware routing measurable: a
/// skewed mix (say 70% class 0 on a grid where only half the machines
/// match class 0) is exactly the regime where per-class backlog routing
/// beats total-backlog routing. Class draws come from the workload
/// stream, one per job, after the base source generated its jobs, so a
/// class-mix run stays bitwise reproducible from SimConfig::seed; classes
/// round-trip through the CSV trace class column (record -> replay keeps
/// them verbatim, and trace classes win over the id hash).
class ClassMixWorkload final : public WorkloadSource {
 public:
  /// `weights[c]` is class c's relative arrival rate; must be non-empty,
  /// non-negative, with a positive sum.
  ClassMixWorkload(std::shared_ptr<WorkloadSource> base,
                   std::vector<double> weights);

  /// As above, but each class also scales its job sizes: class c's
  /// workload_mi is multiplied by `size_scales[c]` (finite, > 0; one per
  /// weight). The scale is applied after the class draw, so the base
  /// source's arrival/size stream is untouched — "heavy class, heavy
  /// jobs" regimes stay bitwise reproducible and round-trip through the
  /// trace like any other sizes.
  ClassMixWorkload(std::shared_ptr<WorkloadSource> base,
                   std::vector<double> weights,
                   std::vector<double> size_scales);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(cumulative_.size());
  }

 private:
  std::shared_ptr<WorkloadSource> base_;
  std::vector<double> cumulative_;   // normalized cumulative weights
  std::vector<double> size_scales_;  // per-class size multipliers; may be empty
  std::string name_;                 // "class-mix(<base>)"
};

/// Replays a fixed trace (recorded by the simulator or read from a file).
/// Jobs are stably sorted by arrival on construction; generate() returns
/// the prefix with arrival < horizon and ignores both generators.
class TraceWorkloadSource final : public WorkloadSource {
 public:
  explicit TraceWorkloadSource(std::vector<TraceJob> jobs);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "trace";
  }
  [[nodiscard]] std::vector<TraceJob> generate(double horizon,
                                               Rng& arrival_rng,
                                               Rng& workload_rng) override;

  [[nodiscard]] const std::vector<TraceJob>& jobs() const noexcept {
    return jobs_;
  }

 private:
  std::vector<TraceJob> jobs_;
};

enum class WorkloadKind {
  kPoisson,
  kBursty,
  kDiurnal,
  kHeavyTail,
  kFlashCrowd,
};

[[nodiscard]] std::string_view workload_name(WorkloadKind kind) noexcept;

/// All synthetic kinds, in a stable display order.
[[nodiscard]] std::span<const WorkloadKind> all_workload_kinds() noexcept;

/// Builds a synthetic source of `kind` calibrated to offer the same
/// expected arrival volume as a Poisson process at `rate` over `horizon`
/// (diurnal gets whole modulation cycles; bursty a 25% duty cycle; the
/// heavy tail a bounded Pareto whose mean approximates the LogNormal's).
[[nodiscard]] std::unique_ptr<WorkloadSource> make_workload(
    WorkloadKind kind, double rate, double horizon, LogNormalSize size = {});

}  // namespace gridsched
