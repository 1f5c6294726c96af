// Forwarding decorators the benchmark puts between the simulator and the
// library. Each forwards every call unchanged to the object it wraps and
// only observes it from outside: wall time, a span when a recorder is
// given, and (for the scheduler) a check of the returned schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/batch_scheduler.h"
#include "spans.h"
#include "workload/workload_source.h"

namespace perfbench {

/// Times each schedule_batch call of the wrapped scheduler (both
/// overloads forward to the same overload of `inner`). After the timed
/// call, `check` — when set — inspects the batch and the returned
/// schedule; its own time is kept apart (`check_s`) so callers can take
/// it out of their walls.
class TimedScheduler final : public gridsched::BatchScheduler {
 public:
  using Check = std::function<void(const gridsched::EtcMatrix&,
                                   const gridsched::Schedule&)>;

  /// `span_name` must be a string literal; `spans` may be null.
  TimedScheduler(gridsched::BatchScheduler& inner, const char* span_name,
                 SpanRecorder* spans, Check check,
                 std::size_t expected_calls = 0);

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] gridsched::Schedule schedule_batch(
      const gridsched::EtcMatrix& etc) override;
  [[nodiscard]] gridsched::Schedule schedule_batch(
      const gridsched::EtcMatrix& etc,
      const gridsched::BatchContext& context) override;

  /// Wall time of each forwarded call, in milliseconds, in call order.
  [[nodiscard]] const std::vector<double>& call_ms() const noexcept {
    return call_ms_;
  }
  /// Seconds spent inside the check hook.
  [[nodiscard]] double check_s() const noexcept { return check_s_; }

 private:
  template <typename Call>
  gridsched::Schedule forward(const gridsched::EtcMatrix& etc, Call&& call);

  gridsched::BatchScheduler& inner_;
  const char* span_name_;
  SpanRecorder* spans_;
  Check check_;
  std::vector<double> call_ms_;
  double check_s_ = 0.0;
};

/// Streaming source decorator: forwards next_chunk/qos/name; records a
/// "workload.next_chunk" span per pull and counts the rows it returned.
class TracedStream final : public gridsched::StreamingWorkloadSource {
 public:
  TracedStream(gridsched::StreamingWorkloadSource& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  bool next_chunk(double until,
                  std::vector<gridsched::TraceJob>& out) override;
  [[nodiscard]] gridsched::StreamQos qos() const noexcept override {
    return inner_.qos();
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  gridsched::StreamingWorkloadSource& inner_;
  SpanRecorder* spans_;
  std::size_t rows_ = 0;
};

/// Materialized source decorator: forwards generate/name; records a
/// "workload.generate" span per call.
class TracedSource final : public gridsched::WorkloadSource {
 public:
  TracedSource(gridsched::WorkloadSource& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::vector<gridsched::TraceJob> generate(
      double horizon, gridsched::Rng& arrival_rng,
      gridsched::Rng& workload_rng) override;

 private:
  gridsched::WorkloadSource& inner_;
  SpanRecorder* spans_;
};

}  // namespace perfbench
