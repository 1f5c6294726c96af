// Tests of the benchmark's own helpers: the percentile rule, self time
// from nested spans, the forwarding decorators and the batch checks.
// Plain main() so the benchmark package needs nothing beyond the
// compiler; exits 1 when any expectation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch_check.h"
#include "decorators.h"
#include "measure.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool condition, const char* what, int line) {
  if (condition) return;
  std::fprintf(stderr, "selftest.cpp:%d: expected %s\n", line, what);
  ++failures;
}
#define EXPECT(condition) expect((condition), #condition, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using namespace perfbench;
using gridsched::BatchContext;
using gridsched::EtcMatrix;
using gridsched::Schedule;
using gridsched::TraceJob;

void test_percentile_rule() {
  std::vector<double> samples;
  for (int i = 1; i <= 5; ++i) samples.push_back(i);
  EXPECT(near(percentile(samples, 0.0), 1.0));
  EXPECT(near(percentile(samples, 50.0), 3.0));
  EXPECT(near(percentile(samples, 100.0), 5.0));
  EXPECT(near(percentile(samples, 25.0), 2.0));
  EXPECT(near(percentile({1.0, 2.0}, 50.0), 1.5));
  EXPECT(near(median({9.0, 1.0, 5.0}), 5.0));
  EXPECT(throws([] { (void)percentile({}, 50.0); }));
  EXPECT(throws([] { (void)percentile({1.0}, 101.0); }));

  // At least ten samples beyond the percentile: p95 needs 200, p99 1000.
  EXPECT(!tail_supported(199, 95.0));
  EXPECT(tail_supported(200, 95.0));
  EXPECT(!tail_supported(999, 99.0));
  EXPECT(tail_supported(1000, 99.0));
  EXPECT(tail_supported(20, 50.0));
  EXPECT(!tail_supported(19, 50.0));

  std::vector<double> ramp(200);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = double(i);
  EXPECT(near(tail_percentile(ramp, 95.0), 189.05));
  ramp.pop_back();
  EXPECT(throws([&] { (void)tail_percentile(ramp, 95.0); }));
  // The median is always reportable.
  EXPECT(near(tail_percentile({4.0, 2.0}, 50.0), 3.0));
}

void test_self_time_from_nested_spans() {
  // root [0, 10] > a [1, 4] > a.b [2, 3]; root > c [5, 9]; second root.
  const std::vector<Span> spans = {
      {"sim.run", 0.0, 10.0, -1},   {"service.call", 1.0, 4.0, 0},
      {"workload.pull", 2.0, 3.0, 1}, {"service.call", 5.0, 9.0, 0},
      {"bench.check", 20.0, 20.5, -1}};
  const std::vector<double> self = self_times(spans);
  EXPECT(near(self[0], 3.0));  // 10 - 3 - 4
  EXPECT(near(self[1], 2.0));  // 3 - 1
  EXPECT(near(self[2], 1.0));
  EXPECT(near(self[3], 4.0));
  EXPECT(near(self[4], 0.5));

  const auto layers = layer_self_times(spans);
  EXPECT(layers.size() == 4);
  EXPECT(near(layers.at("sim"), 3.0));
  EXPECT(near(layers.at("service"), 6.0));
  EXPECT(near(layers.at("workload"), 1.0));
  double sum = 0.0;
  for (const auto& [layer, value] : layers) sum += value;
  EXPECT(near(sum, 10.5));  // the two root walls
  // The traced-run check leaves the benchmark's own layer out.
  EXPECT(near(self_time_sum_without(spans, "bench"), 10.0));
  EXPECT(near(self_time_sum_without(spans, "sim"), 7.5));
  EXPECT(near(total_duration(spans, "service.call"), 7.0));
  EXPECT(span_count(spans, "service.call") == 2);
  EXPECT(layer_of("portfolio.cma.run") == "portfolio");
  EXPECT(layer_of("plain") == "plain");

  // The recorder nests by call order and refuses out-of-order closes.
  SpanRecorder recorder;
  const int outer = recorder.begin("sim.run");
  {
    ScopedSpan inner(&recorder, "service.call");
  }
  const int second = recorder.begin("bench.check");
  EXPECT(throws([&] { recorder.end(outer); }));
  recorder.end(second);
  recorder.end(outer);
  EXPECT(recorder.balanced());
  EXPECT(recorder.spans().size() == 3);
  EXPECT(recorder.spans()[1].parent == 0);
  EXPECT(recorder.spans()[2].parent == 0);
  EXPECT(recorder.spans()[0].parent == -1);
  ScopedSpan ignored(nullptr, "sim.run");  // a null recorder is a no-op
}

/// Records what it was called with and returns a fixed schedule.
class FakeScheduler final : public gridsched::BatchScheduler {
 public:
  std::string_view name() const noexcept override { return "fake"; }
  Schedule schedule_batch(const EtcMatrix& etc) override {
    ++plain_calls;
    last_etc = &etc;
    return answer;
  }
  Schedule schedule_batch(const EtcMatrix& etc,
                          const BatchContext& context) override {
    ++context_calls;
    last_etc = &etc;
    last_context = &context;
    return answer;
  }
  Schedule answer;
  int plain_calls = 0, context_calls = 0;
  const EtcMatrix* last_etc = nullptr;
  const BatchContext* last_context = nullptr;
};

class FakeStream final : public gridsched::StreamingWorkloadSource {
 public:
  std::string_view name() const noexcept override { return "fake-stream"; }
  bool next_chunk(double until, std::vector<TraceJob>& out) override {
    untils.push_back(until);
    out.push_back(TraceJob{.arrival = until, .workload_mi = 7.0});
    return untils.size() < 2;
  }
  gridsched::StreamQos qos() const noexcept override { return {true, false}; }
  std::vector<double> untils;
};

class FakeSource final : public gridsched::WorkloadSource {
 public:
  std::string_view name() const noexcept override { return "fake-source"; }
  std::vector<TraceJob> generate(double horizon, gridsched::Rng& arrival,
                                 gridsched::Rng& workload) override {
    last_horizon = horizon;
    last_arrival = &arrival;
    last_workload = &workload;
    return {TraceJob{.arrival = 1.0, .workload_mi = 2.0, .job_class = 1}};
  }
  double last_horizon = 0.0;
  const gridsched::Rng* last_arrival = nullptr;
  const gridsched::Rng* last_workload = nullptr;
};

void test_decorators_forward_unchanged() {
  EtcMatrix etc(3, 2);
  FakeScheduler inner;
  inner.answer = Schedule(3, 1);
  inner.answer[2] = 0;
  const EtcMatrix* checked_etc = nullptr;
  Schedule checked;
  SpanRecorder recorder;
  TimedScheduler timed(inner, "service.schedule_batch", &recorder,
                       [&](const EtcMatrix& e, const Schedule& s) {
                         checked_etc = &e;
                         checked = s;
                       });
  EXPECT(timed.name() == "fake");

  const Schedule plain = timed.schedule_batch(etc);
  EXPECT(inner.plain_calls == 1 && inner.context_calls == 0);
  EXPECT(inner.last_etc == &etc);
  EXPECT(plain.num_jobs() == 3 && plain[0] == 1 && plain[2] == 0);

  const BatchContext context = BatchContext::identity(etc, 7);
  const Schedule with_context = timed.schedule_batch(etc, context);
  EXPECT(inner.plain_calls == 1 && inner.context_calls == 1);
  EXPECT(inner.last_context == &context);
  EXPECT(with_context.hamming_distance(inner.answer) == 0);
  EXPECT(checked_etc == &etc);
  EXPECT(checked.hamming_distance(inner.answer) == 0);
  EXPECT(timed.call_ms().size() == 2);
  EXPECT(timed.check_s() >= 0.0);
  EXPECT(span_count(recorder.spans(), "service.schedule_batch") == 2);
  EXPECT(span_count(recorder.spans(), "bench.check") == 2);

  // Without a recorder or a check the decorator only times.
  TimedScheduler bare(inner, "service.schedule_batch", nullptr, nullptr);
  EXPECT(bare.schedule_batch(etc, context).hamming_distance(inner.answer) ==
         0);
  EXPECT(bare.call_ms().size() == 1 && bare.check_s() == 0.0);

  FakeStream stream;
  FakeStream reference;
  TracedStream traced(stream, &recorder);
  EXPECT(traced.name() == "fake-stream");
  EXPECT(traced.qos().deadlines && !traced.qos().budgets);
  std::vector<TraceJob> got, want;
  for (const double until : {5.0, 9.0}) {
    EXPECT(traced.next_chunk(until, got) == reference.next_chunk(until, want));
  }
  EXPECT(got == want);
  EXPECT(stream.untils == reference.untils);
  EXPECT(traced.rows() == 2);
  EXPECT(span_count(recorder.spans(), "workload.next_chunk") == 2);

  FakeSource source;
  TracedSource traced_source(source, &recorder);
  EXPECT(traced_source.name() == "fake-source");
  gridsched::Rng arrival(1), workload(2);
  const std::vector<TraceJob> jobs =
      traced_source.generate(42.0, arrival, workload);
  EXPECT(source.last_horizon == 42.0);
  EXPECT(source.last_arrival == &arrival && source.last_workload == &workload);
  EXPECT(jobs.size() == 1 && jobs[0].job_class == 1);
  EXPECT(span_count(recorder.spans(), "workload.generate") == 1);
}

void test_batch_checks() {
  EtcMatrix etc(3, 2, {1.0, 2.0, 4.0, 1.0, 3.0, 3.0});
  etc.set_ready_time(1, 1.0);
  Schedule schedule(3);
  schedule[0] = 0;
  schedule[1] = 1;
  schedule[2] = 0;
  const BatchQuality good = check_batch(etc, schedule, false, true);
  EXPECT(good.ok());
  EXPECT(good.accepted == 3 && good.rejected == 0);
  EXPECT(near(good.makespan, 4.0));  // m0: 1 + 3; m1: 1 + 1
  EXPECT(near(good.flowtime, 1.0 + 4.0 + 2.0));
  EXPECT(good.makespan >= good.makespan_bound);
  EXPECT(good.reference_makespan >= good.makespan_bound);
  EXPECT(good.reference_flowtime >= good.flowtime_bound);
  EXPECT(near(check_batch(etc, schedule, false, false).reference_flowtime,
              0.0));

  Schedule rejected = schedule;
  rejected[2] = Schedule::kRejected;
  EXPECT(!check_batch(etc, rejected, false, false).ok());
  const BatchQuality admitted = check_batch(etc, rejected, true, true);
  EXPECT(admitted.ok() && admitted.accepted == 2 && admitted.rejected == 1);
  EXPECT(near(admitted.makespan, 2.0));

  Schedule foreign = schedule;
  foreign[1] = 2;  // no such machine in the batch
  EXPECT(!check_batch(etc, foreign, true, false).ok());
  EXPECT(!check_batch(etc, Schedule(2, 0), false, false).ok());
  EXPECT(!check_batch(etc, Schedule(3), false, false).ok());  // unassigned
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time_from_nested_spans();
  test_decorators_forward_unchanged();
  test_batch_checks();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all expectations passed\n");
  return 0;
}
