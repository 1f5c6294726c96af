#include "decorators.h"

#include <utility>

#include "measure.h"

namespace perfbench {

using gridsched::BatchContext;
using gridsched::EtcMatrix;
using gridsched::Schedule;

TimedScheduler::TimedScheduler(gridsched::BatchScheduler& inner,
                               const char* span_name, SpanRecorder* spans,
                               Check check, std::size_t expected_calls)
    : inner_(inner),
      span_name_(span_name),
      spans_(spans),
      check_(std::move(check)) {
  call_ms_.reserve(expected_calls);
}

template <typename Call>
Schedule TimedScheduler::forward(const EtcMatrix& etc, Call&& call) {
  Schedule schedule;
  {
    ScopedSpan span(spans_, span_name_);
    const double start = now_s();
    schedule = call();
    call_ms_.push_back((now_s() - start) * 1e3);
  }
  if (check_) {
    ScopedSpan span(spans_, "bench.check");
    const double start = now_s();
    check_(etc, schedule);
    check_s_ += now_s() - start;
  }
  return schedule;
}

Schedule TimedScheduler::schedule_batch(const EtcMatrix& etc) {
  return forward(etc, [&] { return inner_.schedule_batch(etc); });
}

Schedule TimedScheduler::schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& context) {
  return forward(etc, [&] { return inner_.schedule_batch(etc, context); });
}

bool TracedStream::next_chunk(double until,
                              std::vector<gridsched::TraceJob>& out) {
  ScopedSpan span(spans_, "workload.next_chunk");
  const std::size_t before = out.size();
  const bool more = inner_.next_chunk(until, out);
  rows_ += out.size() - before;
  return more;
}

std::vector<gridsched::TraceJob> TracedSource::generate(
    double horizon, gridsched::Rng& arrival_rng,
    gridsched::Rng& workload_rng) {
  ScopedSpan span(spans_, "workload.generate");
  return inner_.generate(horizon, arrival_rng, workload_rng);
}

}  // namespace perfbench
