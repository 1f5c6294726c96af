// In-memory span recording for the traced run.
//
// A span is (name, start, end, parent). Spans are recorded on the calling
// thread only — the benchmark wraps the library's public entry points, it
// never reaches inside them — so they nest strictly and a layer's self
// time is its span's duration minus its children's durations. Spans stay
// in memory and are written once, as a Chrome trace, when the run ends.
//
// A span name is `<layer>.<call>`; the layer is everything before the
// first dot. Names must be string literals (only the pointer is stored).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds, monotonic clock
  double end = 0.0;
  int parent = -1;     // index into the span list; -1 = root
};

class SpanRecorder {
 public:
  /// Reserves room for `capacity` spans up front.
  explicit SpanRecorder(std::size_t capacity = 0);

  /// Opens a span whose parent is the innermost open span. Returns its id.
  int begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] bool balanced() const noexcept { return open_.empty(); }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self time of every span: its duration minus its direct children's.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string_view layer_of(std::string_view name) noexcept;

/// Self time summed per layer (seconds).
[[nodiscard]] std::map<std::string, double> layer_self_times(
    const std::vector<Span>& spans);

/// Sum of the per-layer self times of every layer but `excluded`. Over a
/// rep whose own stopwatch sits outside the spans, it equals the
/// stopwatch's reading minus the excluded layer's time, up to the timing
/// calls between spans; a gap no span covers makes it fall short.
[[nodiscard]] double self_time_sum_without(const std::vector<Span>& spans,
                                           std::string_view excluded);

/// Summed duration (seconds) and count of the spans named `name`.
[[nodiscard]] double total_duration(const std::vector<Span>& spans,
                                    std::string_view name);
[[nodiscard]] std::size_t span_count(const std::vector<Span>& spans,
                                     std::string_view name);

/// Writes the spans as Chrome-trace complete ("X") events, timestamps in
/// microseconds from the first span. Throws when the file cannot be
/// written.
void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
