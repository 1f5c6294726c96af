#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "measure.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

int SpanRecorder::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_s(), 0.0, parent});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end - spans[i].start;
    self[i] += duration;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -= duration;
    }
  }
  return self;
}

std::string_view layer_of(std::string_view name) noexcept {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layers[std::string(layer_of(spans[i].name))] += self[i];
  }
  return layers;
}

double self_time_sum_without(const std::vector<Span>& spans,
                             std::string_view excluded) {
  double sum = 0.0;
  for (const auto& [layer, self] : layer_self_times(spans)) {
    if (layer != excluded) sum += self;
  }
  return sum;
}

double total_duration(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (name == span.name) total += span.end - span.start;
  }
  return total;
}

std::size_t span_count(const std::vector<Span>& spans, std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const Span& span) { return name == span.name; }));
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& span : spans) origin = std::min(origin, span.start);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", span.name,
                  static_cast<int>(layer_of(span.name).size()), span.name,
                  (span.start - origin) * 1e6, (span.end - span.start) * 1e6,
                  i, span.parent);
    out << buffer;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace perfbench
