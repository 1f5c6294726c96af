#include "obs/bench_report.h"

#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <iostream>
#include <ostream>

#include "obs/json.h"

namespace gridsched::obs {

JsonValue histogram_to_json(const LatencyHistogram& histogram) {
  JsonValue::Array buckets;
  const auto& counts = histogram.bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    JsonValue::Array pair;
    pair.emplace_back(JsonValue(static_cast<double>(i)));
    pair.emplace_back(JsonValue(static_cast<double>(counts[i])));
    buckets.emplace_back(JsonValue(std::move(pair)));
  }
  JsonValue out;
  out.set("min", JsonValue(LatencyHistogram::kMinValue));
  out.set("max", JsonValue(LatencyHistogram::kMaxValue));
  out.set("num_buckets",
          JsonValue(static_cast<double>(LatencyHistogram::kBuckets)));
  out.set("count", JsonValue(static_cast<double>(histogram.count())));
  out.set("overflow",
          JsonValue(static_cast<double>(histogram.overflow_count())));
  out.set("buckets", JsonValue(std::move(buckets)));
  return out;
}

std::optional<LatencyHistogram> histogram_from_json(const JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  const JsonValue* min = value.find("min");
  const JsonValue* max = value.find("max");
  const JsonValue* num_buckets = value.find("num_buckets");
  const JsonValue* count = value.find("count");
  const JsonValue* overflow = value.find("overflow");
  const JsonValue* buckets = value.find("buckets");
  if (min == nullptr || !min->is_number() ||
      min->as_number() != LatencyHistogram::kMinValue ||
      max == nullptr || !max->is_number() ||
      max->as_number() != LatencyHistogram::kMaxValue ||
      num_buckets == nullptr || !num_buckets->is_number() ||
      num_buckets->as_number() !=
          static_cast<double>(LatencyHistogram::kBuckets) ||
      count == nullptr || !count->is_number() || overflow == nullptr ||
      !overflow->is_number() || buckets == nullptr || !buckets->is_array()) {
    return std::nullopt;
  }
  std::array<std::uint64_t, LatencyHistogram::kBuckets> counts{};
  std::uint64_t total = 0;
  for (const JsonValue& pair : buckets->as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2 ||
        !pair.as_array()[0].is_number() || !pair.as_array()[1].is_number()) {
      return std::nullopt;
    }
    const double index = pair.as_array()[0].as_number();
    const double bucket_count = pair.as_array()[1].as_number();
    if (index < 0 || index >= static_cast<double>(counts.size()) ||
        index != std::floor(index) || bucket_count < 0 ||
        bucket_count != std::floor(bucket_count)) {
      return std::nullopt;
    }
    counts[static_cast<std::size_t>(index)] =
        static_cast<std::uint64_t>(bucket_count);
    total += static_cast<std::uint64_t>(bucket_count);
  }
  if (total != static_cast<std::uint64_t>(count->as_number())) {
    return std::nullopt;
  }
  const auto overflow_count =
      static_cast<std::uint64_t>(overflow->as_number());
  if (overflow_count > counts[LatencyHistogram::kBuckets - 1]) {
    return std::nullopt;
  }
  return LatencyHistogram::from_buckets(counts, overflow_count);
}

void BenchReport::write(std::ostream& out) const {
  JsonValue root;
  root.set("bench", JsonValue(bench));
  root.set("ok", JsonValue(ok));
  JsonValue::Array verdict_values;
  verdict_values.reserve(verdicts.size());
  for (const BenchVerdict& verdict : verdicts) {
    JsonValue entry;
    entry.set("name", JsonValue(verdict.name));
    entry.set("ok", JsonValue(verdict.ok));
    JsonValue::Object metrics;
    metrics.reserve(verdict.metrics.size());
    for (const auto& [name, value] : verdict.metrics) {
      metrics.emplace_back(
          name, std::isfinite(value) ? JsonValue(value) : JsonValue());
    }
    entry.set("metrics", JsonValue(std::move(metrics)));
    if (!verdict.histograms.empty()) {
      JsonValue::Object histograms;
      histograms.reserve(verdict.histograms.size());
      for (const auto& [name, histogram] : verdict.histograms) {
        histograms.emplace_back(name, histogram_to_json(histogram));
      }
      entry.set("histograms", JsonValue(std::move(histograms)));
    }
    verdict_values.emplace_back(std::move(entry));
  }
  root.set("verdicts", JsonValue(std::move(verdict_values)));
  out << root.dump(2) << "\n";
}

void add_gap_metric(BenchVerdict& verdict, const std::string& prefix,
                    double objective, double lower_bound) {
  const double gap =
      lower_bound > 0.0 ? 100.0 * (objective - lower_bound) / lower_bound
                        : std::numeric_limits<double>::quiet_NaN();
  verdict.metrics.emplace_back(prefix + "_gap_pct", gap);
  verdict.metrics.emplace_back(
      prefix + "_lower_bound",
      lower_bound > 0.0 ? lower_bound
                        : std::numeric_limits<double>::quiet_NaN());
}

bool BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "failed to open " << path << " for writing\n";
    return false;
  }
  write(out);
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace gridsched::obs
