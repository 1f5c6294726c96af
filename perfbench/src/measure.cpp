#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

bool tail_supported(std::size_t n, double p, std::size_t min_beyond) {
  // Integer form of n * (1 - p/100) >= min_beyond, exact for the
  // percentiles the benchmark asks for (p in whole tenths).
  const auto tenths = static_cast<long long>(std::llround(p * 10.0));
  return static_cast<long long>(n) * (1000 - tenths) >=
         static_cast<long long>(min_beyond) * 1000;
}

double tail_percentile(const std::vector<double>& samples, double p) {
  if (p > 50.0 && !tail_supported(samples.size(), p)) {
    throw std::invalid_argument(
        "tail_percentile: p" + std::to_string(p) + " needs " +
        std::to_string(kMinTailSamples) + " samples beyond it, have " +
        std::to_string(samples.size()) + " samples");
  }
  return percentile(samples, p);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
