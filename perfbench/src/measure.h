// Timing and summary statistics for the benchmark.
//
// Percentile rule: a timing is reported as its median and as a tail
// percentile only when at least `kMinTailSamples` samples lie beyond that
// percentile — a p95 therefore needs 200 samples, and asking for it with
// fewer throws instead of silently reporting the maximum.
//
// These helpers deliberately do not reuse common/stats or
// common/stopwatch: a change to the code under test must not change how
// it is measured.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// Seconds on the monotonic clock (arbitrary epoch).
[[nodiscard]] inline double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks (the "type 7" estimator):
/// p = 0 is the minimum, p = 100 the maximum. Throws on an empty sample
/// or p outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double median(const std::vector<double>& samples);

/// True when at least `min_beyond` of `n` samples lie above percentile p,
/// i.e. n * (1 - p/100) >= min_beyond.
[[nodiscard]] bool tail_supported(std::size_t n, double p,
                                  std::size_t min_beyond = kMinTailSamples);

/// percentile(), but throws std::invalid_argument when the tail rule
/// above does not hold for p > 50.
[[nodiscard]] double tail_percentile(const std::vector<double>& samples,
                                     double p);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
