// Cooperative cancellation for time-budgeted algorithm runs.
//
// The portfolio scheduler races several engines on a thread pool under one
// per-activation wall-clock budget. A per-engine `max_time_ms` bound is not
// enough to enforce it: an engine that starts late (queued behind others)
// would happily run its full slice past the activation deadline. A
// `CancellationSource` owns the shared stop signal — an explicit cancel
// flag plus an optional absolute deadline — and hands out cheap copyable
// `CancellationToken`s that `StopCondition` carries into every engine loop
// (see core/evolution.h). Engines poll `cancelled()` at the same points
// they poll their other bounds, so cancellation latency is one offspring
// pipeline step, not a thread interrupt.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/stopwatch.h"

namespace gridsched {

namespace detail {
struct CancelState {
  std::atomic<bool> cancelled{false};
  // Absolute steady-clock deadline in nanoseconds since epoch; the maximum
  // value means "no deadline". Written only by the owning source.
  std::atomic<std::int64_t> deadline_ns{
      std::numeric_limits<std::int64_t>::max()};

  [[nodiscard]] bool expired() const noexcept {
    const std::int64_t deadline =
        deadline_ns.load(std::memory_order_relaxed);
    if (cancelled.load(std::memory_order_relaxed)) return true;
    if (deadline == std::numeric_limits<std::int64_t>::max()) return false;
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Stopwatch::clock::now().time_since_epoch())
                         .count();
    return now >= deadline;
  }
};
}  // namespace detail

/// Read-only view of a cancellation source. Default-constructed tokens are
/// invalid and never report cancellation, so a plain `StopCondition` keeps
/// its old behaviour.
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// True once the source was cancelled or its deadline passed.
  [[nodiscard]] bool cancelled() const noexcept {
    return state_ != nullptr && state_->expired();
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<const detail::CancelState> state) noexcept
      : state_(std::move(state)) {}

  std::shared_ptr<const detail::CancelState> state_;
};

/// Owner of the stop signal. Copies share the same underlying state.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  [[nodiscard]] CancellationToken token() const noexcept {
    return CancellationToken(state_);
  }

  /// Trips the cancel flag; every token reports cancelled from now on.
  void request_cancel() noexcept {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Arms (or re-arms) an absolute deadline `ms` from now. Tokens report
  /// cancelled once it passes, with no further action from the owner. The
  /// deadline saturates: a delay past the clock's int64 range (or NaN)
  /// means "no deadline", and a negative delay one that already passed.
  void set_deadline_in_ms(double ms) noexcept {
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Stopwatch::clock::now().time_since_epoch())
                         .count();
    const double delay_ns = ms * 1e6;
    std::int64_t deadline = kNever;
    if (delay_ns < static_cast<double>(kNever - now)) {
      deadline = delay_ns > 0 ? now + static_cast<std::int64_t>(delay_ns)
                              : now;
    }
    state_->deadline_ns.store(deadline, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_->expired();
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace gridsched
