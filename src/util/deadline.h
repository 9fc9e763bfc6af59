// Deadlines, cooperative cancellation, and retry backoff.
//
// The failure-domain layer's clock-facing primitives. Everything here is
// built for determinism-under-test: time flows through an injectable
// `Clock`, so tests drive a `ManualClock` and the production paths use the
// process-wide monotonic `Clock::Real()`. A `Deadline` is a cheap value
// (copyable, a couple of words) that query code checks cooperatively at
// natural preemption points — block decode, segment scatter —
// and `RetryPolicy` computes capped exponential backoff whose jitter is
// drawn from a SEEDED Rng stream, so a retry schedule is a pure function
// of (policy, attempt) and chaos tests replay bit-identically.
//
// Cancellation is sticky and shared: the first expiry check that observes
// the deadline passed flips a shared atomic flag, so later segment
// evaluations sharing the same Deadline cancel on a single relaxed load
// without ever touching the clock again. Expired() never un-expires.
#ifndef TOPPRIV_UTIL_DEADLINE_H_
#define TOPPRIV_UTIL_DEADLINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

namespace toppriv::util {

/// Injectable time source. Nanosecond monotonic reads plus a sleep hook so
/// backoff waits are also virtualized (a ManualClock "sleeps" by advancing
/// itself, keeping retry tests instant and deterministic).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual int64_t NowNanos() const = 0;
  /// Blocks (or simulates blocking) for `nanos` nanoseconds.
  virtual void SleepFor(int64_t nanos) = 0;

  /// The process-wide real monotonic clock (steady_clock under the hood).
  static Clock* Real();
};

/// Test clock: time only moves when the test says so. Thread-safe — fault
/// schedules advance it from one thread while query threads read it.
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t start_nanos = 0) : now_nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    return now_nanos_.load(std::memory_order_relaxed);
  }
  /// SleepFor advances the clock instead of blocking, so code that waits
  /// out a backoff under a ManualClock completes immediately.
  void SleepFor(int64_t nanos) override { Advance(nanos); }

  void Advance(int64_t nanos) {
    now_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> now_nanos_;
};

/// A point in time after which cooperative work should stop, plus a shared
/// sticky cancel flag. Copies of a Deadline share the flag: once any copy
/// observes expiry (or Cancel() is called), every copy's Expired() returns
/// true on a single atomic load — later segment evaluations stop without
/// re-reading the clock.
///
/// A default-constructed Deadline never expires and never reads the clock,
/// so passing one through the hot path costs one relaxed load per check.
class Deadline {
 public:
  /// Never expires (but can still be Cancel()ed).
  Deadline()
      : clock_(nullptr),
        deadline_nanos_(std::numeric_limits<int64_t>::max()),
        cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Expires `seconds` from now on `clock` (Clock::Real() by default).
  static Deadline After(double seconds, Clock* clock = nullptr);
  /// Alias for the default constructor, for call-site readability.
  static Deadline Infinite() { return Deadline(); }

  /// True once the deadline has passed or Cancel() was called. Sticky:
  /// the first true is latched into the shared flag.
  bool Expired() const {
    if (cancelled_->load(std::memory_order_relaxed)) return true;
    if (clock_ == nullptr) return false;
    if (clock_->NowNanos() < deadline_nanos_) return false;
    cancelled_->store(true, std::memory_order_relaxed);
    return true;
  }

  /// Latches the shared cancel flag directly (e.g. one step of a scatter
  /// failed and the rest should stop).
  void Cancel() const { cancelled_->store(true, std::memory_order_relaxed); }

  /// Whether this deadline can ever expire on its own (has a clock).
  bool finite() const { return clock_ != nullptr; }

 private:
  Deadline(Clock* clock, int64_t deadline_nanos)
      : clock_(clock),
        deadline_nanos_(deadline_nanos),
        cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  Clock* clock_;  // null = infinite
  int64_t deadline_nanos_;
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Capped exponential backoff with deterministic seeded jitter.
///
/// BackoffNanos(attempt) is a pure function of the policy fields and the
/// attempt number: base = initial * multiplier^attempt clamped to max,
/// then scaled by a jitter factor drawn from Rng(seed).Fork(attempt), so
/// two runs with the same policy see the same schedule and the chaos
/// harness can assert on exact repair timelines.
struct RetryPolicy {
  int max_attempts = 5;
  int64_t initial_backoff_nanos = 1'000'000;     // 1ms
  int64_t max_backoff_nanos = 1'000'000'000;     // 1s
  double multiplier = 2.0;
  /// Jitter fraction in [0, 1): the computed backoff is scaled by a factor
  /// uniform in [1 - jitter, 1 + jitter]. Zero disables jitter.
  double jitter = 0.2;
  uint64_t seed = 1;

  /// Backoff before retry number `attempt` (0-based). Deterministic.
  int64_t BackoffNanos(int attempt) const;
};

}  // namespace toppriv::util

#endif  // TOPPRIV_UTIL_DEADLINE_H_
