// Per-session cancellation and deadline (§3.4, §5.7).
//
// Production blockservers time-box every conversion: a compress that blows
// its latency budget is aborted and the chunk falls back to Deflate, and a
// decompress that stalls must not pin worker threads. RunControl is that
// budget made explicit: a cancellation flag plus a monotonic-clock deadline,
// shared by reference between the caller and every segment worker of one
// session. Workers poll it at MCU-row granularity; a trip surfaces through
// the §6.2 taxonomy as kTimeout.
//
// Any thread may cancel or (re)set the deadline while the session runs —
// both fields are atomics. The same RunControl must not be reused across
// concurrent sessions (a trip would stop them all, which is occasionally
// exactly what a draining server wants).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace lepton {

class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  // ---- caller side -------------------------------------------------------
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }

  void set_deadline(Clock::time_point tp) {
    deadline_ns_.store(to_ns(tp), std::memory_order_relaxed);
  }
  void set_deadline_after(Clock::duration budget) {
    set_deadline(Clock::now() + budget);
  }
  void clear_deadline() {
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }
  void reset() {
    cancel_.store(false, std::memory_order_relaxed);
    clear_deadline();
  }

  // ---- worker side -------------------------------------------------------
  // True once cancelled or past the deadline. The common case (no deadline,
  // not cancelled) is two relaxed loads and no clock read, so polling every
  // MCU row costs nothing measurable.
  bool tripped() const {
    if (cancel_.load(std::memory_order_relaxed)) return true;
    std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == kNoDeadline) return false;
    return to_ns(Clock::now()) >= d;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  static std::int64_t to_ns(Clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
        .count();
  }

  std::atomic<bool> cancel_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace lepton
