// Minimal discrete-event simulation engine for the deployment studies
// (§5.4-§5.6): a time-ordered event queue with deterministic tie-breaking
// (insertion order) so every simulation replays identically under a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace lepton::storage {

class EventSim {
 public:
  using Fn = std::function<void()>;

  void at(double t, Fn fn) {
    queue_.push(Event{t, seq_++, std::move(fn)});
  }
  void after(double dt, Fn fn) { at(now_ + dt, std::move(fn)); }
  double now() const { return now_; }

  // Runs events until the queue empties or simulated time passes t_end.
  void run_until(double t_end) {
    while (!queue_.empty() && queue_.top().t <= t_end) {
      Event e = queue_.top();
      queue_.pop();
      now_ = e.t;
      e.fn();
    }
    now_ = t_end;
  }

 private:
  struct Event {
    double t;
    std::uint64_t seq;
    Fn fn;
    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  double now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace lepton::storage
