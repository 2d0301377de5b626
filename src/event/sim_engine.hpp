// Discrete-event simulation engine.
//
// The campaign-scale experiments (Table 1, Figs. 3-8) ran for months on
// Summit; we reproduce their coordination-layer behaviour by driving the real
// WorkflowManager/scheduler/datastore/ML classes under a virtual clock.
// SimEngine is the event loop: schedule callbacks at absolute virtual times,
// run until quiescent or a horizon. This mirrors the "Flux emulated
// environment" the authors themselves used for the 670x matcher result.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/clock.hpp"

namespace mummi::event {

using EventFn = std::function<void()>;

class SimEngine {
 public:
  SimEngine() = default;

  /// The virtual clock; hand `&clock()` to components expecting util::Clock.
  [[nodiscard]] util::ManualClock& clock() { return clock_; }
  [[nodiscard]] double now() const { return clock_.now(); }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  /// Events at equal times fire in scheduling order.
  void schedule_at(double t, EventFn fn);

  /// Schedules `fn` after a delay (>= 0) from now().
  void schedule_after(double dt, EventFn fn);

  /// Runs events until the queue drains or virtual time would pass
  /// `horizon`. Returns the number of events executed. Events scheduled past
  /// the horizon stay queued; the clock is left at max(now(), horizon).
  std::size_t run_until(double horizon);

  /// Runs until the queue drains completely.
  std::size_t run();

  /// Executes only the next pending event (if any); returns whether one ran.
  bool step();

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;  // tie-break: FIFO within equal timestamps
    EventFn fn;
  };
  // Max-heap order for std::push_heap/pop_heap, so the front is the entry
  // with the smallest (time, seq).
  static bool later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  util::ManualClock clock_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mummi::event
