#include "event/sim_engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mummi::event {

void SimEngine::schedule_at(double t, EventFn fn) {
  MUMMI_CHECK_MSG(t >= clock_.now(), "cannot schedule events in the past");
  heap_.push_back(Entry{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void SimEngine::schedule_after(double dt, EventFn fn) {
  MUMMI_CHECK_MSG(dt >= 0.0, "negative delay");
  schedule_at(clock_.now() + dt, std::move(fn));
}

bool SimEngine::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  // Move the callback out first: it may schedule events and so reallocate
  // the heap while it runs.
  EventFn fn = std::move(heap_.back().fn);
  clock_.set(heap_.back().time);
  heap_.pop_back();
  fn();
  return true;
}

std::size_t SimEngine::run_until(double horizon) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().time <= horizon) {
    step();
    ++executed;
  }
  if (clock_.now() < horizon) clock_.set(horizon);
  return executed;
}

std::size_t SimEngine::run() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

}  // namespace mummi::event
