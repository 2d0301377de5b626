// FaultInjector: applies a FaultPlan to live components in virtual time.
//
// The injector is the seam between the deterministic fault schedule and the
// layers the paper says fail (Sec. 4.4):
//   - scheduler: node crashes kill the node's running jobs (fail_node) and
//     later recovery returns it to service;
//   - executor: silent hangs and stragglers alter the next launches.
//
// arm() schedules every plan event on a SimEngine; apply() is also public so
// unit tests can fire events directly without an engine.
#pragma once

#include <vector>

#include "event/sim_engine.hpp"
#include "fault/fault_plan.hpp"
#include "sched/executor.hpp"
#include "sched/scheduler.hpp"

namespace mummi::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Targets are optional: events for unbound targets are counted but no-op.
  void bind_scheduler(sched::Scheduler* scheduler) { scheduler_ = scheduler; }
  /// Hang/straggler events need the simulated executor (they manipulate
  /// launches, not placed resources).
  void bind_executor(sched::SimExecutor* executor) { executor_ = executor; }

  /// Schedules every event at plan-time offset from engine.now(). The
  /// injector must outlive the engine run. Validates the plan first.
  void arm(event::SimEngine& engine);

  /// Applies one event immediately.
  void apply(const FaultEvent& ev);

  /// Observability: every event applied so far, in application order.
  [[nodiscard]] const std::vector<FaultEvent>& fired() const { return fired_; }
  [[nodiscard]] std::size_t jobs_killed() const { return jobs_killed_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  sched::Scheduler* scheduler_ = nullptr;
  sched::SimExecutor* executor_ = nullptr;
  std::vector<FaultEvent> fired_;
  std::size_t jobs_killed_ = 0;
};

}  // namespace mummi::fault
