// Maestro: the scheduler-agnostic submission/monitoring adapter.
//
// Paper Sec. 4.3: "the MuMMI workflow interfaces with Maestro, which provides
// a consistent API to schedule and monitor jobs. At the back-end, Maestro can
// interface with different job schedulers. By absorbing the changes and
// peculiarities of different job schedulers, Maestro allows MuMMI to be
// agnostic to the specific choice of scheduler."
//
// Two backends are provided:
//   - DirectBackend: submissions reach the fluxlite Scheduler immediately and
//     pump() runs inline (examples, tests, thread-executed runs);
//   - QueuedBackend: submissions flow through the event-driven QueueManager
//     with Q/R service times (campaign simulation, Fig. 6).
#pragma once

#include <functional>
#include <memory>

#include "sched/executor.hpp"
#include "sched/queue_manager.hpp"
#include "sched/scheduler.hpp"

namespace mummi::wm {

class Maestro {
 public:
  using JobCallback = sched::Scheduler::JobCallback;

  virtual ~Maestro() = default;

  /// Hands a job to the underlying scheduler.
  virtual void submit(sched::JobSpec spec) = 0;

  /// Gives the backend a chance to place queued work (no-op for event-driven
  /// backends, which self-schedule).
  virtual void poll() = 0;

  [[nodiscard]] virtual sched::Scheduler& scheduler() = 0;

  /// Monitoring: fires when jobs start/finish (any backend).
  void on_start(JobCallback fn) { scheduler().on_start(std::move(fn)); }
  void on_finish(JobCallback fn) { scheduler().on_finish(std::move(fn)); }
};

/// Immediate placement backend.
class DirectBackend final : public Maestro {
 public:
  explicit DirectBackend(sched::Scheduler& scheduler) : scheduler_(scheduler) {}

  void submit(sched::JobSpec spec) override {
    scheduler_.submit(std::move(spec));
    scheduler_.pump();
  }
  void poll() override { scheduler_.pump(); }
  [[nodiscard]] sched::Scheduler& scheduler() override { return scheduler_; }

 private:
  sched::Scheduler& scheduler_;
};

/// Event-driven backend with Q/R service-time modeling.
class QueuedBackend final : public Maestro {
 public:
  QueuedBackend(sched::Scheduler& scheduler, sched::QueueManager& queue)
      : scheduler_(scheduler), queue_(queue) {}

  void submit(sched::JobSpec spec) override { queue_.submit(std::move(spec)); }
  void poll() override { queue_.kick(); }
  [[nodiscard]] sched::Scheduler& scheduler() override { return scheduler_; }

 private:
  sched::Scheduler& scheduler_;
  sched::QueueManager& queue_;
};

}  // namespace mummi::wm
