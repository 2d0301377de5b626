// Job payload execution backends.
//
// The scheduler decides *where and when* a job runs; an Executor decides
// *how*. Three backends cover the library's modes:
//   - ThreadExecutor: really runs registered payload functions on a thread
//     pool (examples and integration tests run mini MD this way);
//   - SimExecutor: discrete-event completion after a modeled duration (the
//     campaign simulator);
//   - InlineExecutor: synchronous execution (unit tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "event/sim_engine.hpp"
#include "sched/job.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi::sched {

/// Called exactly once when a launched payload finishes; the argument is
/// success/failure.
using CompletionFn = std::function<void(bool)>;

class Executor {
 public:
  virtual ~Executor() = default;
  /// Begins executing `job`'s payload. `done` must eventually be invoked.
  virtual void launch(const Job& job, CompletionFn done) = 0;
};

/// Payload registry: maps job types to functions returning success.
class PayloadRegistry {
 public:
  using PayloadFn = std::function<bool(const Job&)>;

  void register_type(const std::string& type, PayloadFn fn);
  [[nodiscard]] const PayloadFn& payload_for(const std::string& type) const;
  [[nodiscard]] bool has(const std::string& type) const;

 private:
  std::unordered_map<std::string, PayloadFn> payloads_;
};

/// Runs payloads synchronously in launch() — deterministic unit testing.
class InlineExecutor final : public Executor {
 public:
  explicit InlineExecutor(PayloadRegistry registry)
      : registry_(std::move(registry)) {}
  void launch(const Job& job, CompletionFn done) override;

 private:
  PayloadRegistry registry_;
};

/// Runs payloads on a thread pool; completion fires from the worker thread.
/// Callers must make their completion handling thread-safe.
class ThreadExecutor final : public Executor {
 public:
  ThreadExecutor(util::ThreadPool& pool, PayloadRegistry registry)
      : pool_(pool), registry_(std::move(registry)) {}
  void launch(const Job& job, CompletionFn done) override;

 private:
  util::ThreadPool& pool_;
  PayloadRegistry registry_;
};

/// Completes jobs in virtual time. Duration comes from the job's
/// est_duration unless a DurationModel overrides it; a failure probability
/// models flaky hardware/software for resilience experiments.
///
/// Silent failure modes for supervision experiments (paper Sec. 4.4 — jobs
/// that "hang without exiting" or straggle far past their expectation):
///   - inject_hangs(n): the next n launches swallow their completion — `done`
///     is never invoked and the job occupies its slot until something above
///     (the watchdog) cancels it;
///   - inject_stragglers(n, f): the next n launches take f times their
///     modeled duration;
///   - set_poison(pred): jobs matching the predicate always fail, regardless
///     of failure_prob — deterministic poison work for quarantine tests.
/// Injections consume no RNG draws beyond the normal failure draw (hangs
/// skip even that), so arming them does not perturb the failure stream of
/// unaffected jobs.
class SimExecutor final : public Executor {
 public:
  /// Returns the duration (seconds) a job should take.
  using DurationModel = std::function<double(const Job&)>;

  SimExecutor(event::SimEngine& engine, util::Rng rng,
              double failure_prob = 0.0);

  void set_duration_model(DurationModel model) { model_ = std::move(model); }

  void inject_hangs(int n) { pending_hangs_ += n; }
  void inject_stragglers(int n, double factor) {
    pending_stragglers_ += n;
    straggler_factor_ = factor;
  }
  void set_poison(std::function<bool(const Job&)> pred) {
    poison_ = std::move(pred);
  }

  /// True while `id` was launched-and-hung and never cancelled/completed.
  /// Progress accounting uses this: a hung sim produced nothing.
  [[nodiscard]] bool is_hung(JobId id) const { return hung_.count(id) > 0; }
  [[nodiscard]] const std::set<JobId>& hung_jobs() const { return hung_; }
  /// Forgets a hung job (after the watchdog cancels it).
  void clear_hung(JobId id) { hung_.erase(id); }

  [[nodiscard]] std::uint64_t hangs_injected() const { return hangs_injected_; }
  [[nodiscard]] std::uint64_t stragglers_injected() const {
    return stragglers_injected_;
  }

  void launch(const Job& job, CompletionFn done) override;

 private:
  event::SimEngine& engine_;
  util::Rng rng_;
  double failure_prob_;
  DurationModel model_;
  int pending_hangs_ = 0;
  int pending_stragglers_ = 0;
  double straggler_factor_ = 4.0;
  std::function<bool(const Job&)> poison_;
  std::set<JobId> hung_;
  std::uint64_t hangs_injected_ = 0;
  std::uint64_t stragglers_injected_ = 0;
};

}  // namespace mummi::sched
