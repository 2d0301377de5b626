// fluxlite: a single-user workload manager in the spirit of Flux.
//
// Paper Sec. 4.3: Flux's single-user mode lets MuMMI instantiate an
// "isolated HPC system" within a batch allocation; MuMMI selects
// "throughput-oriented options for queuing (first come, first served with no
// backfilling) as well as resource matching (low resource ID first)".
// Scheduler implements exactly that: an FCFS no-backfill queue over a
// ResourceGraph with a pluggable match policy, job lifecycle tracking, and
// node drain for failure resilience.
//
// Scheduler is the *logical* core: every operation completes immediately.
// Service-time behaviour (the sync/async Q<->R dynamics of Fig. 6) is layered
// on top by QueueManager.
#pragma once

#include <functional>
#include <deque>
#include <unordered_map>
#include <vector>

#include "resgraph/matcher.hpp"
#include "sched/job.hpp"
#include "util/clock.hpp"

namespace mummi::obs {
class Counter;
class Gauge;
class HistogramMetric;
}  // namespace mummi::obs

namespace mummi::sched {

class Scheduler {
 public:
  using JobCallback = std::function<void(const Job&)>;

  Scheduler(ClusterSpec cluster, MatchPolicy policy, const util::Clock& clock);

  /// Enqueues a job (FCFS position). Does not try to place it — call pump().
  JobId submit(JobSpec spec);

  /// Attempts to start queued jobs in FCFS order, stopping at the first job
  /// that does not fit (no backfilling) or after `max_matches` placements.
  /// Returns ids of jobs started.
  std::vector<JobId> pump(std::size_t max_matches = SIZE_MAX);

  /// Like pump() but for exactly one match *attempt*; reports traversal cost.
  struct PumpResult {
    JobId started = kInvalidJob;   // kInvalidJob if nothing started
    bool attempted = false;        // false when the queue was empty
    std::uint64_t visits = 0;      // matcher vertices inspected
  };
  PumpResult pump_one();

  /// Marks a running job finished. Releases resources. `success` selects
  /// kCompleted vs kFailed.
  void complete(JobId id, bool success);

  /// Cancels a pending or running job; releases resources if running.
  /// Returns false if the job is already finished.
  bool cancel(JobId id);

  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] JobState state(JobId id) const { return job(id).state; }

  [[nodiscard]] std::size_t pending_count() const {
    return queue_.size() - cancelled_queued_;
  }
  [[nodiscard]] std::size_t running_count() const { return running_; }

  /// Ids of all jobs currently pending or running (for end-of-allocation
  /// teardown).
  [[nodiscard]] std::vector<JobId> active_jobs() const;

  /// Counts of running jobs by spec.type — the per-type curves of Fig. 6.
  [[nodiscard]] std::unordered_map<std::string, int> running_by_type() const;
  [[nodiscard]] std::unordered_map<std::string, int> pending_by_type() const;

  /// Resilience: drained nodes accept no new jobs; running jobs continue
  /// (paper Sec. 4.4).
  void drain_node(int node) { graph_.drain(node); }
  void undrain_node(int node) { graph_.undrain(node); }

  /// Hard node loss (distinct from the benign drain): every job with an
  /// allocation touching `node` fails immediately — finish callbacks fire so
  /// the WM can resubmit under its max_restarts policy — and the node is
  /// drained so resubmissions land elsewhere. Returns the killed job ids in
  /// ascending order (deterministic under any map iteration order).
  std::vector<JobId> fail_node(int node);

  /// Returns a failed/drained node to service.
  void recover_node(int node) { graph_.undrain(node); }

  [[nodiscard]] ResourceGraph& graph() { return graph_; }
  [[nodiscard]] const ResourceGraph& graph() const { return graph_; }
  [[nodiscard]] Matcher& matcher() { return *matcher_; }

  /// Fires when a job transitions to running / to a terminal state.
  void on_start(JobCallback fn) { start_callbacks_.push_back(std::move(fn)); }
  void on_finish(JobCallback fn) { finish_callbacks_.push_back(std::move(fn)); }

 private:
  Job& job_mut(JobId id);
  void start_job(Job& job, Allocation alloc);
  void update_depth_gauges();

  /// Registry handles (obs::MetricsRegistry; process-wide, shared by every
  /// scheduler instance, stable for the life of the process).
  struct Telemetry {
    obs::Counter* submitted = nullptr;
    obs::Counter* started = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* match_attempts = nullptr;  // per-policy
    obs::Counter* match_visits = nullptr;    // per-policy
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* running = nullptr;
    obs::HistogramMetric* queue_wait_s = nullptr;  // submit -> dispatch
  };

  ResourceGraph graph_;
  std::unique_ptr<Matcher> matcher_;
  const util::Clock& clock_;
  std::unordered_map<JobId, Job> jobs_;
  std::deque<JobId> queue_;
  /// Cancelled jobs still in `queue_`, dropped when they reach its head.
  std::size_t cancelled_queued_ = 0;
  std::size_t running_ = 0;
  JobId next_id_ = 1;
  std::vector<JobCallback> start_callbacks_;
  std::vector<JobCallback> finish_callbacks_;
  Telemetry tm_;
};

}  // namespace mummi::sched
