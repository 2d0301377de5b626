#include "sched/scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace mummi::sched {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending:   return "pending";
    case JobState::kRunning:   return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed:    return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

Scheduler::Scheduler(ClusterSpec cluster, MatchPolicy policy,
                     const util::Clock& clock)
    : graph_(cluster), matcher_(make_matcher(policy)), clock_(clock) {
  // Match counters are per-policy so the Sec. 5.2 traversal-cost story is
  // visible straight from the registry.
  const std::string match_prefix = "sched.match." + matcher_->name();
  tm_.submitted = &obs::counter("sched.submitted");
  tm_.started = &obs::counter("sched.started");
  tm_.completed = &obs::counter("sched.completed");
  tm_.failed = &obs::counter("sched.failed");
  tm_.cancelled = &obs::counter("sched.cancelled");
  tm_.match_attempts = &obs::counter(match_prefix + ".attempts");
  tm_.match_visits = &obs::counter(match_prefix + ".visits");
  tm_.queue_depth = &obs::gauge("sched.queue_depth");
  tm_.running = &obs::gauge("sched.running");
  tm_.queue_wait_s = &obs::histogram("sched.queue_wait_s", 0.0, 7200.0, 72);
}

void Scheduler::update_depth_gauges() {
  tm_.queue_depth->set(static_cast<double>(pending_count()));
  tm_.running->set(static_cast<double>(running_));
}

JobId Scheduler::submit(JobSpec spec) {
  const JobId id = next_id_++;
  Job job;
  job.id = id;
  job.spec = std::move(spec);
  job.state = JobState::kPending;
  job.submit_time = clock_.now();
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  tm_.submitted->inc();
  update_depth_gauges();
  return id;
}

Job& Scheduler::job_mut(JobId id) {
  auto it = jobs_.find(id);
  MUMMI_CHECK_MSG(it != jobs_.end(), "unknown job id");
  return it->second;
}

const Job& Scheduler::job(JobId id) const {
  auto it = jobs_.find(id);
  MUMMI_CHECK_MSG(it != jobs_.end(), "unknown job id");
  return it->second;
}

void Scheduler::start_job(Job& job, Allocation alloc) {
  graph_.allocate(alloc);
  job.alloc = std::move(alloc);
  job.state = JobState::kRunning;
  job.start_time = clock_.now();
  ++running_;
  tm_.started->inc();
  tm_.queue_wait_s->observe(job.start_time - job.submit_time);
  update_depth_gauges();
  for (const auto& fn : start_callbacks_) fn(job);
}

Scheduler::PumpResult Scheduler::pump_one() {
  PumpResult result;
  // Skip cancelled tombstones at the head.
  while (!queue_.empty() &&
         jobs_.at(queue_.front()).state != JobState::kPending) {
    queue_.pop_front();
    --cancelled_queued_;
  }
  if (queue_.empty()) return result;

  result.attempted = true;
  Job& head = job_mut(queue_.front());
  const std::uint64_t before = matcher_->visits();
  auto alloc = matcher_->match(graph_, head.spec.request);
  result.visits = matcher_->visits() - before;
  tm_.match_attempts->inc();
  tm_.match_visits->inc(result.visits);
  if (!alloc) return result;  // FCFS: head blocks; no backfilling
  queue_.pop_front();
  start_job(head, std::move(*alloc));
  result.started = head.id;
  return result;
}

std::vector<JobId> Scheduler::pump(std::size_t max_matches) {
  std::vector<JobId> started;
  for (std::size_t i = 0; i < max_matches; ++i) {
    const PumpResult r = pump_one();
    if (r.started == kInvalidJob) break;
    started.push_back(r.started);
  }
  return started;
}

void Scheduler::complete(JobId id, bool success) {
  Job& job = job_mut(id);
  MUMMI_CHECK_MSG(job.state == JobState::kRunning,
                  "complete() on non-running job");
  graph_.release(job.alloc);
  job.alloc = Allocation{};
  job.state = success ? JobState::kCompleted : JobState::kFailed;
  job.end_time = clock_.now();
  --running_;
  (success ? tm_.completed : tm_.failed)->inc();
  update_depth_gauges();
  for (const auto& fn : finish_callbacks_) fn(job);
}

bool Scheduler::cancel(JobId id) {
  Job& job = job_mut(id);
  if (job.state == JobState::kPending) {
    job.state = JobState::kCancelled;  // queue tombstone skipped in pump
    job.end_time = clock_.now();
    ++cancelled_queued_;
    tm_.cancelled->inc();
    update_depth_gauges();
    for (const auto& fn : finish_callbacks_) fn(job);
    return true;
  }
  if (job.state == JobState::kRunning) {
    graph_.release(job.alloc);
    job.alloc = Allocation{};
    job.state = JobState::kCancelled;
    job.end_time = clock_.now();
    --running_;
    tm_.cancelled->inc();
    update_depth_gauges();
    for (const auto& fn : finish_callbacks_) fn(job);
    return true;
  }
  return false;
}

std::vector<JobId> Scheduler::fail_node(int node) {
  // Drain first: resubmissions triggered by the finish callbacks below must
  // not be placed back onto the dead node.
  graph_.drain(node);
  std::vector<JobId> killed;
  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    for (const auto& slot : job.alloc.slots) {
      if (slot.node == node) {
        killed.push_back(id);
        break;
      }
    }
  }
  std::sort(killed.begin(), killed.end());
  for (const JobId id : killed) {
    job_mut(id).killed_by_node = true;  // before callbacks: attribution
    complete(id, /*success=*/false);
  }
  return killed;
}

std::vector<JobId> Scheduler::active_jobs() const {
  std::vector<JobId> out;
  for (const auto& [id, job] : jobs_)
    if (job.state == JobState::kPending || job.state == JobState::kRunning)
      out.push_back(id);
  return out;
}

std::unordered_map<std::string, int> Scheduler::running_by_type() const {
  std::unordered_map<std::string, int> out;
  for (const auto& [_, job] : jobs_)
    if (job.state == JobState::kRunning) ++out[job.spec.type];
  return out;
}

std::unordered_map<std::string, int> Scheduler::pending_by_type() const {
  std::unordered_map<std::string, int> out;
  for (const auto& [_, job] : jobs_)
    if (job.state == JobState::kPending) ++out[job.spec.type];
  return out;
}

}  // namespace mummi::sched
