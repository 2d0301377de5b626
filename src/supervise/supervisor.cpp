#include "supervise/supervisor.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/metrics.hpp"

namespace mummi::supervise {

namespace {
// Deadlines for a job with timing {mean, sigma} and duration hint est, as
// elapsed seconds since its start, fixed when it starts:
//   base = max(mean, est)
//   soft = kSoftFactor * base + kSoftSigmas * sigma
//   hard = kHardFactor * base + kHardSigmas * sigma
constexpr double kSoftFactor = 2.0;
constexpr double kSoftSigmas = 4.0;
constexpr double kHardFactor = 4.0;
constexpr double kHardSigmas = 6.0;

constexpr int kMaxSpeculations = 64;  // per supervisor (one allocation)
}  // namespace

void SupervisionStats::merge(const SupervisionStats& o) {
  hangs_detected += o.hangs_detected;
  speculations += o.speculations;
  spec_wins += o.spec_wins;
  spec_losses += o.spec_losses;
  quarantined += o.quarantined;
  node_probations += o.node_probations;
  canaries_ok += o.canaries_ok;
  canaries_failed += o.canaries_failed;
  if (o.first_quarantine_s >= 0.0 &&
      (first_quarantine_s < 0.0 || o.first_quarantine_s < first_quarantine_s))
    first_quarantine_s = o.first_quarantine_s;
}

Supervisor::Supervisor(sched::Scheduler& scheduler, const util::Clock& clock,
                       WorkloadControl& control, SuperviseConfig cfg)
    : scheduler_(scheduler),
      clock_(clock),
      control_(control),
      cfg_(cfg),
      health_(scheduler.graph().n_nodes(), cfg.node_health) {
  tm_.hangs = &obs::counter("supervise.hangs_detected");
  tm_.speculations = &obs::counter("supervise.speculations");
  tm_.spec_wins = &obs::counter("supervise.spec_wins");
  tm_.spec_losses = &obs::counter("supervise.spec_losses");
  tm_.quarantined = &obs::counter("supervise.quarantined");
  tm_.probations = &obs::counter("supervise.node_probations");
  tm_.canaries_ok = &obs::counter("supervise.canaries_ok");
  tm_.canaries_failed = &obs::counter("supervise.canaries_failed");

  scheduler_.on_start([this](const sched::Job& job) { on_start(job); });
  scheduler_.on_finish([this](const sched::Job& job) { on_finish(job); });
}

void Supervisor::set_timing(const std::string& type, JobTiming timing) {
  timings_[type] = timing;
}

void Supervisor::log(double now, const char* fmt, ...) {
  char detail[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(detail, sizeof detail, fmt, args);
  va_end(args);
  char line[320];
  std::snprintf(line, sizeof line, "t=%.3f %s", now, detail);
  decisions_.emplace_back(line);
}

std::string Supervisor::log_text() const {
  std::string out;
  for (const auto& line : decisions_) {
    out += line;
    out += '\n';
  }
  return out;
}

void Supervisor::on_start(const sched::Job& job) {
  Watch w;
  w.type = job.spec.type;
  w.payload = job.spec.payload;
  w.start_time = job.start_time;
  if (!job.alloc.slots.empty()) w.node = job.alloc.slots.front().node;
  if (auto it = timings_.find(w.type); it != timings_.end()) {
    const JobTiming& t = it->second;
    const double base = std::max(t.mean_s, job.spec.est_duration);
    w.soft_s = kSoftFactor * base + kSoftSigmas * t.sigma_s;
    w.hard_s = kHardFactor * base + kHardSigmas * t.sigma_s;
    w.watched = true;
  }
  w.canary_node = job.spec.canary_node;
  w.twin_of = job.spec.twin_of;

  const sched::JobId id = job.id;
  if (w.is_twin()) {
    twin_requested_.erase(w.twin_of);
    if (orphaned_originals_.erase(w.twin_of) > 0) {
      // The original finished while this twin sat in the queue: cancel it
      // before it burns a slot. The watch is dropped, not inserted.
      log(clock_.now(), "spec_orphan_cancel twin=%llu of=%llu",
          static_cast<unsigned long long>(id),
          static_cast<unsigned long long>(w.twin_of));
      scheduler_.cancel(id);
      return;
    }
    twin_by_original_[w.twin_of] = id;
  }
  watches_[id] = std::move(w);
}

void Supervisor::strike(const Watch& watch, StrikeKind kind, int node) {
  const double now = clock_.now();
  if (control_.quarantine().strike(watch.type, watch.payload, kind, now,
                                   node)) {
    ++stats_.quarantined;
    if (stats_.first_quarantine_s < 0.0) stats_.first_quarantine_s = now;
    tm_.quarantined->inc();
    log(now, "quarantine %s:%llu after %s", watch.type.c_str(),
        static_cast<unsigned long long>(watch.payload), to_string(kind));
  }
}

void Supervisor::handle_canary_finish(const Watch& watch,
                                      const sched::Job& job) {
  const double now = clock_.now();
  const bool ok = job.state == sched::JobState::kCompleted;
  health_.canary_result(watch.canary_node, ok, now);
  if (ok) {
    ++stats_.canaries_ok;
    tm_.canaries_ok->inc();
    scheduler_.undrain_node(watch.canary_node);
    log(now, "canary_ok node=%d undrained", watch.canary_node);
  } else if (job.state == sched::JobState::kFailed) {
    ++stats_.canaries_failed;
    tm_.canaries_failed->inc();
    log(now, "canary_failed node=%d backoff", watch.canary_node);
  }
  // kCancelled (teardown) leaves the node drained without a verdict.
}

void Supervisor::resolve_twin_finish(sched::JobId id, Watch& watch,
                                     const sched::Job& job) {
  const sched::JobId orig = watch.twin_of;
  twin_by_original_.erase(orig);
  if (job.state == sched::JobState::kCompleted) {
    // Twin won; cancel the original if it is still in flight. The workload
    // already processed this completion (its callbacks run first).
    ++stats_.spec_wins;
    tm_.spec_wins->inc();
    log(clock_.now(), "spec_win twin=%llu of=%llu",
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(orig));
    scheduler_.cancel(orig);
  }
  // kFailed: the original keeps running, nothing to do (the strike against
  // the shared payload was already recorded by the caller). kCancelled: we
  // cancelled it as the loser or at teardown.
}

void Supervisor::resolve_original_finish(sched::JobId id,
                                         const sched::Job& job) {
  const bool requested_unstarted = twin_requested_.erase(id) > 0;
  auto it = twin_by_original_.find(id);
  const sched::JobId twin =
      it != twin_by_original_.end() ? it->second : sched::kInvalidJob;

  if (job.state == sched::JobState::kFailed) {
    // Keep a live twin as the payload's retry; the workload's resubmit veto
    // (has_live_twin) suppresses a duplicate resubmission.
    return;
  }
  // kCompleted or kCancelled: any twin is now redundant.
  if (requested_unstarted) {
    orphaned_originals_.insert(id);
    if (job.state == sched::JobState::kCompleted) {
      ++stats_.spec_losses;
      tm_.spec_losses->inc();
    }
  }
  if (twin != sched::kInvalidJob) {
    twin_by_original_.erase(id);
    if (job.state == sched::JobState::kCompleted) {
      ++stats_.spec_losses;
      tm_.spec_losses->inc();
      log(clock_.now(), "spec_loss twin=%llu of=%llu",
          static_cast<unsigned long long>(twin),
          static_cast<unsigned long long>(id));
    }
    scheduler_.cancel(twin);
  }
}

void Supervisor::on_finish(const sched::Job& job) {
  auto it = watches_.find(job.id);
  if (it == watches_.end()) return;
  Watch watch = std::move(it->second);
  watches_.erase(it);

  if (watch.canary_node >= 0) {
    handle_canary_finish(watch, job);
    return;
  }

  const double now = clock_.now();
  if (job.state == sched::JobState::kFailed) {
    if (job.killed_by_node) {
      // The node died under the job: strike the payload's node-kill column
      // (poison work takes nodes down with it) and reset the health score —
      // the crash is already handled by drain/recover.
      strike(watch, StrikeKind::kNodeKill, watch.node);
      health_.node_crashed(watch.node);
    } else {
      strike(watch, StrikeKind::kFailure, watch.node);
      if (health_.record_failure(watch.node, now)) {
        health_.mark_drained(watch.node, now);
        scheduler_.drain_node(watch.node);
        log(now, "node_drain node=%d failures_in_window=%d", watch.node,
            health_.config().failure_threshold);
      }
    }
  }

  if (watch.is_twin())
    resolve_twin_finish(job.id, watch, job);
  else
    resolve_original_finish(job.id, job);
}

bool Supervisor::has_live_twin(sched::JobId id) const {
  if (twin_requested_.count(id) > 0) return true;
  auto it = twin_by_original_.find(id);
  if (it == twin_by_original_.end()) return false;
  const auto state = scheduler_.job(it->second).state;
  return state == sched::JobState::kPending ||
         state == sched::JobState::kRunning;
}

void Supervisor::tick(double now) {
  // Pass 1: collect watchdog decisions over the ordered watch map; apply
  // after the sweep (cancel() re-enters on_finish and mutates watches_).
  std::vector<sched::JobId> hung;
  std::vector<sched::JobId> stragglers;
  for (auto& [id, w] : watches_) {
    if (!w.watched || w.canary_node >= 0) continue;
    // Elapsed against a relative deadline, not now against start + hard_s:
    // the sum rounds, so the two comparisons can differ by an ulp.
    const double elapsed = now - w.start_time;
    if (elapsed > w.hard_s) {
      hung.push_back(id);
    } else if (elapsed > w.soft_s && cfg_.speculate && !w.is_twin() &&
               !w.spec_requested &&
               speculations_launched_ < kMaxSpeculations) {
      stragglers.push_back(id);
    }
  }

  for (sched::JobId id : hung) {
    const sched::Job job = scheduler_.job(id);  // copy: cancel invalidates
    const Watch watch = watches_.at(id);
    ++stats_.hangs_detected;
    tm_.hangs->inc();
    log(now, "hang_cancel job=%llu type=%s payload=%llu node=%d",
        static_cast<unsigned long long>(id), watch.type.c_str(),
        static_cast<unsigned long long>(watch.payload), watch.node);
    strike(watch, StrikeKind::kHang, watch.node);
    scheduler_.cancel(id);  // on_finish drops the watch, resolves any twin
    if (!watch.is_twin()) control_.resubmit_hung(job);
  }

  for (sched::JobId id : stragglers) {
    auto it = watches_.find(id);
    if (it == watches_.end()) continue;  // finished during hang handling
    const sched::Job& job = scheduler_.job(id);
    if (job.state != sched::JobState::kRunning) continue;
    if (control_.quarantine().quarantined(it->second.type,
                                          it->second.payload))
      continue;  // no point duplicating poison
    // Mark the request BEFORE launching: a synchronous backend starts the
    // twin inside launch_speculative(), and its on_start must find (and
    // clear) the twin_requested_ entry, not race ahead of it.
    it->second.spec_requested = true;
    twin_requested_.insert(id);
    if (!control_.launch_speculative(job)) {
      it->second.spec_requested = false;
      twin_requested_.erase(id);
      continue;
    }
    ++speculations_launched_;
    ++stats_.speculations;
    tm_.speculations->inc();
    log(now, "speculate job=%llu type=%s payload=%llu elapsed=%.3f",
        static_cast<unsigned long long>(id), it->second.type.c_str(),
        static_cast<unsigned long long>(it->second.payload),
        now - it->second.start_time);
  }

  // Node probation: expired drains get a canary.
  for (int node : health_.due_for_probe(now)) {
    if (!control_.submit_canary(node)) continue;
    health_.mark_probing(node);
    ++stats_.node_probations;
    tm_.probations->inc();
    log(now, "probe node=%d canary submitted", node);
  }
}

}  // namespace mummi::supervise
