#include "wm/workflow_manager.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mummi::wm {

WorkflowManager::WorkflowManager(WmConfig config, Maestro& maestro,
                                 TrackerSet& trackers,
                                 PatchSelector& patch_selector,
                                 FrameSelector& frame_selector)
    : config_(std::move(config)),
      maestro_(maestro),
      trackers_(trackers),
      patch_selector_(patch_selector),
      frame_selector_(frame_selector),
      quarantine_(WmConfig::quarantine_strikes) {
  maestro_.on_start([this](const sched::Job& job) {
    bump(pending_, job.spec.type, -1);
    bump(running_, job.spec.type, +1);
  });
  maestro_.on_finish([this](const sched::Job& job) { handle_finish(job); });
}

void WorkflowManager::bump(std::unordered_map<std::string, int>& map,
                           const std::string& key, int delta) {
  map[key] += delta;
}

int WorkflowManager::running(const std::string& type) const {
  auto it = running_.find(type);
  return it == running_.end() ? 0 : it->second;
}

std::vector<std::uint64_t> WorkflowManager::running_payloads(
    const std::string& type,
    const std::function<bool(const sched::Job&)>& exclude) const {
  std::set<std::uint64_t> uniq;
  sched::Scheduler& scheduler = maestro_.scheduler();
  for (const sched::JobId id : scheduler.active_jobs()) {
    const sched::Job& job = scheduler.job(id);
    if (job.spec.type != type || job.state != sched::JobState::kRunning)
      continue;
    if (exclude && exclude(job)) continue;
    uniq.insert(job.spec.payload);
  }
  return {uniq.begin(), uniq.end()};
}

int WorkflowManager::pending(const std::string& type) const {
  auto it = pending_.find(type);
  return it == pending_.end() ? 0 : it->second;
}

int WorkflowManager::cg_capacity() const {
  const auto& spec = maestro_.scheduler().graph().spec();
  const int total = spec.nodes * spec.gpus_per_node;
  return static_cast<int>(total * config_.gpu_frac_cg);
}

int WorkflowManager::aa_capacity() const {
  const auto& spec = maestro_.scheduler().graph().spec();
  const int total = spec.nodes * spec.gpus_per_node;
  return total - cg_capacity();
}

void WorkflowManager::ingest_patches(int queue,
                                     const std::vector<ml::HDPoint>& points) {
  patch_selector_.add(
      queue, ml::PointStore::from_points(points, patch_selector_.dim()));
}

void WorkflowManager::ingest_patches(int queue, const ml::PointStore& points) {
  patch_selector_.add(queue, points);
}

void WorkflowManager::ingest_frames(const std::vector<ml::HDPoint>& points) {
  frame_selector_.add(
      ml::PointStore::from_points(points, frame_selector_.dim()));
}

void WorkflowManager::ingest_frames(const ml::PointStore& points) {
  frame_selector_.add(points);
}

std::vector<fb::IterationStats> WorkflowManager::run_feedback() {
  std::vector<fb::IterationStats> out;
  out.reserve(feedback_.size());
  for (auto* manager : feedback_) out.push_back(manager->iterate());
  return out;
}

int WorkflowManager::submit_via_tracker(const std::string& type,
                                        std::uint64_t payload) {
  auto& tracker = trackers_.tracker(type);
  maestro_.submit(tracker.make_spec(payload));
  tracker.note_submitted();
  bump(pending_, type, +1);
  return 1;
}

int WorkflowManager::maintain(int submit_budget) {
  obs::Span span("wm.maintain", "wm");
  obs::counter("wm.maintain_passes").inc();
  int submitted = 0;
  auto& scheduler = maestro_.scheduler();

  // Simulations first: GPUs must never idle while prepared work exists.
  // Quarantined payloads are dropped on the way out of the ready buffer —
  // poison work never reaches the machine again.
  auto fill_sims = [&](const std::string& sim_type,
                       std::deque<std::uint64_t>& ready, int capacity) {
    while (submitted < submit_budget && !ready.empty() &&
           running(sim_type) + pending(sim_type) < capacity) {
      const std::uint64_t payload = ready.front();
      ready.pop_front();
      if (quarantine_.quarantined(sim_type, payload)) {
        obs::counter("wm.quarantine_skips").inc();
        continue;
      }
      submitted += submit_via_tracker(sim_type, payload);
    }
  };
  fill_sims(job_type::kCgSim, ready_cg_, cg_capacity());
  fill_sims(job_type::kAaSim, ready_aa_, aa_capacity());

  // Setups: keep the prepared buffers near target without oversubscribing
  // CPUs ("a full buffer prevents new setup jobs"; CPU jobs run "only when
  // needed to prevent simulations of stale configurations").
  //
  // The deficit is computed ONCE in closed form. Submitting does not change
  // running counts, the ready buffer or free cores (allocation happens at
  // poll()); only pending(setup_type) advances by one per submit. The seed's
  // per-iteration select(1) loop therefore reduces to a min over three
  // bounds, and the selectors are consulted in one batched select — same
  // submission sequence, one rank refresh instead of one per pick.
  auto fill_setups = [&](const std::string& setup_type,
                         const std::string& sim_type,
                         std::deque<std::uint64_t>& ready,
                         std::deque<std::uint64_t>& requeued, int headroom,
                         int sim_capacity, auto select_batch) {
    const auto& tracker = trackers_.tracker(setup_type);
    const int cores_each = tracker.config().request.slot.cores *
                           tracker.config().request.nslots;
    // Prepared work wanted: enough to fill every GPU the sim type is not
    // yet using (ramp-up) plus a steady-state headroom buffer for turnover.
    const int sim_deficit =
        std::max(0, sim_capacity - running(sim_type) - pending(sim_type));
    const int target = sim_deficit + headroom;
    const int p0 = pending(setup_type);
    const int inflight = running(setup_type) + p0;
    long n = std::min<long>(submit_budget - submitted,
                            static_cast<long>(target) -
                                static_cast<long>(ready.size()) - inflight);
    if (cores_each > 0) {
      // CPU headroom: free cores must cover queued-but-unplaced setups too.
      const long by_cores =
          scheduler.graph().total_free_cores() / cores_each - p0;
      n = std::min(n, by_cores);
    }
    if (n <= 0) return;
    // Interrupted setups drain before new selections are made (quarantined
    // payloads fall out here too: a requeue may predate the quarantine).
    while (n > 0 && !requeued.empty()) {
      const std::uint64_t payload = requeued.front();
      requeued.pop_front();
      if (quarantine_.quarantined(setup_type, payload)) {
        obs::counter("wm.quarantine_skips").inc();
        continue;
      }
      submitted += submit_via_tracker(setup_type, payload);
      --n;
    }
    if (n > 0)
      for (const auto payload : select_batch(static_cast<std::size_t>(n))) {
        if (quarantine_.quarantined(setup_type, payload)) {
          obs::counter("wm.quarantine_skips").inc();
          continue;
        }
        submitted += submit_via_tracker(setup_type, payload);
      }
  };
  fill_setups(job_type::kCgSetup, job_type::kCgSim, ready_cg_,
              requeued_cg_setup_, config_.cg_ready_target, cg_capacity(),
              [this](std::size_t m) {
                obs::Span select_span("wm.select.patch", "wm");
                std::vector<std::uint64_t> payloads;
                auto picks = patch_selector_.select(m);
                payloads.reserve(picks.size());
                for (const auto& pick : picks)
                  payloads.push_back(pick.point.id);
                obs::counter("wm.selector.cg_picks").inc(payloads.size());
                return payloads;
              });
  fill_setups(job_type::kAaSetup, job_type::kAaSim, ready_aa_,
              requeued_aa_setup_, config_.aa_ready_target, aa_capacity(),
              [this](std::size_t m) {
                obs::Span select_span("wm.select.frame", "wm");
                std::vector<std::uint64_t> payloads;
                auto picks = frame_selector_.select(m);
                payloads.reserve(picks.size());
                for (const auto& pick : picks) payloads.push_back(pick.id);
                obs::counter("wm.selector.aa_picks").inc(payloads.size());
                return payloads;
              });

  if (submitted > 0) maestro_.poll();
  obs::counter("wm.submitted").inc(submitted);
  return submitted;
}

void WorkflowManager::handle_finish(const sched::Job& job) {
  const std::string& type = job.spec.type;
  // Cancelled-before-start jobs leave the pending set; everything else was
  // running.
  if (job.state == sched::JobState::kCancelled && job.start_time <= 0) {
    bump(pending_, type, -1);
  } else {
    bump(running_, type, -1);
  }

  if (!trackers_.has(type)) return;  // e.g. the continuum job
  auto& tracker = trackers_.tracker(type);

  const bool is_cg_setup = type == job_type::kCgSetup;
  const bool is_aa_setup = type == job_type::kAaSetup;
  const bool is_sim = type == job_type::kCgSim || type == job_type::kAaSim;

  if (job.state == sched::JobState::kCompleted) {
    tracker.note_completed();
    if (is_cg_setup) ready_cg_.push_back(job.spec.payload);
    if (is_aa_setup) ready_aa_.push_back(job.spec.payload);
    if (is_sim && sim_finished_) sim_finished_(job);
    return;
  }

  if (job.state == sched::JobState::kFailed) {
    if (job.killed_by_node)
      tracker.note_killed_by_fault();
    else
      tracker.note_failed();

    // Speculative twins never resubmit themselves — the original (or its own
    // retry) owns the payload's lifecycle.
    if (job.spec.twin_of != sched::kInvalidJob) return;

    if (quarantine_.quarantined(type, job.spec.payload)) {
      obs::counter("wm.quarantine_skips").inc();
      if (is_sim && sim_finished_) sim_finished_(job);  // terminal for the app
      return;
    }
    // A live speculative twin is already this payload's retry.
    if (resubmit_veto_ && resubmit_veto_(job)) return;

    // The tracker decides. A node kill reads the payload's count without
    // creating it and never spends it (restart-budget attribution).
    bool retry;
    if (job.killed_by_node) {
      const auto it = restarts_.find(job.spec.payload);
      retry = tracker.should_resubmit(job,
                                      it == restarts_.end() ? 0 : it->second);
    } else {
      int& tries = restarts_[job.spec.payload];
      retry = tracker.should_resubmit(job, tries);
      if (retry) ++tries;
    }
    if (retry) {
      tracker.note_restarted();
      submit_via_tracker(type, job.spec.payload);
      util::log_debug("resubmitted failed ", type, " payload ",
                      job.spec.payload);
    } else if (is_sim && sim_finished_) {
      sim_finished_(job);  // give the application the terminal failure
    }
  }
}

void WorkflowManager::resubmit_hung(const sched::Job& job) {
  const std::string& type = job.spec.type;
  if (!trackers_.has(type)) return;
  if (quarantine_.quarantined(type, job.spec.payload)) {
    obs::counter("wm.quarantine_skips").inc();
    return;
  }
  // Hang retries are budget-free (like node kills: the watchdog, not the
  // payload's exit status, ended the job); the quarantine ledger bounds
  // payloads that hang wherever they run.
  auto& tracker = trackers_.tracker(type);
  tracker.note_restarted();
  submit_via_tracker(type, job.spec.payload);
  util::log_debug("resubmitted hung ", type, " payload ", job.spec.payload);
}

bool WorkflowManager::launch_speculative(const sched::Job& job) {
  const std::string& type = job.spec.type;
  if (!trackers_.has(type)) return false;
  sched::JobSpec spec = job.spec;  // the twin keeps the duration hint
  spec.twin_of = job.id;
  trackers_.tracker(type).note_submitted();
  bump(pending_, type, +1);
  maestro_.submit(std::move(spec));
  maestro_.poll();
  return true;
}

bool WorkflowManager::submit_canary(int node) {
  sched::JobSpec spec;
  spec.name = "canary-" + std::to_string(node);
  spec.type = job_type::kCanary;
  spec.request.slot = sched::Slot{1, 0};
  spec.request.pin_node = node;
  spec.est_duration = WmConfig::canary_duration_s;
  spec.canary_node = node;
  bump(pending_, job_type::kCanary, +1);
  maestro_.submit(std::move(spec));
  maestro_.poll();
  return true;
}

void WorkflowManager::requeue_setup(const std::string& type,
                                    std::uint64_t payload) {
  if (type == job_type::kCgSetup)
    requeued_cg_setup_.push_back(payload);
  else if (type == job_type::kAaSetup)
    requeued_aa_setup_.push_back(payload);
  else
    throw util::Error("requeue_setup: unknown setup type " + type);
}

namespace {
void write_deque(util::ByteWriter& w, const std::deque<std::uint64_t>& q) {
  w.u64(q.size());
  for (const auto v : q) w.u64(v);
}

std::deque<std::uint64_t> read_deque(util::ByteReader& r) {
  std::deque<std::uint64_t> q;
  const auto n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) q.push_back(r.u64());
  return q;
}
}  // namespace

void WorkflowManager::serialize(util::ByteWriter& w) const {
  write_deque(w, ready_cg_);
  write_deque(w, ready_aa_);
  write_deque(w, requeued_cg_setup_);
  write_deque(w, requeued_aa_setup_);
  w.u64(restarts_.size());
  for (const auto& [payload, tries] : restarts_) {
    w.u64(payload);
    w.u32(static_cast<std::uint32_t>(tries));
  }
  w.section([&] { patch_selector_.serialize(w); });
  w.section([&] { frame_selector_.serialize(w); });
  w.section([&] { quarantine_.serialize(w); });
}

void WorkflowManager::restore(util::ByteReader& r) {
  // Decode every part before committing any, so malformed bytes throw and
  // leave the manager, its selectors and its ledger as they were.
  auto ready_cg = read_deque(r);
  auto ready_aa = read_deque(r);
  auto requeued_cg_setup = read_deque(r);
  auto requeued_aa_setup = read_deque(r);
  std::unordered_map<std::uint64_t, int> restarts;
  const auto n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto payload = r.u64();
    const std::uint32_t tries = r.u32();
    // A count past INT_MAX would wrap negative and grant ~2^31 retries.
    if (tries > static_cast<std::uint32_t>(std::numeric_limits<int>::max()))
      throw util::FormatError("workflow manager: restart count out of range");
    restarts[payload] = static_cast<int>(tries);
  }
  util::ByteReader patch_state = r.section();
  auto patches = patch_selector_.decode(patch_state);
  util::ByteReader frame_state = r.section();
  auto frames = FrameSelector::decode(frame_state);
  util::ByteReader quarantine_state = r.section();
  supervise::QuarantineLedger quarantine = quarantine_;
  quarantine.restore(quarantine_state);

  ready_cg_ = std::move(ready_cg);
  ready_aa_ = std::move(ready_aa);
  requeued_cg_setup_ = std::move(requeued_cg_setup);
  requeued_aa_setup_ = std::move(requeued_aa_setup);
  restarts_ = std::move(restarts);
  patch_selector_.commit(std::move(patches));
  frame_selector_.commit(std::move(frames));
  quarantine_ = std::move(quarantine);
}

WorkflowManager::CarryOver WorkflowManager::carry_over() const {
  return CarryOver{ready_cg_, ready_aa_, requeued_cg_setup_,
                   requeued_aa_setup_, quarantine_};
}

void WorkflowManager::restore_carry_over(const CarryOver& state) {
  ready_cg_ = state.ready_cg;
  ready_aa_ = state.ready_aa;
  requeued_cg_setup_ = state.requeued_cg_setup;
  requeued_aa_setup_ = state.requeued_aa_setup;
  quarantine_ = state.quarantine;
}

}  // namespace mummi::wm
