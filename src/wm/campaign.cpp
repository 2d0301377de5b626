#include "wm/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <set>
#include <type_traits>
#include <utility>

#include "fault/fault_injector.hpp"
#include "wm/insitu.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mummi::wm {

namespace {
constexpr std::uint64_t kFrameIdBase = 1ULL << 40;  // keep ids disjoint

/// Files written per CG trajectory frame (frame + analysis sidecars);
/// calibrated so the full campaign lands near the paper's 1.03B files.
constexpr double kFilesPerCgFrame = 5.0;

// v4: one field list for both directions, run tally split out, no
// hours-at-run-start word.
constexpr std::uint32_t kCheckpointVersion = 4;

// Field lists: each is written once as a template over `Io`, which is Save
// (encode the fields) or Load (decode them in place), so a field added to a
// list is saved and loaded in the same position by construction.

template <typename Io, typename Stats>
void supervision_fields(Io& io, Stats& s) {
  // Two retired words (the deleted degraded mode's transition count and
  // time) keep the fingerprint and v4 checkpoint layout: written as zeros,
  // read and dropped.
  std::uint64_t retired_count = 0;
  double retired_time_s = 0.0;
  io(s.hangs_detected, s.speculations, s.spec_wins, s.spec_losses,
     s.quarantined, s.node_probations, s.canaries_ok, s.canaries_failed,
     retired_count, retired_time_s, s.first_quarantine_s);
}

/// Fault and supervision totals: CampaignResult's over the finished runs, or
/// one run's RunTally.
template <typename Io, typename Totals>
void tally_fields(Io& io, Totals& t) {
  io(t.faults_injected, t.fault_jobs_killed);
  supervision_fields(io, t.supervision);
  io(t.supervision_log);
}

/// The campaign checkpoint after its version word.
/// `wm` is the live WorkflowManager on save and the ByteReader that receives
/// its section on load.
template <typename Io, typename Resume, typename Result, typename Tally,
          typename Wm>
void checkpoint_fields(Io& io, Resume& rs, Result& result, Tally&& tally,
                       Wm& wm) {
  io(rs.flat_run, rs.time_into_run_s, rs.rng.s[0], rs.rng.s[1], rs.rng.s[2],
     rs.rng.s[3], rs.rng.has_spare, rs.rng.spare, rs.next_patch_id,
     rs.next_frame_id);
  io.each(rs.sims, [&io](auto& sim) {
    auto& [payload, ls] = sim;
    io(payload, ls.is_aa, ls.target, ls.progress, ls.rate_per_s, ls.size);
  });
  io(rs.inflight_cg, rs.inflight_aa, rs.inflight_cg_setup,
     rs.inflight_aa_setup);

  // Result accumulators. The profiler timeline and feedback iteration stats
  // are diagnostics, not campaign state, and are not checkpointed.
  io(result.snapshots, result.patches_created, result.frame_candidates,
     result.continuum_total_us, result.cg_total_us, result.aa_total_ns);
  auto& ledger = result.ledger;
  io(ledger.bytes_continuum, ledger.bytes_patches, ledger.bytes_cg_frames,
     ledger.bytes_cg_analysis, ledger.bytes_aa_frames, ledger.bytes_backmap,
     ledger.files_total);
  io(result.cg_lengths_us, result.aa_lengths_ns, result.continuum_ms_per_day,
     result.cg_perf, result.aa_perf, result.checkpoints_written);
  // In-situ accumulators are fingerprinted science state: a resumed campaign
  // must keep merging RDFs into the same totals.
  io(result.analysis_frames, result.rdf_feedback);
  // Totals of the finished runs, then the interrupted run's share so far
  // (the quarantine ledger itself rides inside the WM section).
  tally_fields(io, result);
  tally_fields(io, tally);
  // The WM state, by far the largest field, as a length-prefixed section.
  io(wm);
}

struct Save {
  util::ByteWriter& w;

  void operator()(std::uint64_t v) { w.u64(v); }
  void operator()(double v) { w.f64(v); }
  void operator()(bool v) { w.u8(v ? 1 : 0); }
  void operator()(const std::string& s) { w.str(s); }
  void operator()(const coupling::RdfSet& s) { w.bytes(s.serialize()); }
  void operator()(const WorkflowManager& wm) {
    w.section([&] { wm.serialize(w); });
  }
  template <typename A, typename B>
  void operator()(const std::pair<A, B>& p) {
    (*this)(p.first, p.second);
  }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    if constexpr (std::is_trivially_copyable_v<T>)
      w.vec(v);
    else
      each(v, [this](const T& x) { (*this)(x); });
  }
  template <typename... T>
    requires(sizeof...(T) > 1)
  void operator()(const T&... fields) { ((*this)(fields), ...); }

  template <typename T, typename Fn>
  void each(const std::vector<T>& v, Fn fn) {
    w.u64(v.size());
    for (const auto& x : v) fn(x);
  }
};

struct Load {
  util::ByteReader& r;

  void operator()(std::uint64_t& v) { v = r.u64(); }
  void operator()(double& v) { v = r.f64(); }
  void operator()(bool& v) { v = r.u8() != 0; }
  void operator()(std::string& s) { s = r.str(); }
  void operator()(coupling::RdfSet& s) {
    s = coupling::RdfSet::deserialize(r.bytes());
  }
  void operator()(util::ByteReader& wm_state) { wm_state = r.section(); }
  template <typename A, typename B>
  void operator()(std::pair<A, B>& p) {
    (*this)(p.first, p.second);
  }
  template <typename T>
  void operator()(std::vector<T>& v) {
    if constexpr (std::is_trivially_copyable_v<T>)
      v = r.vec<T>();
    else
      each(v, [this](T& x) { (*this)(x); });
  }
  template <typename... T>
    requires(sizeof...(T) > 1)
  void operator()(T&... fields) { ((*this)(fields), ...); }

  template <typename T, typename Fn>
  void each(std::vector<T>& v, Fn fn) {
    // Every list element encodes at least one 8-byte word, so a count the
    // remaining bytes cannot hold is forged: fail before allocating for it.
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 8)
      throw util::FormatError("campaign checkpoint: list count too large");
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) fn(x);
  }
};

/// One run's share of the fault and supervision totals. Teardown folds it
/// into the result; a mid-run checkpoint stores it apart and Load folds it.
struct RunTally {
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_jobs_killed = 0;
  supervise::SupervisionStats supervision;
  std::vector<std::string> supervision_log;

  void fold_into(CampaignResult& r) const {
    r.faults_injected += faults_injected;
    r.fault_jobs_killed += fault_jobs_killed;
    r.supervision.merge(supervision);
    r.supervision_log.insert(r.supervision_log.end(), supervision_log.begin(),
                             supervision_log.end());
  }
};

/// Records a sim's trajectory length and performance sample in `r`: at
/// completion, terminal failure, teardown or the end of the campaign.
void record_sim(CampaignResult& r, const auto& ls) {
  if (ls.is_aa) {
    r.aa_lengths_ns.push_back(ls.progress);
    r.aa_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
    r.aa_total_ns += ls.progress;
  } else {
    r.cg_lengths_us.push_back(ls.progress);
    r.cg_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
    r.cg_total_us += ls.progress;
  }
}

/// Puts `front` ahead of `q`, in order.
void prepend(std::deque<std::uint64_t>& q,
             const std::vector<std::uint64_t>& front) {
  q.insert(q.begin(), front.begin(), front.end());
}

/// Virtual cost of one feedback iteration over `frames` Redis records.
fb::IterationStats feedback_iteration(std::size_t frames,
                                      double process_virtual) {
  const auto costs = fb::FeedbackCosts::redis();
  fb::IterationStats stats;
  stats.frames = frames;
  stats.collect_virtual = static_cast<double>(frames) *
                          (costs.identify_per_key + costs.read_per_record);
  stats.process_virtual = process_virtual;
  stats.tag_virtual = static_cast<double>(frames) * costs.tag_per_record;
  return stats;
}

/// Job trackers for the four application job types. Durations are
/// lognormal(sigma=0.25 in log space); ~0.25*mean is the absolute spread the
/// watchdog deadlines are derived from.
TrackerSet make_trackers(const PerfModel& perf) {
  TrackerSet trackers;
  auto add = [&](const std::string& type, int cores, int gpus, double mean_s) {
    JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    cfg.mean_duration = mean_s;
    cfg.sigma_duration = 0.25 * mean_s;
    trackers.add(std::make_unique<JobTracker>(cfg));
  };
  add(job_type::kCgSetup, 24, 0, perf.createsim_mean_s);
  add(job_type::kCgSim, 3, 1, 86400);
  add(job_type::kAaSetup, 18, 0, perf.backmap_mean_s);
  add(job_type::kAaSim, 3, 1, 86400);
  return trackers;
}

/// Fault injection (Sec. 4.4). Each run draws its own plan; the seed mixes
/// the flat run index so the whole campaign (and any crash-restart
/// continuation) stays deterministic.
fault::FaultPlan run_fault_plan(const fault::FaultSpec& faults,
                                std::uint64_t flat_run, double walltime_s,
                                int nodes) {
  if (faults.empty()) return {};
  fault::FaultSpec spec = faults;
  spec.seed ^= 0x9e3779b97f4a7c15ULL * (flat_run + 1);
  return fault::FaultPlan::generate(spec, walltime_s, nodes);
}
}  // namespace

util::Bytes CampaignResult::science_fingerprint() const {
  util::ByteWriter w;
  Save io{w};
  w.u64(table1.size());
  for (const auto& row : table1)
    io(static_cast<std::uint64_t>(row.nodes), row.walltime_h,
       static_cast<std::uint64_t>(row.count));
  io(node_hours, snapshots, patches_created, patches_selected,
     frame_candidates, frames_selected, continuum_total_us, cg_total_us,
     aa_total_ns, cg_lengths_us, aa_lengths_ns, continuum_ms_per_day, cg_perf,
     aa_perf);
  io(ledger.bytes_continuum, ledger.bytes_patches, ledger.bytes_cg_frames,
     ledger.bytes_cg_analysis, ledger.bytes_aa_frames, ledger.bytes_backmap,
     ledger.files_total);
  io(faults_injected, fault_jobs_killed);
  supervision_fields(io, supervision);
  io(supervision_log, quarantined, analysis_frames, rdf_feedback);
  return std::move(w).take();
}

/// One allocation of the run schedule: the components that live for one
/// batch job, and the stages that drive them. Construction is the setup
/// stage (and the resume from a checkpoint); the scheduler callbacks, the
/// recurring ticks and the checkpoint save run inside the engine; teardown
/// carries unfinished work to the next allocation.
///
/// Three orders decide the science and are kept stage by stage (DESIGN.md
/// 4c): the draws on the campaign rng_ (the executor's split() is the
/// first of each run), the callback registrations (campaign on_finish before
/// the WM's, supervisor after both) and the first schedule of each tick.
class CampaignRun {
 public:
  CampaignRun(Campaign& campaign, CampaignResult& result,
              const WorkflowManager::CarryOver& carry, std::uint64_t flat_run,
              int nodes, double walltime_h, double hours_done,
              double hours_total);
  CampaignRun(const CampaignRun&) = delete;  // callbacks capture `this`
  CampaignRun& operator=(const CampaignRun&) = delete;

  /// Runs the allocation to walltime and returns the work it carries over.
  WorkflowManager::CarryOver run();

 private:
  using LogicalSim = Campaign::LogicalSim;

  // --- setup ---------------------------------------------------------------
  void restore(const WorkflowManager::CarryOver& carry);
  void start_supervisor();
  void every(double interval_s, void (CampaignRun::*tick)());

  // --- scheduler callbacks -------------------------------------------------
  void on_finish(const sched::Job& job);
  void on_sim_failed(const sched::Job& job);
  void on_start(const sched::Job& job);
  double job_duration(const sched::Job& job);
  [[nodiscard]] sched::JobSpec continuum_spec() const;

  // --- recurring ticks -----------------------------------------------------
  void supervise_tick();
  void snapshot_tick();
  void maintain_tick();
  void analyze_insitu();
  void feedback_tick();
  void profile_tick();

  // --- checkpoint ----------------------------------------------------------
  void checkpoint_tick();
  void save_checkpoint();

  // --- teardown ------------------------------------------------------------
  WorkflowManager::CarryOver teardown();
  [[nodiscard]] RunTally tally() const;

  Campaign& c_;
  const CampaignConfig& cfg_;
  CampaignResult& result_;
  const std::uint64_t flat_run_;  // index into the flattened run schedule
  const double walltime_s_;
  const double t_offset_;         // campaign seconds before this run
  const bool degraded_;
  const int continuum_nodes_;
  double resume_base_s_ = 0;      // checkpointed offset into this run
  bool continuum_running_ = false;

  event::SimEngine engine_;
  sched::Scheduler scheduler_;
  sched::QueueManager queue_;
  QueuedBackend maestro_;
  TrackerSet trackers_;
  fault::FaultInjector injector_;
  std::optional<WorkflowManager> wm_;  // built after on_finish registration
  sched::SimExecutor executor_;
  std::optional<supervise::Supervisor> supervisor_;

  // snapshot_tick buffers, reused across snapshots: the deferred noise
  // draws, the embeddings and the queue of each protein, and the per-queue
  // stores they are routed into.
  std::vector<util::Rng::PolarDraw> synth_noise_;
  std::vector<float> synth_coords_;
  std::vector<std::uint8_t> synth_queue_;
  std::vector<ml::PointStore> synth_by_queue_;
};

CampaignRun::CampaignRun(Campaign& campaign, CampaignResult& result,
                         const WorkflowManager::CarryOver& carry,
                         std::uint64_t flat_run, int nodes, double walltime_h,
                         double hours_done, double hours_total)
    : c_(campaign),
      cfg_(campaign.config_),
      result_(result),
      flat_run_(flat_run),
      walltime_s_(walltime_h * 3600.0),
      t_offset_(hours_done * 3600.0),
      degraded_(hours_done / hours_total < cfg_.degraded_until_fraction),
      continuum_nodes_(
          std::max(1, std::min(cfg_.continuum_nodes_max, nodes / 4))),
      scheduler_(sched::ClusterSpec::summit(nodes), cfg_.match_policy,
                 engine_.clock()),
      queue_(engine_, scheduler_, cfg_.queue),
      maestro_(scheduler_, queue_),
      trackers_(make_trackers(cfg_.perf)),
      injector_(run_fault_plan(cfg_.faults, flat_run, walltime_s_, nodes)),
      executor_(engine_, c_.rng_.split(), cfg_.sim_failure_prob) {
  injector_.bind_scheduler(&scheduler_);

  // Campaign-level accounting must see completions *before* the WM resubmits
  // failed jobs (so remaining-duration models read fresh progress), hence it
  // registers first.
  scheduler_.on_finish([this](const sched::Job& job) { on_finish(job); });
  // Selectors persist across the campaign.
  wm_.emplace(WmConfig{}, maestro_, trackers_, *c_.patch_selector_,
              *c_.frame_selector_);
  restore(carry);
  wm_->on_sim_finished([this](const sched::Job& job) { on_sim_failed(job); });

  // Executor: virtual-time job durations.
  executor_.set_duration_model(
      [this](const sched::Job& job) { return job_duration(job); });
  scheduler_.on_start([this](const sched::Job& job) { on_start(job); });
  injector_.bind_executor(&executor_);  // hang/straggler faults target it
  injector_.arm(engine_);

  // Poison work: a deterministic subset of payloads kills every attempt of
  // its job type — the repeat offender the quarantine ledger is keyed for.
  if (cfg_.poison_payload_modulus > 0)
    executor_.set_poison([this](const sched::Job& job) {
      return job.spec.type == job_type::kCgSetup && job.spec.payload != 0 &&
             job.spec.payload % cfg_.poison_payload_modulus == 0;
    });

  // Off by default: bit-identical figure runs.
  if (cfg_.supervise.enabled) start_supervisor();
}

void CampaignRun::restore(const WorkflowManager::CarryOver& carry) {
  if (!c_.resume_) {
    wm_->restore_carry_over(carry);
    return;
  }
  // Crash-restart: restore buffers, restart counts and both selectors from
  // the checkpoint, then line up the payloads that were in flight when it
  // was taken ahead of fresh work.
  const Campaign::ResumeState& rs = *c_.resume_;
  {
    obs::Span span("wm.resume", "wm");
    util::ByteReader wm_state = rs.wm_state;
    wm_->restore(wm_state);
    obs::histogram("wm.resume_s", 0.0, 1.0, 50)
        .observe(rs.load_s + span.elapsed_us() * 1e-6);
  }
  auto restored = wm_->carry_over();
  prepend(restored.ready_cg, rs.inflight_cg);
  prepend(restored.ready_aa, rs.inflight_aa);
  prepend(restored.requeued_cg_setup, rs.inflight_cg_setup);
  prepend(restored.requeued_aa_setup, rs.inflight_aa_setup);
  wm_->restore_carry_over(restored);
  resume_base_s_ = rs.time_into_run_s;
  c_.resume_.reset();
}

void CampaignRun::start_supervisor() {
  // Constructed after the WM so the winner of a speculative pair reaches the
  // workload before the supervisor cancels the loser. Watchdog deadlines come
  // from the tracker duration models; sims legitimately outlive any deadline
  // shorter than the allocation, so in practice the watchdog covers setup and
  // canary jobs within a run while hung sims are reclaimed at teardown (no
  // progress credited, payload carried to the next allocation).
  supervisor_.emplace(scheduler_, engine_.clock(), *wm_, cfg_.supervise);
  for (const auto& type : trackers_.types()) {
    const auto& tc = trackers_.tracker(type).config();
    supervisor_->set_timing(type, {tc.mean_duration, tc.sigma_duration});
  }
  supervisor_->set_timing(job_type::kCanary,
                          {WmConfig::canary_duration_s, 0.0});
  wm_->set_resubmit_veto([this](const sched::Job& job) {
    return supervisor_->has_live_twin(job.id);
  });
}

WorkflowManager::CarryOver CampaignRun::run() {
  // SimEngine fires equal-time events in scheduling order, so this order is
  // part of the science.
  if (supervisor_)
    every(supervise::kTickIntervalS, &CampaignRun::supervise_tick);
  maestro_.submit(continuum_spec());  // the continuum job loads first
  every(RateModel::continuum_snapshot_interval_s, &CampaignRun::snapshot_tick);
  every(cfg_.maintain_interval_s, &CampaignRun::maintain_tick);
  every(cfg_.feedback_interval_s, &CampaignRun::feedback_tick);
  every(cfg_.profile_interval_s, &CampaignRun::profile_tick);
  if (cfg_.checkpoint_interval_s > 0)
    every(cfg_.checkpoint_interval_s, &CampaignRun::checkpoint_tick);

  if (cfg_.crash_at_campaign_h > 0) {
    const double crash_s = cfg_.crash_at_campaign_h * 3600.0 - t_offset_;
    if (crash_s >= 0 && crash_s < walltime_s_)
      engine_.schedule_at(crash_s, [] {
        throw SimulatedCrash("simulated coordination-process crash");
      });
  }

  engine_.run_until(walltime_s_);
  return teardown();
}

/// Schedules `tick` every `interval_s`; each tick reschedules itself after
/// its body runs.
void CampaignRun::every(double interval_s, void (CampaignRun::*tick)()) {
  engine_.schedule_after(interval_s, [this, interval_s, tick] {
    (this->*tick)();
    every(interval_s, tick);
  });
}

void CampaignRun::on_finish(const sched::Job& job) {
  const auto& type = job.spec.type;
  if (type == job_type::kContinuum) {
    if (job.state == sched::JobState::kFailed) {
      // A node crash took the continuum down. It is untracked (no WM
      // restart policy), so the campaign itself reloads it from its
      // snapshot; fail_node() drained the dead node first, so the new
      // allocation lands elsewhere.
      continuum_running_ = false;
      maestro_.submit(continuum_spec());
    } else if (job.state == sched::JobState::kCancelled) {
      continuum_running_ = false;
    }
    return;
  }
  if (type != job_type::kCgSim && type != job_type::kAaSim) return;
  auto it = c_.sims_.find(job.spec.payload);
  if (it == c_.sims_.end()) return;
  LogicalSim& ls = it->second;
  if (job.state == sched::JobState::kCompleted) {
    ls.progress = ls.target;
    record_sim(result_, ls);
    c_.sims_.erase(it);
  } else if (job.state == sched::JobState::kFailed) {
    // Crash partway: progress up to the failure point survives via the
    // 15-minute checkpoints; the WM resubmits (registered after us).
    const double elapsed = std::max(0.0, engine_.now() - job.start_time);
    ls.progress = std::min(ls.target * 0.999,
                           ls.progress + ls.rate_per_s * elapsed *
                                             c_.rng_.uniform());
  }
}

void CampaignRun::on_sim_failed(const sched::Job& job) {
  // Terminal failures (restarts exhausted): record the partial length.
  if (job.state != sched::JobState::kFailed) return;
  auto it = c_.sims_.find(job.spec.payload);
  if (it == c_.sims_.end()) return;
  record_sim(result_, it->second);
  c_.sims_.erase(it);
}

void CampaignRun::on_start(const sched::Job& job) {
  if (job.spec.type == job_type::kContinuum) continuum_running_ = true;
  const sched::JobId id = job.id;
  executor_.launch(job, [this, id](bool ok) {
    // A node-crash fault may have killed the job after this completion
    // event was scheduled; the stale event must not touch it.
    if (scheduler_.job(id).state == sched::JobState::kRunning)
      scheduler_.complete(id, ok);
    maestro_.poll();
  });
}

double CampaignRun::job_duration(const sched::Job& job) {
  const auto& type = job.spec.type;
  if (type == job_type::kContinuum)
    return 2.0 * walltime_s_;  // cut at teardown
  if (type == job_type::kCgSetup)
    return cfg_.perf.sample_createsim_seconds(c_.rng_);
  if (type == job_type::kAaSetup)
    return cfg_.perf.sample_backmap_seconds(c_.rng_);
  if (type == job_type::kCgSim || type == job_type::kAaSim) {
    LogicalSim& ls = c_.logical_sim(job.spec.payload,
                                    type == job_type::kAaSim, degraded_);
    return std::max(1.0, (ls.target - ls.progress) / ls.rate_per_s);
  }
  return job.spec.est_duration;
}

sched::JobSpec CampaignRun::continuum_spec() const {
  sched::JobSpec spec;
  spec.name = "gridsim2d";
  spec.type = job_type::kContinuum;
  spec.request.slot = sched::Slot{cfg_.continuum_cores_per_node, 0};
  spec.request.nslots = continuum_nodes_;
  spec.request.one_slot_per_node = true;
  spec.est_duration = 2.0 * walltime_s_;
  return spec;
}

void CampaignRun::supervise_tick() {
  // Poll only when the tick actually acted (every action logs a decision
  // line): an idle supervisor must not perturb queue-service timing, so a
  // zero-fault supervised run stays bit-identical to an unsupervised one.
  const std::size_t before = supervisor_->decisions().size();
  supervisor_->tick(engine_.now());
  if (supervisor_->decisions().size() != before)
    maestro_.poll();  // place any resubmits/twins/canaries right away
}

void CampaignRun::snapshot_tick() {
  if (!continuum_running_) return;
  ++result_.snapshots;
  result_.continuum_total_us += 1.0;  // 1 us of model time per snapshot
  result_.continuum_ms_per_day.push_back(
      cfg_.perf.continuum_ms_per_day(continuum_nodes_ *
                                     cfg_.continuum_cores_per_node) *
      (1.0 + 0.03 * c_.rng_.normal()));
  result_.ledger.bytes_continuum += RateModel::continuum_snapshot_bytes;
  result_.ledger.files_total += 1;

  // Task 1: the Patch Creator cuts one patch per protein. Embeddings are
  // written straight into per-queue flat stores — the selector ingest path
  // is allocation-free end to end. Synthetic metric-space embedding: smooth
  // drift + noise, so novelty structure exists for FPS to exploit.
  //
  // Three steps per block of proteins. Draw: the rng_ draws stay on the
  // caller in the serial order (9 normals, state, multi per protein), with
  // the polar transform deferred. Transform: the pure math runs on the pool.
  // Route: points reach the per-queue stores in protein order. The bytes
  // are those of drawing and transforming one protein at a time.
  const auto n_queues =
      static_cast<std::size_t>(c_.patch_selector_->n_queues());
  synth_by_queue_.resize(n_queues, ml::PointStore(9));
  {
    obs::Span span("wm.synth", "wm");
    for (auto& store : synth_by_queue_) store.clear();
    const auto n = static_cast<std::size_t>(cfg_.proteins_per_snapshot);
    synth_noise_.resize(9 * n);
    synth_coords_.resize(9 * n);
    synth_queue_.resize(n);
    const ml::PointId first_id = c_.next_patch_id_;
    c_.next_patch_id_ += n;
    static_assert(cont::kNumProteinStates == 4,
                  "queue routing assumes 4 states");
    util::Rng::DeferredNormals normals(c_.rng_);
    util::for_blocks_ordered(
        cfg_.insitu_pool, n, util::block_size(n, 128, 16),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t p = lo; p < hi; ++p) {
            for (std::size_t d = 0; d < 9; ++d)
              synth_noise_[9 * p + d] = normals.next();
            const auto state = c_.rng_.uniform_index(cont::kNumProteinStates);
            const bool multi = c_.rng_.uniform() < 0.2;  // multi-protein
            synth_queue_[p] = static_cast<std::uint8_t>(multi ? 4 : state);
          }
        },
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t p = lo; p < hi; ++p) {
            const auto id = static_cast<double>(first_id + p);
            for (int d = 0; d < 9; ++d)
              synth_coords_[9 * p + d] = static_cast<float>(
                  std::sin(0.01 * id + d) +
                  0.3 * synth_noise_[9 * p + d].value());
          }
        },
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t p = lo; p < hi; ++p)
            synth_by_queue_[synth_queue_[p]].add(
                first_id + p,
                std::span<const float>(&synth_coords_[9 * p], 9));
        });
  }  // `normals` settles rng_'s spare here
  std::size_t created = 0;
  for (std::size_t q = 0; q < n_queues; ++q) {
    const ml::PointStore& store = synth_by_queue_[q];
    created += store.size();
    if (!store.empty()) wm_->ingest_patches(static_cast<int>(q), store);
  }
  result_.patches_created += created;
  result_.ledger.bytes_patches +=
      static_cast<double>(created) * RateModel::patch_bytes;
  result_.ledger.files_total += created;
}

void CampaignRun::maintain_tick() {
  obs::Span tick_span("wm.tick", "wm");
  if (cfg_.frame_candidate_scale > 0) analyze_insitu();
  wm_->maintain(cfg_.submit_budget_per_maintain);
  obs::histogram("wm.tick_s", 0.0, 0.02, 50)
      .observe(tick_span.elapsed_us() * 1e-6);
}

void CampaignRun::analyze_insitu() {
  // Task 2 ingestion from the distributed CG analyses: one in-situ analysis
  // per running CG sim per tick, folded in ascending sim-id order; candidate
  // volume stays at the calibrated rate as per-sim Poisson draws.
  const auto payloads = wm_->running_payloads(
      job_type::kCgSim,
      [this](const sched::Job& job) { return executor_.is_hung(job.id); });
  if (payloads.empty()) return;
  const double mean_per_sim = (cfg_.perf.cg_us_per_day / 86400.0) *
                              cfg_.maintain_interval_s *
                              cfg_.frame_candidates_per_us *
                              cfg_.frame_candidate_scale;
  // The tick key derives from the *absolute* offset into this run (and the
  // flat run index), so a campaign resumed from a checkpoint replays the
  // remaining ticks with the exact same per-sim streams.
  const double t_abs = resume_base_s_ + engine_.now();
  std::uint64_t tbits = 0;
  std::memcpy(&tbits, &t_abs, sizeof tbits);
  const std::uint64_t tick_key =
      tbits ^ (0x9e3779b97f4a7c15ULL * (flat_run_ + 1));

  ml::PointStore frames(3);
  std::uint64_t candidates = 0;
  const std::uint64_t fold_ns = c_.insitu_->tick(
      payloads, tick_key, mean_per_sim, [&](const InSituResult& r) {
        if (r.candidates > 0) {
          // First candidate is the analyzed frame's real descriptor; the
          // rest are subsampled snapshots of the same sim.
          r.frame.descriptor_into(c_.next_frame_id_++, frames);
          for (const auto& d : r.extra)
            frames.add(c_.next_frame_id_++, std::span<const float>(d));
          candidates += r.candidates;
        }
      });
  // One merge per tick of the plane's exact RDF sum.
  if (result_.rdf_feedback.per_species.empty())
    result_.rdf_feedback = c_.insitu_->rdfs();
  else
    result_.rdf_feedback.merge(c_.insitu_->rdfs());
  result_.analysis_frames += payloads.size();
  if (candidates > 0) {
    result_.frame_candidates += candidates;
    result_.ledger.files_total += candidates;  // the ~850 B id records
    wm_->ingest_frames(frames);
  }
  obs::counter("wm.tick.sims").inc(payloads.size());
  obs::counter("wm.tick.fold_ns").inc(fold_ns);
}

void CampaignRun::feedback_tick() {
  const int running_cg = wm_->running(job_type::kCgSim);
  const int running_aa = wm_->running(job_type::kAaSim);
  auto& ledger = result_.ledger;
  if (running_cg > 0) {
    // CG->continuum: RDF pushes arrive every ~3-4 min per simulation.
    const double rdf_interval = 200.0;  // s per simulation between pushes
    const auto frames = static_cast<std::size_t>(
        running_cg * cfg_.feedback_interval_s / rdf_interval);
    result_.cg2cont_stats.push_back(feedback_iteration(
        frames, static_cast<double>(frames) *
                    fb::FeedbackCosts::redis().process_per_frame));
    // Data ledger: trajectory frames written during this interval.
    const double cg_frames = running_cg * cfg_.feedback_interval_s /
                             RateModel::cg_frame_interval_s;
    ledger.bytes_cg_frames += cg_frames * RateModel::cg_frame_bytes;
    ledger.bytes_cg_analysis += cg_frames * RateModel::cg_analysis_bytes;
    ledger.files_total +=
        static_cast<std::uint64_t>(cg_frames * kFilesPerCgFrame);
  }
  if (running_aa > 0) {
    // AA->CG: fewer frames, ~2 s each through external calls, pooled.
    const double aa_frames = running_aa * cfg_.feedback_interval_s /
                             RateModel::aa_frame_interval_s;
    const auto frames = static_cast<std::size_t>(aa_frames);
    result_.aa2cg_stats.push_back(feedback_iteration(
        frames, 60.0 + 2.0 * static_cast<double>(frames) / 6.0));
    ledger.bytes_aa_frames += aa_frames * RateModel::aa_frame_bytes;
    ledger.files_total += static_cast<std::uint64_t>(aa_frames);
  }
}

void CampaignRun::profile_tick() {
  result_.profiler.sample(t_offset_ + engine_.now(), scheduler_);
  // Registry gauges are freshest right after a profile sample — snapshot
  // into the attached telemetry sink (if any), stamped with campaign time.
  obs::report_sample(t_offset_ + engine_.now());
}

void CampaignRun::checkpoint_tick() {
  ++result_.checkpoints_written;
  {
    // Checkpoint serialization is real wall-clock work inside the
    // coordination loop; the span + histogram expose its cost.
    obs::Span span("wm.checkpoint", "wm");
    // The outermost persistence boundary pair: a crash at .pre must recover
    // the previous checkpoint generation, a crash at .post the one just
    // written. Each fires once per tick, so the sweep's "nth hit" selects
    // the checkpoint tick to kill.
    util::crash_point("wm.checkpoint.pre");
    save_checkpoint();
    util::crash_point("wm.checkpoint.post");
    obs::histogram("wm.checkpoint_s", 0.0, 1.0, 50)
        .observe(span.elapsed_us() * 1e-6);
  }
  obs::counter("wm.checkpoints").inc();
}

void CampaignRun::save_checkpoint() {
  Campaign::ResumeState rs;
  rs.flat_run = flat_run_;
  rs.time_into_run_s = resume_base_s_ + engine_.now();  // absolute offset
  rs.rng = c_.rng_.save_state();
  rs.next_patch_id = c_.next_patch_id_;
  rs.next_frame_id = c_.next_frame_id_;

  // In-flight work in ascending job-id (submission) order; running sims'
  // checkpointed progress includes time since they started.
  std::unordered_map<std::uint64_t, double> running_for;
  // A payload may be in flight twice (original + speculative twin); it must
  // resume exactly once.
  std::set<std::pair<const std::vector<std::uint64_t>*, std::uint64_t>> seen;
  auto active = scheduler_.active_jobs();
  std::sort(active.begin(), active.end());
  for (const sched::JobId id : active) {
    const sched::Job& job = scheduler_.job(id);
    const auto& type = job.spec.type;
    const bool is_sim = type == job_type::kCgSim || type == job_type::kAaSim;
    auto* fly = type == job_type::kCgSim     ? &rs.inflight_cg
                : type == job_type::kAaSim   ? &rs.inflight_aa
                : type == job_type::kCgSetup ? &rs.inflight_cg_setup
                : type == job_type::kAaSetup ? &rs.inflight_aa_setup
                                             : nullptr;
    if (fly == nullptr) continue;
    if (seen.emplace(fly, job.spec.payload).second)
      fly->push_back(job.spec.payload);
    // Hung jobs accrue no progress; their sims resume from the last
    // checkpointed position instead.
    if (is_sim && job.state == sched::JobState::kRunning &&
        !executor_.is_hung(id))
      running_for[job.spec.payload] = engine_.now() - job.start_time;
  }

  rs.sims.assign(c_.sims_.begin(), c_.sims_.end());
  std::sort(rs.sims.begin(), rs.sims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [payload, ls] : rs.sims) {
    const auto it = running_for.find(payload);
    if (it != running_for.end())
      ls.progress =
          std::min(ls.target, ls.progress + ls.rate_per_s * it->second);
  }

  util::ByteWriter w(std::move(c_.checkpoint_buffer_));
  w.u32(kCheckpointVersion);
  Save io{w};
  checkpoint_fields(io, rs, result_, tally(), *wm_);
  util::CheckpointFile(cfg_.checkpoint_path).save(w.data());
  c_.checkpoint_buffer_ = std::move(w).take();
}

RunTally CampaignRun::tally() const {
  RunTally t;
  t.faults_injected = injector_.fired().size();
  t.fault_jobs_killed = injector_.jobs_killed();
  if (supervisor_) {
    t.supervision = supervisor_->stats();
    t.supervision_log = supervisor_->decisions();
  }
  return t;
}

WorkflowManager::CarryOver CampaignRun::teardown() {
  // Checkpoint-and-carry: interrupted sims resume next allocation from their
  // checkpoints, ahead of fresh ones; interrupted setups are requeued.
  std::vector<std::uint64_t> resume_cg, resume_aa;
  std::set<std::uint64_t> torn_down_sims, torn_down_setups;
  for (const sched::JobId id : scheduler_.active_jobs()) {
    const sched::Job& job = scheduler_.job(id);
    const auto& type = job.spec.type;
    // Hung jobs made no progress since launch; their payloads still carry
    // over, so a hang costs at most the rest of this allocation.
    const bool was_running =
        job.state == sched::JobState::kRunning && !executor_.is_hung(id);
    if (type == job_type::kCgSim || type == job_type::kAaSim) {
      auto it = c_.sims_.find(job.spec.payload);
      if (it != c_.sims_.end() && was_running) {
        LogicalSim& ls = it->second;
        ls.progress = std::min(
            ls.target,
            ls.progress + ls.rate_per_s * (walltime_s_ - job.start_time));
        if (ls.progress >= ls.target) {
          record_sim(result_, ls);
          c_.sims_.erase(it);
          torn_down_sims.insert(job.spec.payload);  // twin must not resume it
          scheduler_.cancel(id);
          continue;
        }
      }
      // An original and its speculative twin share a payload; it resumes
      // exactly once.
      if (torn_down_sims.insert(job.spec.payload).second)
        (type == job_type::kCgSim ? resume_cg : resume_aa)
            .push_back(job.spec.payload);
    } else if (type == job_type::kCgSetup || type == job_type::kAaSetup) {
      if (torn_down_setups.insert(job.spec.payload).second)
        wm_->requeue_setup(type, job.spec.payload);
    }
    scheduler_.cancel(id);
  }
  auto carry = wm_->carry_over();
  prepend(carry.ready_cg, resume_cg);
  prepend(carry.ready_aa, resume_aa);

  // Backmap data volumes from completed AA setups this run.
  const auto backmaps = static_cast<double>(
      trackers_.tracker(job_type::kAaSetup).counters().completed);
  result_.ledger.bytes_backmap +=
      backmaps *
      (RateModel::backmap_local_bytes + RateModel::backmap_gpfs_bytes);
  result_.ledger.files_total += static_cast<std::uint64_t>(backmaps) * 4;

  tally().fold_into(result_);
  // The ledger carries across allocations; the last run's view is cumulative.
  result_.quarantined = wm_->quarantine_ledger().quarantined_keys();
  return carry;
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      next_frame_id_(kFrameIdBase) {
  if (config_.checkpoint_interval_s > 0 && config_.checkpoint_path.empty())
    throw util::ConfigError(
        "campaign: checkpoint_interval_s > 0 requires a checkpoint_path");
  config_.faults.validate();
}

Campaign::~Campaign() = default;

Campaign::LogicalSim& Campaign::logical_sim(std::uint64_t payload, bool is_aa,
                                            bool degraded) {
  auto it = sims_.find(payload);
  if (it != sims_.end()) return it->second;
  LogicalSim ls;
  ls.is_aa = is_aa;
  if (is_aa) {
    const auto sample = config_.perf.sample_aa(rng_);
    ls.rate_per_s = sample.ns_per_second();
    ls.size = sample.atoms;
    ls.target = rng_.uniform(config_.aa_min_ns, config_.aa_max_ns);
  } else {
    const auto sample = config_.perf.sample_cg(rng_, degraded);
    ls.rate_per_s = sample.us_per_second();
    ls.size = sample.particles;
    ls.target = std::min(
        config_.cg_max_us,
        config_.cg_min_us +
            rng_.exponential(1.0 / (config_.cg_mean_us - config_.cg_min_us)));
  }
  return sims_.emplace(payload, ls).first->second;
}

std::optional<std::uint64_t> Campaign::try_load_checkpoint(
    CampaignResult& result) {
  if (config_.checkpoint_path.empty()) return std::nullopt;
  // The resume's cost: this load and decode, then the WM restore in the
  // first CampaignRun (both spans are named wm.resume).
  obs::Span span("wm.resume", "wm");
  auto payload = util::CheckpointFile(config_.checkpoint_path).load();
  if (!payload) return std::nullopt;

  ResumeState rs;
  rs.payload = std::move(*payload);
  util::ByteReader r(rs.payload);
  MUMMI_CHECK_MSG(r.u32() == kCheckpointVersion,
                  "unknown campaign checkpoint version");
  RunTally interrupted;
  Load io{r};
  checkpoint_fields(io, rs, result, interrupted, rs.wm_state);
  if (!r.at_end())
    throw util::FormatError("campaign checkpoint has trailing bytes");
  // The resume position must name a run of this schedule and a point inside
  // that run's walltime: run() would skip every run past the schedule, and a
  // time outside [0, walltime] stretches the allocation or makes it NaN.
  const RunSpec* run = nullptr;
  std::uint64_t first = 0;  // flat index of the first run of `spec`
  for (const auto& spec : config_.runs) {
    const auto n = static_cast<std::uint64_t>(std::max(spec.count, 0));
    if (rs.flat_run - first < n) {
      run = &spec;
      break;
    }
    first += n;
  }
  if (run == nullptr)
    throw util::FormatError("campaign checkpoint: resume run not scheduled");
  if (!(rs.time_into_run_s >= 0 &&
        rs.time_into_run_s <= run->walltime_h * 3600.0))
    throw util::FormatError("campaign checkpoint: resume time outside its run");
  interrupted.fold_into(result);
  result.resumed_from_checkpoint = true;

  rng_.load_state(rs.rng);
  next_patch_id_ = rs.next_patch_id;
  next_frame_id_ = rs.next_frame_id;
  sims_.clear();
  for (const auto& [payload, ls] : rs.sims) sims_.emplace(payload, ls);
  rs.sims.clear();
  rs.load_s = span.elapsed_us() * 1e-6;
  // Moving the payload vector keeps its buffer, so wm_state stays valid.
  resume_ = std::move(rs);
  util::log_info("campaign: resuming run ", resume_->flat_run,
                 " from checkpoint ", config_.checkpoint_path, " (",
                 resume_->time_into_run_s, " s into the run)");
  return resume_->flat_run;
}

CampaignResult Campaign::run() {
  CampaignResult result;
  double hours_total = 0;
  for (const auto& run : config_.runs) hours_total += run.walltime_h * run.count;

  patch_selector_ =
      std::make_unique<PatchSelector>(9, 5, 35000, config_.insitu_pool);
  frame_selector_ = std::make_unique<FrameSelector>(0.8, rng_());
  {
    // In-situ analysis fan-out: per-sim streams are counter-based (never the
    // shared rng_), so the pool only trades wall time for tick latency.
    insitu_ = std::make_unique<InSituPlane>(
        config_.seed ^ 0xa5a5a5a5a5a5a5a5ULL, config_.insitu_pool);
  }
  // Crash recovery: a checkpoint left by an interrupted campaign with this
  // config resumes the interrupted run with its remaining walltime.
  const std::optional<std::uint64_t> resume_run = try_load_checkpoint(result);

  WorkflowManager::CarryOver carry;
  double hours_done = 0;
  std::uint64_t flat = 0;
  for (const auto& run : config_.runs) {
    result.table1.push_back(RunRow{run.nodes, run.walltime_h, run.count});
    for (int i = 0; i < run.count; ++i, ++flat) {
      double walltime_h = run.walltime_h;
      if (resume_run) {
        if (flat < *resume_run) {  // completed before the crash
          hours_done += run.walltime_h;
          continue;
        }
        if (flat == *resume_run && resume_) {
          const double into_h = resume_->time_into_run_s / 3600.0;
          hours_done += into_h;
          // At least one virtual second remains, so the run always executes
          // and restores the checkpointed WM/selector state into play.
          walltime_h = std::max(walltime_h - into_h, 1.0 / 3600.0);
        }
      }
      carry = CampaignRun(*this, result, carry, flat, run.nodes, walltime_h,
                          hours_done, hours_total)
                  .run();
      hours_done += walltime_h;
      util::log_info("campaign: finished run ", run.nodes, " nodes x ",
                     run.walltime_h, " h (", hours_done, "/", hours_total,
                     " h)");
    }
    result.node_hours += result.table1.back().node_hours();
  }

  // Record sims still in flight at the very end of the campaign.
  for (const auto& [payload, ls] : sims_)
    if (ls.progress > 0) record_sim(result, ls);
  sims_.clear();

  result.patches_selected = patch_selector_->selected_count();
  result.frames_selected = frame_selector_->selected_count();

  // The campaign finished; a stale checkpoint must not hijack the next one.
  if (!config_.checkpoint_path.empty())
    util::CheckpointFile(config_.checkpoint_path).remove();
  return result;
}

}  // namespace mummi::wm
