// Campaign simulator: the Summit campaign in virtual time.
//
// Reproduces the coordination-layer behaviour of the Dec 2020 - Mar 2021
// RAS-RAF-PM campaign (paper Sec. 5): the Table-1 run schedule, checkpointed
// continuation across allocations, ML-driven selection, setup/sim buffers,
// feedback cadence, the 10-minute occupancy profiler and the data ledger.
//
// The scheduler, queue manager, selectors, workflow manager and trackers are
// the real library classes running under a virtual clock; job durations and
// data rates come from wm::PerfModel / wm::RateModel (calibrated to paper
// Sec. 4.1). Patch/frame *contents* are synthetic encodings — selection
// dynamics depend only on the encoded distributions, not on the underlying
// MD, which runs for real in the examples and tests instead.
#pragma once

#include <optional>
#include <vector>

#include "coupling/analysis.hpp"
#include "event/sim_engine.hpp"
#include "fault/crash_point.hpp"
#include "fault/fault_plan.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wm/perf_model.hpp"
#include "wm/profiler.hpp"
#include "wm/workflow_manager.hpp"

namespace mummi::wm {

/// Thrown when CampaignConfig::crash_at_campaign_h fires — a hard,
/// mid-allocation death of the coordination process (no teardown, no
/// checkpoint-and-carry) — and by armed fault::CrashPointRegistry points at
/// persistence boundaries. Recovery is a fresh Campaign with the same config
/// whose run() resumes from the last periodic checkpoint.
using SimulatedCrash = fault::SimulatedCrash;

struct RunSpec {
  int nodes = 100;
  double walltime_h = 6;
  int count = 1;
};

struct CampaignConfig {
  /// Table 1 by default.
  std::vector<RunSpec> runs = {
      {100, 6, 5}, {100, 12, 3}, {500, 12, 3}, {1000, 24, 20}, {4000, 24, 1}};

  PerfModel perf;
  sched::QueueConfig queue;  // async by default; tests run it synchronous
  sched::MatchPolicy match_policy = sched::MatchPolicy::kFirstMatch;

  // Continuum job shape (150 nodes x 24 cores on the big runs).
  static constexpr int continuum_nodes_max = 150;
  static constexpr int continuum_cores_per_node = 24;

  // Cadences (seconds of virtual wall time). The continuum snapshot cadence
  // is RateModel::continuum_snapshot_interval_s.
  static constexpr double maintain_interval_s = 60;
  static constexpr int submit_budget_per_maintain = 100;  // jobs/min throttle
  static constexpr double feedback_interval_s = 300;
  static constexpr double profile_interval_s = 600;

  // Patch/frame synthesis rates.
  int proteins_per_snapshot = 333;
  static constexpr double frame_candidates_per_us = 102.0;  // 9.8M / 96.7 ms CG
  double frame_candidate_scale = 1.0;      // <1 subsamples (memory relief)

  // Trajectory-length targets (tuned so completed-sim means match Sec. 5.1:
  // ~2.8 us/CG sim, 34.5k CG sims; 50-65 ns/AA sim, ~9.6k AA sims).
  double cg_min_us = 0.5, cg_mean_us = 4.0, cg_max_us = 5.0;
  static constexpr double aa_min_ns = 50.0, aa_max_ns = 65.0;

  // The incompatible-MPI episode degrading CG throughput for the first
  // third of the campaign (Sec. 5.1).
  static constexpr double degraded_until_fraction = 0.33;

  double sim_failure_prob = 0.005;  // per-job failure odds
  std::uint64_t seed = 7;

  // --- resilience (Sec. 4.4: "everything fails at scale") ------------------
  /// Infrastructure fault rates; empty() disables injection. Each run draws
  /// its own plan from faults.seed mixed with the flat run index, so the
  /// whole campaign stays deterministic. The Campaign constructor throws
  /// util::ConfigError when FaultSpec::validate() rejects it.
  fault::FaultSpec faults;

  /// Campaign supervision plane (watchdogs, speculative twins, poison
  /// quarantine, node probation). Disabled by default so figure runs are
  /// bit-identical with and without this subsystem built in.
  supervise::SuperviseConfig supervise;

  /// Poison-work model: payloads whose id is a nonzero multiple of this
  /// modulus deterministically fail every job_type::kCgSetup attempt —
  /// the "work item that kills whatever runs it" pattern the quarantine
  /// ledger exists for. 0 disables.
  std::uint64_t poison_payload_modulus = 0;

  /// Periodic campaign checkpoint cadence (virtual seconds); 0 disables.
  /// Requires checkpoint_path: the Campaign constructor throws
  /// util::ConfigError without one. A fresh Campaign with the same config resumes
  /// from the newest checkpoint automatically (and removes it on success).
  double checkpoint_interval_s = 0;
  std::string checkpoint_path;

  /// Test/bench aid: hard-kill the coordination process (SimulatedCrash)
  /// once this many campaign hours have elapsed. 0 disables.
  double crash_at_campaign_h = 0;

  /// Pool for the in-situ analysis fan-out inside the maintain tick, for
  /// the Patch Selector's rank refresh and for the transform step of
  /// snapshot synthesis (the draws stay on the caller); null is serial. The
  /// pool size only changes wall time: CampaignResult::science_fingerprint()
  /// is byte-identical at any thread count.
  util::ThreadPool* insitu_pool = nullptr;
};

struct RunRow {
  int nodes = 0;
  double walltime_h = 0;
  int count = 0;
  [[nodiscard]] double node_hours() const { return nodes * walltime_h * count; }
};

struct CampaignResult {
  std::vector<RunRow> table1;
  double node_hours = 0;

  Profiler profiler;  // merged profile events across all runs

  // Fig. 3: trajectory-length distributions (completed + truncated sims).
  std::vector<double> cg_lengths_us;
  std::vector<double> aa_lengths_ns;

  // Fig. 4: performance samples.
  std::vector<std::pair<double, double>> cg_perf;  // (particles, us/day)
  std::vector<std::pair<double, double>> aa_perf;  // (atoms, ns/day)
  std::vector<double> continuum_ms_per_day;        // one sample per snapshot

  // Campaign totals (Sec. 5.1 paragraph).
  std::uint64_t snapshots = 0;
  std::uint64_t patches_created = 0;
  std::uint64_t patches_selected = 0;
  std::uint64_t frame_candidates = 0;
  std::uint64_t frames_selected = 0;
  double continuum_total_us = 0;
  double cg_total_us = 0;
  double aa_total_ns = 0;

  DataLedger ledger;

  // Feedback iteration stats (virtual durations).
  std::vector<fb::IterationStats> cg2cont_stats;
  std::vector<fb::IterationStats> aa2cg_stats;

  // Resilience accounting (when CampaignConfig::faults is active).
  std::uint64_t faults_injected = 0;    // fault events applied
  std::uint64_t fault_jobs_killed = 0;  // running jobs killed by node crashes
  std::uint64_t checkpoints_written = 0;
  bool resumed_from_checkpoint = false;

  // In-situ analysis plane outcomes: frames analyzed by the per-sim
  // CgAnalysis fan-out and the merged protein-lipid RDF feedback (both part
  // of the science fingerprint; folded in ascending sim-id order, so
  // byte-identical at any insitu_pool size).
  std::uint64_t analysis_frames = 0;
  coupling::RdfSet rdf_feedback;

  // Supervision plane outcomes (all zero when supervise.enabled is false).
  supervise::SupervisionStats supervision;
  /// Decision log across all runs, in decision order — byte-identical for
  /// identical (config, seed) and the anchor of the determinism tests.
  std::vector<std::string> supervision_log;
  /// Quarantined "type:payload" keys at campaign end, ascending.
  std::vector<std::string> quarantined;

  /// Canonical byte encoding of every *science* outcome above — totals,
  /// distributions, ledger, supervision decisions — excluding bookkeeping
  /// that legitimately differs across a crash/resume (checkpoints_written,
  /// resumed_from_checkpoint, profiler occupancy samples, feedback timing
  /// diagnostics). Two runs that recovered the same durable state produce
  /// equal fingerprints; the crash-point sweep asserts exactly that.
  [[nodiscard]] util::Bytes science_fingerprint() const;
};

class InSituPlane;

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);
  ~Campaign();  // out of line: InSituPlane is incomplete here

  /// Runs the whole schedule; deterministic for a given config.
  CampaignResult run();

 private:
  friend class CampaignRun;  // one allocation of the schedule (campaign.cpp)

  struct LogicalSim {
    bool is_aa = false;
    double target = 0;    // us (CG) or ns (AA)
    double progress = 0;
    double rate_per_s = 0;
    double size = 0;      // particles / atoms
  };

  LogicalSim& logical_sim(std::uint64_t payload, bool is_aa, bool degraded);

  /// Mid-run crash recovery: the campaign-level state a periodic checkpoint
  /// carries besides the result accumulators. The first run of a resumed
  /// campaign consumes it.
  struct ResumeState {
    std::uint64_t flat_run = 0;  // index of the interrupted run
    double time_into_run_s = 0;  // virtual seconds into that run
    util::Rng::State rng{};
    std::uint64_t next_patch_id = 0, next_frame_id = 0;
    // Live sims in ascending payload order, progress as of the checkpoint.
    std::vector<std::pair<std::uint64_t, LogicalSim>> sims;
    // Payloads in flight at checkpoint time, resumed ahead of fresh work.
    std::vector<std::uint64_t> inflight_cg, inflight_aa;
    std::vector<std::uint64_t> inflight_cg_setup, inflight_aa_setup;
    // The loaded checkpoint payload, kept whole: the resumed run restores
    // the WM in place from wm_state, its section of the payload.
    util::Bytes payload;
    util::ByteReader wm_state{nullptr, 0};
    double load_s = 0;  // wall time of the load, for wm.resume_s
  };

  /// Loads config_.checkpoint_path if present, restoring campaign-level
  /// state and `result` accumulators. Returns the interrupted flat run index
  /// (nullopt = start fresh).
  std::optional<std::uint64_t> try_load_checkpoint(CampaignResult& result);

  CampaignConfig config_;
  util::Rng rng_;
  std::unique_ptr<InSituPlane> insitu_;
  std::unordered_map<std::uint64_t, LogicalSim> sims_;
  std::unique_ptr<PatchSelector> patch_selector_;
  std::unique_ptr<FrameSelector> frame_selector_;
  std::uint64_t next_patch_id_ = 1;
  std::uint64_t next_frame_id_ = 1;
  std::optional<ResumeState> resume_; // consumed by the first resumed run
  // The last checkpoint's serialization buffer, refilled by the next one: at
  // tens of MB, growing a fresh buffer (fresh pages, repeated copies) costs
  // several times the encoding itself.
  util::Bytes checkpoint_buffer_;
};

}  // namespace mummi::wm
