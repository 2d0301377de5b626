// The Workflow Manager (paper Sec. 4.4).
//
// "MuMMI is coordinated by a configurable Workflow Manager (WM).
// Generically, the role of the WM is to couple the scales by consuming
// relevant data, supporting ML-based selection, spawning the corresponding
// simulations, and facilitating a feedback loop ... The WM is also
// responsible for tracking all running jobs, managing data, profiling, and
// several other tasks."
//
// Tasks mapped to this class:
//   Task 1 (process coarse data)  -> ingest_patches()/ingest_frames(); the
//     caller parses snapshots/trajectories (PatchCreator, CgAnalysis) or a
//     synthetic source at campaign scale.
//   Task 2 (ML selection)         -> the PatchSelector/FrameSelector, consulted
//     inside maintain() when new setups are needed.
//   Task 3 (job management)       -> maintain(): scans buffers and capacity,
//     replaces finished/failed jobs, keeps "sets of CG and AA simulations
//     prepared in anticipation" of free GPUs.
//   Task 4 (feedback)             -> FeedbackManagers registered by the app,
//     run by run_feedback().
#pragma once

#include <deque>
#include <functional>

#include "feedback/feedback_manager.hpp"
#include "supervise/supervisor.hpp"
#include "wm/job_tracker.hpp"
#include "wm/maestro.hpp"
#include "wm/selectors.hpp"

namespace mummi::wm {

struct WmConfig {
  /// Fraction of total GPUs reserved for CG simulations (paper: 60-80%);
  /// the remainder goes to AA.
  double gpu_frac_cg = 0.78;

  /// Target number of prepared-and-waiting simulations per scale — "sets of
  /// CG and AA simulations are kept prepared (setup completed) in
  /// anticipation ... a trade-off between readiness ... and simulating stale
  /// configurations."
  int cg_ready_target = 60;
  int aa_ready_target = 30;

  /// Poison-work quarantine: strikes (failures/hangs, or node kills on that
  /// many distinct nodes) before a payload is never resubmitted.
  static constexpr int quarantine_strikes = 3;

  /// Duration of a node-probation canary probe (job_type::kCanary).
  static constexpr double canary_duration_s = 60.0;
};

class WorkflowManager : public supervise::WorkloadControl {
 public:
  using SimFinishedFn = std::function<void(const sched::Job&)>;

  WorkflowManager(WmConfig config, Maestro& maestro, TrackerSet& trackers,
                  PatchSelector& patch_selector, FrameSelector& frame_selector);

  /// Task 1 entry points. The PointStore overloads are the bulk path —
  /// encoders emit straight into flat stores, no per-point allocations. The
  /// vector overloads convert through ml::PointStore::from_points first.
  void ingest_patches(int queue, const std::vector<ml::HDPoint>& points);
  void ingest_patches(int queue, const ml::PointStore& points);
  void ingest_frames(const std::vector<ml::HDPoint>& points);
  void ingest_frames(const ml::PointStore& points);

  /// Task 3: refills the machine. Submits at most `submit_budget` jobs (the
  /// WM's submission throttle); returns how many were submitted.
  int maintain(int submit_budget);

  /// Task 4: registered feedback managers, executed in order.
  void add_feedback(fb::FeedbackManager* manager) {
    feedback_.push_back(manager);
  }
  std::vector<fb::IterationStats> run_feedback();

  /// Wire this to Maestro::on_finish (done automatically in the ctor).
  void handle_finish(const sched::Job& job);

  /// Fired when a *simulation* job (cg_sim/aa_sim) reaches a terminal state;
  /// the application records trajectory lengths, persists results, etc.
  void on_sim_finished(SimFinishedFn fn) { sim_finished_ = std::move(fn); }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] int running(const std::string& type) const;
  /// Ascending unique payloads of currently *running* jobs of `type`, with an
  /// optional exclusion predicate (e.g. the campaign filters hung jobs). A
  /// payload with both an original and a speculative twin appears once. The
  /// in-situ analysis fan-out iterates this list and folds its results in
  /// this order, so the ordering is part of the determinism contract.
  [[nodiscard]] std::vector<std::uint64_t> running_payloads(
      const std::string& type,
      const std::function<bool(const sched::Job&)>& exclude = nullptr) const;
  [[nodiscard]] int pending(const std::string& type) const;
  [[nodiscard]] std::size_t cg_ready() const { return ready_cg_.size(); }
  [[nodiscard]] std::size_t aa_ready() const { return ready_aa_.size(); }

  /// GPU capacity split for the current machine.
  [[nodiscard]] int cg_capacity() const;
  [[nodiscard]] int aa_capacity() const;

  /// Re-queues a setup whose job was interrupted (end of allocation); these
  /// drain before new selections are made.
  void requeue_setup(const std::string& type, std::uint64_t payload);

  // --- supervision plane (supervise::WorkloadControl) ---------------------
  /// Resubmits a watchdog-cancelled hung payload. Hang retries do not consume
  /// max_restarts — the quarantine ledger bounds repeat offenders instead.
  void resubmit_hung(const sched::Job& job) override;
  /// Submits a speculative twin of a straggling job (`twin_of` names it).
  bool launch_speculative(const sched::Job& job) override;
  /// Canary probe pinned to `node` (job_type::kCanary).
  bool submit_canary(int node) override;
  [[nodiscard]] supervise::QuarantineLedger& quarantine() override {
    return quarantine_;
  }
  [[nodiscard]] const supervise::QuarantineLedger& quarantine_ledger() const {
    return quarantine_;
  }
  /// Supervisor hook: when set and true for a failed job, handle_finish skips
  /// resubmission (a live speculative twin is already the retry).
  void set_resubmit_veto(std::function<bool(const sched::Job&)> fn) {
    resubmit_veto_ = std::move(fn);
  }

  /// Carry-over state between allocations: ready buffers and interrupted
  /// setups survive runs ("MuMMI can seamlessly (re)start runs at different
  /// computational scales").
  struct CarryOver {
    std::deque<std::uint64_t> ready_cg;
    std::deque<std::uint64_t> ready_aa;
    std::deque<std::uint64_t> requeued_cg_setup;
    std::deque<std::uint64_t> requeued_aa_setup;
    // The poison ledger survives allocations.
    supervise::QuarantineLedger quarantine{WmConfig::quarantine_strikes};
  };
  [[nodiscard]] CarryOver carry_over() const;
  void restore_carry_over(const CarryOver& state);

  /// Full WM state to/from bytes: buffers, requeues, restart counts, both
  /// selectors and the quarantine ledger — everything needed to "be restored
  /// completely after any such crash" (Sec. 4.4). serialize() appends to
  /// `w`; restore() reads from `r`, all or nothing: on malformed bytes it
  /// throws and changes nothing. Pair with util::CheckpointFile for
  /// armored disk I/O.
  void serialize(util::ByteWriter& w) const;
  void restore(util::ByteReader& r);

 private:
  void bump(std::unordered_map<std::string, int>& map, const std::string& key,
            int delta);
  int submit_via_tracker(const std::string& type, std::uint64_t payload);

  WmConfig config_;
  Maestro& maestro_;
  TrackerSet& trackers_;
  PatchSelector& patch_selector_;
  FrameSelector& frame_selector_;
  std::vector<fb::FeedbackManager*> feedback_;
  SimFinishedFn sim_finished_;

  std::deque<std::uint64_t> ready_cg_;  // payloads with setup complete
  std::deque<std::uint64_t> ready_aa_;
  std::deque<std::uint64_t> requeued_cg_setup_;
  std::deque<std::uint64_t> requeued_aa_setup_;
  std::unordered_map<std::string, int> running_;
  std::unordered_map<std::string, int> pending_;
  // Logical restart counts per payload (trackers bound resubmissions).
  std::unordered_map<std::uint64_t, int> restarts_;

  supervise::QuarantineLedger quarantine_;
  std::function<bool(const sched::Job&)> resubmit_veto_;
};

}  // namespace mummi::wm
