// Campaign supervision plane (paper Sec. 4.4; Workflows Community Roadmap
// "anomaly detection").
//
// The fault layer retries crisp failures; this layer covers the silent ones:
//   - watchdog: jobs past a hard deadline derived from their tracker's
//     mean/sigma are declared hung, cancelled and resubmitted — the one
//     defence against payloads that never invoke their completion;
//   - straggler mitigation: jobs past the soft deadline get a speculative
//     twin; first finisher wins, the loser is cancelled;
//   - poison quarantine: every failure/hang/node-kill strikes the logical
//     payload in the QuarantineLedger (owned by the workload so it rides the
//     WorkflowManager checkpoint); K strikes and the payload is never
//     resubmitted;
//   - node probation: nodes whose failure rate trips the NodeHealthTracker
//     are drained, probed with a pinned canary job, and undrained on success.
//
// Determinism: the supervisor holds no RNG. Every decision is a pure function
// of virtual time (tick schedule + scheduler callbacks, both fired in
// deterministic event order) and counters; ties iterate std::map<JobId,...>
// ascending. Identical seed + FaultSpec therefore reproduce a byte-identical
// decision log — the property the supervision tests pin down.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "supervise/node_health.hpp"
#include "supervise/quarantine.hpp"
#include "util/clock.hpp"

namespace mummi::obs {
class Counter;
}  // namespace mummi::obs

namespace mummi::supervise {

/// Expected duration statistics for one job type (from JobTypeConfig).
/// Types without a registered timing are not watched.
struct JobTiming {
  double mean_s = 0.0;
  double sigma_s = 0.0;
};

/// Actions the supervisor needs from the workload layer. WorkflowManager
/// implements this; the indirection keeps supervise/ below wm/ in the
/// dependency order.
class WorkloadControl {
 public:
  virtual ~WorkloadControl() = default;

  /// Resubmits the logical payload of a hung job the supervisor cancelled.
  /// Must consult quarantine() first; hang resubmissions do not consume the
  /// payload's max_restarts budget.
  virtual void resubmit_hung(const sched::Job& job) = 0;

  /// Submits a speculative duplicate of a straggling job. The twin's spec
  /// must set `twin_of` to the original's id.
  /// Returns false when the workload declines (unknown type, ...).
  virtual bool launch_speculative(const sched::Job& job) = 0;

  /// Submits a canary probe pinned to `node`; returns false if unavailable.
  virtual bool submit_canary(int node) = 0;

  /// The poison ledger — owned by the workload so it serializes into the
  /// same checkpoint blob as the rest of the WM state.
  virtual QuarantineLedger& quarantine() = 0;
};

/// Virtual seconds between supervision passes (Supervisor::tick).
inline constexpr double kTickIntervalS = 30.0;

struct SuperviseConfig {
  bool enabled = false;
  bool speculate = true;
  NodeHealthConfig node_health;
};

/// Aggregate outcome counters; merged across allocations by the campaign.
struct SupervisionStats {
  std::uint64_t hangs_detected = 0;
  std::uint64_t speculations = 0;
  std::uint64_t spec_wins = 0;    // twin finished first
  std::uint64_t spec_losses = 0;  // original finished first, twin wasted
  std::uint64_t quarantined = 0;
  std::uint64_t node_probations = 0;
  std::uint64_t canaries_ok = 0;
  std::uint64_t canaries_failed = 0;
  double first_quarantine_s = -1.0;

  void merge(const SupervisionStats& o);
};

class Supervisor {
 public:
  /// Registers on_start/on_finish on `scheduler`. Register the workload's
  /// own callbacks FIRST: the winner of a speculative pair must reach the
  /// workload before the supervisor cancels the loser.
  Supervisor(sched::Scheduler& scheduler, const util::Clock& clock,
             WorkloadControl& control, SuperviseConfig cfg);

  /// Registers duration expectations for a watched job type. Jobs take
  /// their deadlines from the timing registered when they start.
  void set_timing(const std::string& type, JobTiming timing);

  /// One supervision pass at virtual time `now`: watchdog deadlines and
  /// node probation. The campaign schedules this every kTickIntervalS.
  void tick(double now);

  [[nodiscard]] const SupervisionStats& stats() const { return stats_; }
  [[nodiscard]] const NodeHealthTracker& node_health() const { return health_; }

  /// Decision log: one line per supervision action, in decision order.
  /// Byte-identical across runs with the same seed + spec.
  [[nodiscard]] const std::vector<std::string>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] std::string log_text() const;

  /// True while `job` (an original) has a live or requested speculative twin
  /// — the workload's resubmit veto, so a failed original is not resubmitted
  /// on top of its still-running twin.
  [[nodiscard]] bool has_live_twin(sched::JobId id) const;

 private:
  struct Watch {
    std::string type;
    std::uint64_t payload = 0;
    double start_time = 0.0;
    double soft_s = 0.0;    // elapsed seconds before a twin is considered
    double hard_s = 0.0;    // elapsed seconds before the job counts as hung
    int node = -1;          // first allocated node (attribution)
    int canary_node = -1;   // >= 0: this job is a canary probing that node
    sched::JobId twin_of = sched::kInvalidJob;  // set on twins
    // Original whose twin was requested, whether or not it has started:
    // set before launch_speculative, cleared only if that declines.
    bool spec_requested = false;
    bool watched = false;         // type has a registered timing

    [[nodiscard]] bool is_twin() const { return twin_of != sched::kInvalidJob; }
  };

  void on_start(const sched::Job& job);
  void on_finish(const sched::Job& job);
  void handle_canary_finish(const Watch& watch, const sched::Job& job);
  void resolve_twin_finish(sched::JobId id, Watch& watch,
                           const sched::Job& job);
  void resolve_original_finish(sched::JobId id, const sched::Job& job);
  void strike(const Watch& watch, StrikeKind kind, int node);
  void log(double now, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  sched::Scheduler& scheduler_;
  const util::Clock& clock_;
  WorkloadControl& control_;
  SuperviseConfig cfg_;

  std::map<std::string, JobTiming> timings_;

  std::map<sched::JobId, Watch> watches_;  // ordered ⇒ deterministic sweeps
  std::map<sched::JobId, sched::JobId> twin_by_original_;
  /// Originals whose twin was requested but has not started yet.
  std::set<sched::JobId> twin_requested_;
  /// Originals that finished with their twin still unstarted: the twin is
  /// cancelled the moment it starts (or never, if it is tombstoned pending).
  std::set<sched::JobId> orphaned_originals_;

  NodeHealthTracker health_;
  int speculations_launched_ = 0;

  SupervisionStats stats_;
  std::vector<std::string> decisions_;

  struct Telemetry {
    obs::Counter* hangs = nullptr;
    obs::Counter* speculations = nullptr;
    obs::Counter* spec_wins = nullptr;
    obs::Counter* spec_losses = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* probations = nullptr;
    obs::Counter* canaries_ok = nullptr;
    obs::Counter* canaries_failed = nullptr;
  };
  Telemetry tm_;
};

}  // namespace mummi::supervise
