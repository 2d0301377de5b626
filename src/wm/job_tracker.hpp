// Job trackers (paper Sec. 4.3).
//
// "To support handling arbitrary types of jobs, we provide a generic and
// abstract Job Tracker that can be customized using a combination of
// inherited classes and configuration files." A tracker owns one job type:
// its resource shape, duration expectations, restart policy and counters.
// The WorkflowManager consults trackers for specs and failure handling.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "sched/job.hpp"
#include "util/config.hpp"

namespace mummi::wm {

/// The job types of the MuMMI workflow: tracker keys and JobSpec::type
/// values. The WM, the campaign and the supervision plane all name them here.
namespace job_type {
inline constexpr char kCgSetup[] = "cg_setup";  // createsim
inline constexpr char kCgSim[] = "cg_sim";
inline constexpr char kAaSetup[] = "aa_setup";  // backmapping
inline constexpr char kAaSim[] = "aa_sim";
/// Node-probation probe. It has no tracker; the Supervisor interprets its
/// completion.
inline constexpr char kCanary[] = "canary";
/// The continuum model. It has no tracker; the campaign reloads it itself.
inline constexpr char kContinuum[] = "continuum";
}  // namespace job_type

struct JobTypeConfig {
  std::string type;          // e.g. job_type::kCgSim
  sched::Request request;    // resource shape per job
  int max_restarts = 2;      // resubmissions after failure
  double mean_duration = 0;  // seconds (executor hint)
  double sigma_duration = 0; // lognormal spread of duration
};

class JobTracker {
 public:
  explicit JobTracker(JobTypeConfig config) : config_(std::move(config)) {}
  virtual ~JobTracker() = default;

  [[nodiscard]] const JobTypeConfig& config() const { return config_; }
  [[nodiscard]] const std::string& type() const { return config_.type; }

  /// Builds a submittable spec for a logical work item.
  [[nodiscard]] virtual sched::JobSpec make_spec(std::uint64_t payload) const;

  /// The retry policy: should a finished job be resubmitted, given how many
  /// times its payload was already restarted? The WorkflowManager asks this
  /// for every failure it may retry. Default: failed jobs retry up to
  /// max_restarts; node-crash kills (job.killed_by_node) always retry, and
  /// the WM does not count them in `restarts`.
  [[nodiscard]] virtual bool should_resubmit(const sched::Job& job,
                                             int restarts) const;

  /// Counters the WM maintains through notify(). `failed` counts genuine
  /// payload failures; `killed_by_fault` counts node-caused deaths (the two
  /// are disjoint — attribution decides restart-budget charging).
  struct Counters {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t restarted = 0;
    std::size_t killed_by_fault = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  void note_submitted() { ++counters_.submitted; }
  void note_completed() { ++counters_.completed; }
  void note_failed() { ++counters_.failed; }
  void note_restarted() { ++counters_.restarted; }
  void note_killed_by_fault() { ++counters_.killed_by_fault; }

  /// Builds a tracker from configuration, e.g.:
  ///   [job.cg_sim]
  ///   cores = 3
  ///   gpus = 1
  ///   nslots = 1
  ///   max_restarts = 2
  ///   mean_duration = 86400
  static JobTypeConfig config_from(const util::Config& cfg,
                                   const std::string& type);

 protected:
  JobTypeConfig config_;
  Counters counters_;
};

/// Registry keyed by job type.
class TrackerSet {
 public:
  void add(std::unique_ptr<JobTracker> tracker);
  [[nodiscard]] JobTracker& tracker(const std::string& type);
  [[nodiscard]] const JobTracker& tracker(const std::string& type) const;
  [[nodiscard]] bool has(const std::string& type) const;
  [[nodiscard]] std::vector<std::string> types() const;

 private:
  std::map<std::string, std::unique_ptr<JobTracker>> trackers_;
};

}  // namespace mummi::wm
