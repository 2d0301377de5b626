// Job descriptions and lifecycle states.
#pragma once

#include <cstdint>
#include <string>

#include "resgraph/matcher.hpp"

namespace mummi::sched {

using JobId = std::uint64_t;
constexpr JobId kInvalidJob = 0;

enum class JobState {
  kPending,    // submitted, waiting for resources
  kRunning,    // resources allocated, payload executing
  kCompleted,  // finished successfully
  kFailed,     // finished unsuccessfully (tracker may resubmit)
  kCancelled,  // withdrawn before or during execution
};

[[nodiscard]] const char* to_string(JobState state);

/// What to run and what it needs. `type` binds the job to a JobTracker and
/// an executor payload ("cg_setup", "cg_sim", "aa_setup", "aa_sim", ...).
struct JobSpec {
  std::string name;
  std::string type;
  Request request;
  /// Duration hint for simulated executors (seconds); real executors ignore.
  double est_duration = 0.0;
  /// Opaque application handle (patch id, frame id, ...).
  std::uint64_t payload = 0;
  /// A speculative twin names the job it duplicates (Supervisor pairing).
  JobId twin_of = kInvalidJob;
  /// >= 0: a supervision canary probing that node.
  int canary_node = -1;

  /// Convenience: an unbundled simulation job (1 GPU + `cores` CPU cores),
  /// the paper's Sec. 4.3 placement for CG/AA simulation+analysis.
  static JobSpec gpu_sim(std::string name, std::string type, int cores = 3) {
    JobSpec spec;
    spec.name = std::move(name);
    spec.type = std::move(type);
    spec.request.slot = Slot{cores, 1};
    return spec;
  }

  /// Convenience: a CPU-only setup job (createsim/backmapping use 24/18
  /// cores within one node).
  static JobSpec cpu_setup(std::string name, std::string type, int cores) {
    JobSpec spec;
    spec.name = std::move(name);
    spec.type = std::move(type);
    spec.request.slot = Slot{cores, 0};
    return spec;
  }
};

/// Scheduler-side record of a job.
struct Job {
  JobId id = kInvalidJob;
  JobSpec spec;
  JobState state = JobState::kPending;
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  Allocation alloc;
  /// True when the job failed because its node died (Scheduler::fail_node),
  /// not because the payload itself misbehaved. Retry policies use this to
  /// attribute the death: node-caused kills do not consume restart budget.
  bool killed_by_node = false;
};

}  // namespace mummi::sched
