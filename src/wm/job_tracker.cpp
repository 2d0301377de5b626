#include "wm/job_tracker.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace mummi::wm {

sched::JobSpec JobTracker::make_spec(std::uint64_t payload) const {
  sched::JobSpec spec;
  spec.type = config_.type;
  spec.name = util::format("%s-%llu", config_.type.c_str(),
                           static_cast<unsigned long long>(payload));
  spec.request = config_.request;
  spec.est_duration = config_.mean_duration;
  spec.payload = payload;
  return spec;
}

bool JobTracker::should_resubmit(const sched::Job& job, int restarts) const {
  if (job.state != sched::JobState::kFailed) return false;
  // Restart-budget attribution: a job its node killed did nothing wrong —
  // always relocate it, without charging the payload's max_restarts budget.
  // Only genuine payload failures spend retries.
  if (job.killed_by_node) return true;
  return restarts < config_.max_restarts;
}

JobTypeConfig JobTracker::config_from(const util::Config& cfg,
                                      const std::string& type) {
  const std::string prefix = "job." + type + ".";
  JobTypeConfig out;
  out.type = type;
  out.request.slot.cores = static_cast<int>(cfg.get_int(prefix + "cores", 1));
  out.request.slot.gpus = static_cast<int>(cfg.get_int(prefix + "gpus", 0));
  out.request.nslots = static_cast<int>(cfg.get_int(prefix + "nslots", 1));
  out.request.one_slot_per_node = cfg.get_bool(prefix + "one_slot_per_node", false);
  out.max_restarts = static_cast<int>(cfg.get_int(prefix + "max_restarts", 2));
  out.mean_duration = cfg.get_double(prefix + "mean_duration", 0.0);
  out.sigma_duration = cfg.get_double(prefix + "sigma_duration", 0.0);
  return out;
}

void TrackerSet::add(std::unique_ptr<JobTracker> tracker) {
  MUMMI_CHECK(tracker != nullptr);
  const std::string type = tracker->type();
  MUMMI_CHECK_MSG(trackers_.emplace(type, std::move(tracker)).second,
                  "duplicate tracker for type: " + type);
}

JobTracker& TrackerSet::tracker(const std::string& type) {
  auto it = trackers_.find(type);
  MUMMI_CHECK_MSG(it != trackers_.end(), "no tracker for type: " + type);
  return *it->second;
}

const JobTracker& TrackerSet::tracker(const std::string& type) const {
  auto it = trackers_.find(type);
  MUMMI_CHECK_MSG(it != trackers_.end(), "no tracker for type: " + type);
  return *it->second;
}

bool TrackerSet::has(const std::string& type) const {
  return trackers_.count(type) > 0;
}

std::vector<std::string> TrackerSet::types() const {
  std::vector<std::string> out;
  out.reserve(trackers_.size());
  for (const auto& [type, _] : trackers_) out.push_back(type);
  return out;
}

}  // namespace mummi::wm
