#include "fault/fault_plan.hpp"

#include <algorithm>
#include <functional>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace mummi::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:    return "node_crash";
    case FaultKind::kNodeRecover:  return "node_recover";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kJobHang:      return "job_hang";
    case FaultKind::kStragglerJob: return "straggler_job";
  }
  return "?";
}

std::string FaultEvent::describe() const {
  return util::format("t=%.1fs %s target=%d dur=%.1fs x%.1f n=%d", time,
                      to_string(kind), target, duration, magnitude, count);
}

FaultPlan& FaultPlan::push(FaultEvent ev) {
  MUMMI_CHECK_MSG(ev.time >= 0.0, "fault time must be non-negative");
  events_.push_back(ev);
  sort_events();
  return *this;
}

void FaultPlan::sort_events() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

FaultPlan& FaultPlan::node_crash(double t, int node, double down_for_s) {
  FaultEvent ev;
  ev.time = t;
  ev.kind = FaultKind::kNodeCrash;
  ev.target = node;
  push(ev);
  if (down_for_s > 0.0) {
    FaultEvent up;
    up.time = t + down_for_s;
    up.kind = FaultKind::kNodeRecover;
    up.target = node;
    push(up);
  }
  return *this;
}

FaultPlan& FaultPlan::latency_spike(double t, double factor,
                                    double duration_s) {
  FaultEvent ev;
  ev.time = t;
  ev.kind = FaultKind::kLatencySpike;
  ev.magnitude = factor;
  ev.duration = duration_s;
  return push(ev);
}

FaultPlan& FaultPlan::job_hang(double t, int burst) {
  FaultEvent ev;
  ev.time = t;
  ev.kind = FaultKind::kJobHang;
  ev.count = burst;
  return push(ev);
}

FaultPlan& FaultPlan::straggler(double t, int burst, double factor) {
  FaultEvent ev;
  ev.time = t;
  ev.kind = FaultKind::kStragglerJob;
  ev.count = burst;
  ev.magnitude = factor;
  return push(ev);
}

void FaultSpec::validate() const {
  auto check_rate = [](double r, const char* name) {
    MUMMI_CHECK_MSG(r >= 0.0, std::string("negative fault rate: ") + name);
  };
  check_rate(node_crash_rate_per_h, "node_crash_rate_per_h");
  check_rate(latency_spike_rate_per_h, "latency_spike_rate_per_h");
  check_rate(job_hang_rate_per_h, "job_hang_rate_per_h");
  check_rate(straggler_rate_per_h, "straggler_rate_per_h");
  MUMMI_CHECK_MSG(node_down_mean_s >= 0.0, "negative node_down_mean_s");
  MUMMI_CHECK_MSG(latency_spike_mean_s >= 0.0, "negative latency_spike_mean_s");
  MUMMI_CHECK_MSG(hang_burst >= 0, "negative hang_burst");
  MUMMI_CHECK_MSG(straggler_burst >= 0, "negative straggler_burst");
  MUMMI_CHECK_MSG(latency_factor >= 1.0, "latency_factor must be >= 1");
  MUMMI_CHECK_MSG(straggler_factor >= 1.0, "straggler_factor must be >= 1");
}

void FaultPlan::validate() const {
  double prev = 0.0;
  for (const FaultEvent& ev : events_) {
    MUMMI_CHECK_MSG(ev.time >= 0.0,
                    "fault event with negative time: " + ev.describe());
    MUMMI_CHECK_MSG(ev.time >= prev,
                    "fault events not time-sorted at: " + ev.describe());
    prev = ev.time;
    MUMMI_CHECK_MSG(ev.duration >= 0.0,
                    "fault event with negative duration: " + ev.describe());
    MUMMI_CHECK_MSG(ev.count >= 0,
                    "fault event with negative count: " + ev.describe());
    if (ev.kind == FaultKind::kLatencySpike ||
        ev.kind == FaultKind::kStragglerJob)
      MUMMI_CHECK_MSG(ev.magnitude >= 1.0,
                      "amplifying fault with magnitude < 1: " + ev.describe());
  }
}

FaultPlan FaultPlan::generate(const FaultSpec& spec, double horizon_s,
                              int n_nodes) {
  MUMMI_CHECK_MSG(horizon_s > 0.0, "fault horizon must be positive");
  FaultPlan plan;
  util::Rng rng(spec.seed);

  // Each class draws its own Poisson arrival stream from a split rng so
  // toggling one class never perturbs another's schedule.
  auto arrivals = [&](double rate_per_h, util::Rng stream,
                      const std::function<void(double, util::Rng&)>& emit) {
    if (rate_per_h <= 0.0) return;
    const double rate_per_s = rate_per_h / 3600.0;
    double t = stream.exponential(rate_per_s);
    while (t < horizon_s) {
      emit(t, stream);
      t += stream.exponential(rate_per_s);
    }
  };

  arrivals(spec.node_crash_rate_per_h, rng.split(),
           [&](double t, util::Rng& stream) {
             if (n_nodes <= 0) return;
             const int node =
                 static_cast<int>(stream.uniform_index(
                     static_cast<std::uint64_t>(n_nodes)));
             plan.node_crash(t, node,
                             stream.exponential(1.0 / spec.node_down_mean_s));
           });
  // Three retired fault classes split here; keeping their splits keeps every
  // seed's spike/hang/straggler schedule, and the golden corpus, unchanged.
  (void)rng.split();
  (void)rng.split();
  (void)rng.split();
  arrivals(spec.latency_spike_rate_per_h, rng.split(),
           [&](double t, util::Rng& stream) {
             plan.latency_spike(
                 t, spec.latency_factor,
                 stream.exponential(1.0 / spec.latency_spike_mean_s));
           });
  // The silent-failure classes split AFTER the originals: enabling hangs or
  // stragglers must not reshuffle the crash/spike schedules a seed
  // already produced (same independence the streams test pins down).
  arrivals(spec.job_hang_rate_per_h, rng.split(),
           [&](double t, util::Rng&) { plan.job_hang(t, spec.hang_burst); });
  arrivals(spec.straggler_rate_per_h, rng.split(),
           [&](double t, util::Rng&) {
             plan.straggler(t, spec.straggler_burst, spec.straggler_factor);
           });
  return plan;
}

}  // namespace mummi::fault
