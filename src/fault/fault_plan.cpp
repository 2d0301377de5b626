#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace mummi::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:    return "node_crash";
    case FaultKind::kNodeRecover:  return "node_recover";
    case FaultKind::kJobHang:      return "job_hang";
    case FaultKind::kStragglerJob: return "straggler_job";
  }
  return "?";
}

std::string FaultEvent::describe() const {
  return util::format("t=%.1fs %s target=%d x%.1f n=%d", time,
                      to_string(kind), target, magnitude, count);
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
  auto require = [](bool ok, const char* what) {
    if (!ok) throw util::ConfigError(std::string("fault spec: ") + what);
  };
  // Finite and non-negative; NaN fails both comparisons. An infinite rate
  // would make generate() draw arrivals at t = 0 forever.
  auto amount = [](double v) { return std::isfinite(v) && v >= 0.0; };
  require(amount(node_crash_rate_per_h), "bad node_crash_rate_per_h");
  require(amount(job_hang_rate_per_h), "bad job_hang_rate_per_h");
  require(amount(straggler_rate_per_h), "bad straggler_rate_per_h");
  require(amount(node_down_mean_s), "bad node_down_mean_s");
  require(hang_burst >= 0, "negative hang_burst");
  require(straggler_burst >= 0, "negative straggler_burst");
  require(std::isfinite(straggler_factor) && straggler_factor >= 1.0,
          "straggler_factor must be finite and >= 1");
}

void FaultPlan::validate() const {
  double prev = 0.0;
  for (const FaultEvent& ev : events_) {
    MUMMI_CHECK_MSG(ev.time >= 0.0,
                    "fault event with negative time: " + ev.describe());
    MUMMI_CHECK_MSG(ev.time >= prev,
                    "fault events not time-sorted at: " + ev.describe());
    prev = ev.time;
    MUMMI_CHECK_MSG(ev.count >= 0,
                    "fault event with negative count: " + ev.describe());
    if (ev.kind == FaultKind::kStragglerJob)
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
  // Four retired fault classes split here; keeping their splits keeps every
  // seed's hang/straggler schedule, and the golden corpus, unchanged.
  (void)rng.split();
  (void)rng.split();
  (void)rng.split();
  (void)rng.split();
  // The silent-failure classes split AFTER the originals: enabling hangs or
  // stragglers must not reshuffle the crash schedule a seed already
  // produced (same independence the streams test pins down).
  arrivals(spec.job_hang_rate_per_h, rng.split(),
           [&](double t, util::Rng&) { plan.job_hang(t, spec.hang_burst); });
  arrivals(spec.straggler_rate_per_h, rng.split(),
           [&](double t, util::Rng&) {
             plan.straggler(t, spec.straggler_burst, spec.straggler_factor);
           });
  return plan;
}

}  // namespace mummi::fault
