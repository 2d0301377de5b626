// Deterministic fault plans (paper Sec. 4.4: "everything fails at scale").
//
// The paper's campaign survived node losses, Redis server deaths, GPFS
// hiccups and whole-workflow restarts. To *test* those paths reproducibly we
// schedule typed faults in virtual time: a FaultPlan is an explicit, sorted
// list of fault events, either built by hand (unit tests) or generated from
// Poisson rates with a seeded Rng (campaign sweeps). The same seed and spec
// always yield the same plan, so fault campaigns replay bit-for-bit — the
// reproducible failure testing the Workflows Community Roadmap calls for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mummi::fault {

enum class FaultKind : std::uint8_t {
  kNodeCrash,     // kill running jobs on `target` node; node stays down
  kNodeRecover,   // node `target` serves again
  kJobHang,       // next `count` launches never invoke their completion
  kStragglerJob,  // next `count` launches run `magnitude` x their duration
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  double time = 0.0;      // virtual seconds from plan start
  FaultKind kind = FaultKind::kNodeCrash;
  int target = -1;        // node index; unused otherwise
  double magnitude = 1.0; // straggler slowdown factor
  int count = 0;          // hang/straggler burst size

  [[nodiscard]] std::string describe() const;
};

/// Mean fault rates for plan generation. All rates are events per hour of
/// virtual time across the whole machine; 0 disables a fault class.
struct FaultSpec {
  double node_crash_rate_per_h = 0.0;
  double node_down_mean_s = 600.0;     // time until the node recovers

  double job_hang_rate_per_h = 0.0;    // silent hangs (Sec. 4.4)
  int hang_burst = 1;                  // launches hung per event

  double straggler_rate_per_h = 0.0;
  int straggler_burst = 1;             // launches slowed per event
  double straggler_factor = 4.0;       // duration multiplier

  std::uint64_t seed = 42;

  [[nodiscard]] bool empty() const {
    return node_crash_rate_per_h <= 0 && job_hang_rate_per_h <= 0 &&
           straggler_rate_per_h <= 0;
  }

  /// Throws util::ConfigError on nonsense configuration: negative, NaN or
  /// infinite rates and durations, negative bursts, or amplification factors
  /// below 1.
  void validate() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- builder API (fluent; times are absolute virtual seconds) -----------
  FaultPlan& node_crash(double t, int node, double down_for_s = 0.0);
  FaultPlan& job_hang(double t, int burst = 1);
  FaultPlan& straggler(double t, int burst = 1, double factor = 4.0);

  /// Escape hatch for custom events (tests); same sort-on-insert as the
  /// named builders.
  FaultPlan& add(FaultEvent ev) { return push(ev); }

  /// Draws a plan over [0, horizon_s) from Poisson arrivals per fault class.
  /// Deterministic for a given (spec, horizon, n_nodes).
  [[nodiscard]] static FaultPlan generate(const FaultSpec& spec,
                                          double horizon_s, int n_nodes);

  /// Events sorted by time (stable for equal times).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Throws util::Error if any event carries a negative time or count, a
  /// straggler magnitude below 1, or if the list is not time-sorted (push()
  /// maintains sortedness; validate() guards plans built or mutated by other
  /// means).
  void validate() const;

 private:
  FaultPlan& push(FaultEvent ev);
  void sort_events();

  std::vector<FaultEvent> events_;
};

}  // namespace mummi::fault
