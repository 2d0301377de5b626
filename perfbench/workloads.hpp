// The benchmark's workloads: two campaign configurations of wm::Campaign and
// the real-physics three-scale coupling loop.
//
// Construction is the workload's set-up (configs, continuum and force-field
// init, the checkpoint directory); run() is one timed pass. Every input
// derives from the workload seed, and every layer that takes a thread pool
// gets the pool the benchmark hands in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace perfbench {

/// What one pass produced and measured.
struct PassResult {
  double wall_s = 0;
  /// Wall time of each unit of work the caller drove to completion: one
  /// campaign (crash plus resume on campaign_resilient), or one coupling
  /// cycle on three_scale.
  std::vector<double> cycle_ms;
  /// Campaigns: wm::Profiler mean GPU occupancy in virtual time. three_scale:
  /// share of the pass's wall time spent running GPU (CG/AA MD) payloads.
  double gpu_occupancy = 0;
  /// fnv1a of the science outcome, as 16 hex digits.
  std::string fingerprint;
  /// Non-empty when a workload invariant failed (crash did not fire, no
  /// resume, no simulations ran, ...).
  std::string invalid;

  // Workload-side inputs to the per-layer table.
  double checkpoint_bytes = 0;  // size of the checkpoint the crash left
  double md_run_pairs = 0;      // md.force.pairs inside mdengine.* spans
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed pass, wrapped in the root span "bench.pass".
  virtual PassResult run() = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// True for the wm::Campaign workloads.
bool is_campaign(const std::string& name);

/// Set-up for one pass. `scratch` is a fresh directory the workload may write
/// (checkpoints); the caller removes it after the pass. Throws on an unknown
/// name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        mummi::util::ThreadPool* pool,
                                        const std::string& scratch);

}  // namespace perfbench
