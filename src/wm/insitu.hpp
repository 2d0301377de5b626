// In-situ analysis plane for the campaign maintain tick.
//
// Paper Sec. 4.1: every running CG simulation has an analysis process sitting
// next to it, inspecting each new snapshot within the frame cadence and
// emitting candidate-frame identifying info plus protein-lipid RDF feedback.
// At campaign scale those analyses are thousands of independent tasks per
// tick — the last serial hot path in the coordination loop before this class.
//
// InSituPlane advances one miniature logical CG system per running sim
// (stepping), runs the real coupling::CgAnalysis over it (RDF accumulation +
// encoder feature extraction), and draws the per-sim candidate counts — all
// under the engines' bit-level discipline: per-sim counter-based RNG streams,
// block boundaries a function of the sim count only, and one ordered fan-out
// (util::for_blocks_ordered): each pool task steps and then analyzes its own
// block of sims, while the caller folds finished blocks in ascending sim-id
// order as the later blocks are still running. Threads change wall time,
// never output.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coupling/analysis.hpp"
#include "util/thread_pool.hpp"

namespace mummi::wm {

/// Per-sim outcome of one tick, handed to the fold callback.
struct InSituResult {
  std::uint64_t sim = 0;
  /// Analyzed frame (real CgAnalysis::analyze output for this tick's state).
  coupling::CgFrameInfo frame;
  /// Candidate count drawn from the sim's stream; when > 0, `frame` is the
  /// first candidate and `extra` holds descriptors for the remaining n-1.
  std::uint32_t candidates = 0;
  std::vector<std::array<float, 3>> extra;
  /// RDFs accumulated by this sim this tick (one frame per species).
  coupling::RdfSet rdfs;
};

class InSituPlane {
 public:
  /// `pool` runs the fan-out; null runs serially (same outputs either way).
  explicit InSituPlane(std::uint64_t seed, util::ThreadPool* pool = nullptr);
  ~InSituPlane();  // out of line: SimState is incomplete here

  /// Advances and analyzes every sim in `payloads` (must be ascending and
  /// unique) for the tick identified by `tick_key`, then folds results
  /// serially in ascending payload order via `fold`. `candidate_mean` is the
  /// Poisson mean of candidate frames per sim this tick. Returns nanoseconds
  /// spent in the serial fold (wm.tick.fold_ns). `fold` runs on the calling
  /// thread; if it throws, the tick waits out its in-flight blocks and
  /// rethrows, and the plane stays usable for the next tick.
  ///
  /// Output is a pure function of (seed, payloads, tick_key, candidate_mean):
  /// per-sim streams are counter-based, positions are regenerated statelessly
  /// each tick, and the fold order is fixed — so any pool size, and a plane
  /// rebuilt after a crash-restart, produce byte-identical folds.
  std::uint64_t tick(const std::vector<std::uint64_t>& payloads,
                     std::uint64_t tick_key, double candidate_mean,
                     const std::function<void(const InSituResult&)>& fold);

  [[nodiscard]] std::size_t active_sims() const { return states_.size(); }

  /// Counter-based per-(sim, tick, lane) stream seed — the continuum engine's
  /// protein_stream_seed idiom: a splitmix64-style avalanche, so nearby sims
  /// and ticks give uncorrelated streams without any shared RNG state.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t sim,
                                   std::uint64_t tick, std::uint64_t lane);

 private:
  struct SimState;

  void step_sim(std::uint64_t payload, SimState& st,
                std::uint64_t tick_key) const;
  void analyze_sim(std::uint64_t payload, SimState& st, std::uint64_t tick_key,
                   double candidate_mean, InSituResult& out) const;

  std::uint64_t seed_;
  util::ThreadPool* pool_;
  /// Geometry template shared by every sim (per-sim state differs only in
  /// positions, which are regenerated statelessly each tick).
  coupling::CgSystemInfo proto_;
  /// Live sims, ascending by payload (the order of the last tick's payloads).
  std::vector<std::pair<std::uint64_t, std::unique_ptr<SimState>>> states_;
};

}  // namespace mummi::wm
