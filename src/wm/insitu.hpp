// In-situ analysis plane for the campaign maintain tick.
//
// Paper Sec. 4.1: every running CG simulation has an analysis process sitting
// next to it, inspecting each new snapshot within the frame cadence and
// emitting candidate-frame identifying info plus protein-lipid RDF feedback.
// At campaign scale those analyses are thousands of independent tasks per
// tick — the last serial hot path in the coordination loop before this class.
//
// InSituPlane keeps no per-sim state: each tick regenerates every sim's
// miniature CG system from counter-based streams into a per-block scratch
// md::System, runs the real coupling::CgAnalysis over it and draws its
// candidate count. Pool tasks analyze blocks and sum their RDFs; the caller
// folds finished blocks in ascending sim-id order (util::for_blocks_ordered).
// Threads change wall time, never output (DESIGN.md §4k).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
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

  /// Advances and analyzes every sim in `payloads` (must be ascending and
  /// unique) for the tick identified by `tick_key`, then folds results
  /// serially in ascending payload order via `fold`. `candidate_mean` is the
  /// Poisson mean of candidate frames per sim this tick. Returns nanoseconds
  /// spent on the caller folding (wm.tick.fold_ns). `fold` runs on the
  /// calling thread; if it throws, the tick waits out its in-flight blocks
  /// and rethrows, and the plane stays usable for the next tick.
  ///
  /// Output is a pure function of (seed, payloads, tick_key, candidate_mean):
  /// per-sim streams are counter-based, positions are regenerated statelessly
  /// each tick, and the fold order is fixed — so any pool size, and a plane
  /// rebuilt after a crash-restart, produce byte-identical folds.
  std::uint64_t tick(const std::vector<std::uint64_t>& payloads,
                     std::uint64_t tick_key, double candidate_mean,
                     const std::function<void(const InSituResult&)>& fold);

  /// The last tick's RDFs summed over its sims. Byte-equal to the ascending
  /// merge of every InSituResult::rdfs because every addend is exact: bin
  /// counts and frames are integers, and the pair density is 24/128 = 3/16 a
  /// frame, so no grouping of the sum rounds.
  [[nodiscard]] const coupling::RdfSet& rdfs() const { return rdfs_; }

  /// Sims analyzed by the last tick.
  [[nodiscard]] std::size_t active_sims() const { return active_; }

  /// Counter-based per-(sim, tick, lane) stream seed — the continuum engine's
  /// protein_stream_seed idiom: a splitmix64-style avalanche, so nearby sims
  /// and ticks give uncorrelated streams without any shared RNG state.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t sim,
                                   std::uint64_t tick, std::uint64_t lane);

 private:
  /// Steps `payload` into `sys` and analyzes it into `out`.
  void run_sim(std::uint64_t payload, md::System& sys, std::uint64_t tick_key,
               double candidate_mean, InSituResult& out) const;

  std::uint64_t seed_;
  util::ThreadPool* pool_;
  /// Geometry template shared by every sim (sims differ only in positions).
  coupling::CgSystemInfo proto_;
  coupling::CgAnalysis analysis_;
  std::vector<InSituResult> slots_;         // slots_[i]: payloads[i]
  std::vector<md::System> scratch_;         // per block
  std::vector<coupling::RdfSet> partials_;  // per block: its sims' RDF sum
  coupling::RdfSet rdfs_;
  std::size_t active_ = 0;
};

}  // namespace mummi::wm
