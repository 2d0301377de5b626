// In-situ analysis components for CG and AA simulations.
//
// Paper Sec. 4.1 items 3 and 5: a Python-based analysis runs next to every
// simulation, inspecting each new snapshot within the frame cadence. The CG
// analysis produces protein-lipid RDFs (feedback payload) and candidate-frame
// identifying info (selection payload); the AA analysis produces per-frame
// secondary-structure patterns.
#pragma once

#include "coupling/backmap.hpp"
#include "coupling/createsim.hpp"
#include "coupling/encoders.hpp"
#include "mdengine/rdf.hpp"
#include "mdengine/secondary_structure.hpp"

namespace mummi::coupling {

/// Per-lipid-species protein RDFs — the CG-to-continuum feedback payload
/// ("vectorized additions of small Numpy arrays").
struct RdfSet {
  std::vector<md::RdfAccumulator> per_species;

  /// Element-wise merge; binning must match.
  void merge(const RdfSet& other);

  /// Zeroes every accumulator in place, keeping species and binning.
  void clear() {
    for (auto& rdf : per_species) rdf.clear();
  }

  [[nodiscard]] util::Bytes serialize() const;
  static RdfSet deserialize(const util::Bytes& bytes);
};

class CgAnalysis {
 public:
  /// Copies the selections it needs from `info` (head indices, protein
  /// beads); `sim_id` tags emitted frame records.
  CgAnalysis(const CgSystemInfo& info, std::uint64_t sim_id,
             md::real rdf_rmax = 2.5, std::size_t rdf_bins = 24);

  /// Analyzes one frame: accumulates the protein-lipid RDFs and returns the
  /// candidate-frame identifying info.
  CgFrameInfo analyze(const md::System& system, long step);

  /// The same analysis for any sim with these selections, into `rdfs`
  /// (shaped by make_rdfs); const, so one CgAnalysis serves many threads.
  CgFrameInfo analyze(const md::System& system, std::uint64_t sim_id,
                      long step, RdfSet& rdfs) const;

  /// Empty RDFs with this analysis's species and binning.
  [[nodiscard]] RdfSet make_rdfs() const;

  /// Hands over the RDFs accumulated since the last take (and resets) —
  /// what gets pushed to the feedback store every few frames.
  [[nodiscard]] RdfSet take_rdfs();

  [[nodiscard]] std::size_t frames_analyzed() const { return frames_; }

 private:
  std::uint64_t sim_id_;
  std::vector<std::vector<int>> heads_by_species_;
  std::vector<int> protein_beads_;
  int ras_beads_;
  md::real rdf_rmax_;
  std::size_t rdf_bins_;
  RdfSet accum_;
  std::size_t frames_ = 0;
};

class AaAnalysis {
 public:
  AaAnalysis(std::vector<int> backbone, std::uint64_t sim_id)
      : backbone_(std::move(backbone)), sim_id_(sim_id) {}

  /// Secondary-structure pattern for one frame ("HHEEC...").
  [[nodiscard]] std::string analyze(const md::System& system) const {
    return md::to_pattern(md::classify_backbone(system, backbone_));
  }

  [[nodiscard]] std::uint64_t sim_id() const { return sim_id_; }

 private:
  std::vector<int> backbone_;
  std::uint64_t sim_id_;
};

}  // namespace mummi::coupling
