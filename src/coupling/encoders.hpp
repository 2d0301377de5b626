// Encoders: raw application data -> selector point spaces.
//
// Paper Task 2: encoded representations "may be computed using a ML inference
// engine (as done by the Patch Selector), a simpler dimensionality reduction
// (e.g., principal component analysis), or any configurational representation
// (as done by the Frame Selector)."
#pragma once

#include <cstdint>

#include "coupling/patch.hpp"
#include "mdengine/system.hpp"
#include "ml/mlp.hpp"
#include "ml/point_store.hpp"

namespace mummi::coupling {

/// Patch -> 9-D metric embedding through a small dense network (the
/// metric-learning DNN stand-in). Features: per-species pooled density
/// moments over a coarse macro-grid of the patch plus protein-state counts.
class PatchEncoder {
 public:
  PatchEncoder(int n_species, std::uint64_t seed, int out_dim = 9);

  [[nodiscard]] std::vector<float> encode(const Patch& patch) const;

  [[nodiscard]] int out_dim() const { return mlp_.output_dim(); }

 private:
  [[nodiscard]] std::vector<float> features(const Patch& patch) const;

  int n_species_;
  ml::Mlp mlp_;
};

/// The ~850-byte "identifying information" a CG analysis emits per candidate
/// frame: enough for the Frame Selector and downstream backmapping to locate
/// the snapshot without reading trajectories.
struct CgFrameInfo {
  std::uint64_t sim_id = 0;
  long step = 0;
  /// 3-D conformational descriptor of the RAS-RAF complex: (tilt angle,
  /// rotation angle, RAS-RAF distance) — "three disparate quantities".
  float tilt = 0, rotation = 0, separation = 0;

  [[nodiscard]] std::vector<float> descriptor() const {
    return {tilt, rotation, separation};
  }
  /// Appends the 3-D descriptor into a flat store under `id` — the Frame
  /// Selector ingest path.
  void descriptor_into(ml::PointId id, ml::PointStore& out) const {
    const float d[3] = {tilt, rotation, separation};
    out.add(id, d);
  }
};

/// Computes the 3-D descriptor from a CG system's protein beads.
/// `protein_beads` must list backbone indices; the first `ras_beads` belong
/// to RAS, the rest (if any) to RAF.
[[nodiscard]] CgFrameInfo compute_frame_info(const md::System& system,
                                             const std::vector<int>& protein_beads,
                                             int ras_beads,
                                             std::uint64_t sim_id, long step);

}  // namespace mummi::coupling
