// Discrete histogram-based sampler — the (CG) Frame Selector's core.
//
// Paper Task 2: "the Frame Selector relies on a 3-D encoding of CG frames
// that represents three disparate quantities; therefore, the L2 distance is
// not meaningful. To support a functionally useful sampling, a binned sampler
// was developed ... The binned sampling approach also facilitates control
// over the balance between importance and randomness ... capable of providing
// significantly faster updates to ranking: 3-4 minutes for 9M candidates."
//
// Candidates land in bins defined by per-dimension edges. A selection draws,
// with probability `importance`, from the non-empty bin least represented in
// the selected-so-far histogram (novelty), otherwise uniformly across all
// candidates (randomness). The ranking is the selected-per-bin histogram,
// kept current by every pick, so there is no rank update to run.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/point.hpp"
#include "ml/point_store.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mummi::ml {

class BinnedSampler {
 public:
  /// Serialization format version; v2 added the RNG state (restored samplers
  /// continue the exact selection stream) and rejects pre-version blobs.
  static constexpr std::uint8_t kSerialVersion = 2;

  /// `edges[d]` are the interior bin edges for dimension d (so a dimension
  /// with E edges has E+1 bins). `importance` in [0, 1].
  BinnedSampler(std::vector<std::vector<float>> edges, double importance,
                std::uint64_t seed);

  /// Bins the batch. All-or-nothing: a dimension mismatch throws before
  /// anything is added.
  void add_candidates(const PointStore& points);
  void add_candidates(const std::vector<HDPoint>& points) {
    add_candidates(PointStore::from_points(points, dim()));
  }
  /// Draws up to k candidates and removes them from the pool.
  std::vector<HDPoint> select(std::size_t k);

  [[nodiscard]] int dim() const { return static_cast<int>(dim_); }

  [[nodiscard]] std::size_t candidate_count() const { return total_; }
  [[nodiscard]] std::size_t selected_count() const {
    return n_selected_;
  }

  [[nodiscard]] std::size_t n_bins() const { return bins_.size(); }
  /// Bin a point falls into (flat index) — exposed for tests.
  [[nodiscard]] std::size_t bin_of(std::span<const float> coords) const;
  [[nodiscard]] std::size_t bin_of(std::initializer_list<float> coords) const {
    return bin_of(std::span<const float>(coords.begin(), coords.size()));
  }
  /// How many selections came from each bin.
  [[nodiscard]] const std::vector<std::uint64_t>& selected_histogram() const {
    return selected_per_bin_;
  }

  /// Checkpoint state (RNG included), appended to `w`.
  void serialize(util::ByteWriter& w) const;
  /// Throws util::FormatError on a stream that is truncated, has another
  /// version, or declares more bins than its bytes can hold.
  static BinnedSampler deserialize(util::ByteReader& r);

 private:
  // Each bin is a flat PointStore (shared SoA layout of the selection
  // layer): per-candidate overhead is ~dim*4+8 bytes so full-campaign loads
  // (9M+ candidates) stay in memory and selection streams linearly.
  HDPoint take_from_bin(std::size_t bin, std::size_t which);

  std::vector<std::vector<float>> edges_;
  std::size_t dim_ = 0;
  double importance_;
  util::Rng rng_;
  std::vector<PointStore> bins_;
  std::vector<std::uint64_t> selected_per_bin_;
  std::size_t total_ = 0;
  std::size_t n_selected_ = 0;
};

}  // namespace mummi::ml
