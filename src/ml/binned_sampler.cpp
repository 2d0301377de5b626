#include "ml/binned_sampler.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace mummi::ml {

BinnedSampler::BinnedSampler(std::vector<std::vector<float>> edges,
                             double importance, std::uint64_t seed)
    : edges_(std::move(edges)), importance_(importance), rng_(seed) {
  MUMMI_CHECK_MSG(!edges_.empty(), "binned sampler needs dimensions");
  MUMMI_CHECK_MSG(importance >= 0.0 && importance <= 1.0,
                  "importance must be in [0, 1]");
  dim_ = edges_.size();
  std::size_t nbins = 1;
  for (auto& e : edges_) {
    MUMMI_CHECK_MSG(std::is_sorted(e.begin(), e.end()),
                    "bin edges must be sorted");
    nbins *= e.size() + 1;
  }
  bins_.assign(nbins, PointStore(static_cast<int>(dim_)));
  selected_per_bin_.assign(nbins, 0);
}

std::size_t BinnedSampler::bin_of(std::span<const float> coords) const {
  MUMMI_CHECK_MSG(coords.size() == dim_, "candidate dimension mismatch");
  std::size_t flat = 0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const auto& e = edges_[d];
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(e.begin(), e.end(), coords[d]) - e.begin());
    flat = flat * (e.size() + 1) + idx;
  }
  return flat;
}

void BinnedSampler::add_candidates(const PointStore& points) {
  MUMMI_CHECK_MSG(points.dim() == static_cast<int>(dim_),
                  "candidate dimension mismatch");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = points.coords(i);
    bins_[bin_of(c)].add(points.id(i), c);
    ++total_;
  }
}

HDPoint BinnedSampler::take_from_bin(std::size_t bin, std::size_t which) {
  HDPoint out = bins_[bin].swap_remove(which);
  --total_;
  ++selected_per_bin_[bin];
  ++n_selected_;
  return out;
}

std::vector<HDPoint> BinnedSampler::select(std::size_t k) {
  std::vector<HDPoint> out;
  while (out.size() < k && total_ > 0) {
    if (rng_.uniform() < importance_) {
      // Novelty: the non-empty bin least represented among selections.
      std::size_t best = bins_.size();
      for (std::size_t b = 0; b < bins_.size(); ++b) {
        if (bins_[b].empty()) continue;
        if (best == bins_.size() ||
            selected_per_bin_[b] < selected_per_bin_[best])
          best = b;
      }
      const auto which = rng_.uniform_index(bins_[best].size());
      out.push_back(take_from_bin(best, which));
    } else {
      // Randomness: uniform over every candidate.
      auto target = rng_.uniform_index(total_);
      for (std::size_t b = 0; b < bins_.size(); ++b) {
        if (target < bins_[b].size()) {
          out.push_back(take_from_bin(b, target));
          break;
        }
        target -= bins_[b].size();
      }
    }
  }
  return out;
}

void BinnedSampler::serialize(util::ByteWriter& w) const {
  w.u8(kSerialVersion);
  w.u32(static_cast<std::uint32_t>(edges_.size()));
  for (const auto& e : edges_) w.vec(e);
  w.f64(importance_);
  const auto rng_state = rng_.save_state();
  for (const auto word : rng_state.s) w.u64(word);
  w.u8(rng_state.has_spare ? 1 : 0);
  w.f64(rng_state.spare);
  w.u64(n_selected_);
  w.vec(selected_per_bin_);
  w.u64(bins_.size());
  for (const auto& b : bins_) b.serialize(w);
}

BinnedSampler BinnedSampler::deserialize(util::ByteReader& r) {
  const auto version = r.u8();
  if (version != kSerialVersion)
    throw util::FormatError(
        "binned sampler checkpoint version mismatch: expected v" +
        std::to_string(kSerialVersion) + ", got byte " +
        std::to_string(version) +
        " (blob predates the flat selection-layer layout)");
  // Every dimension carries at least a u64 edge count, and every bin at
  // least an 8-byte selected_per_bin_ word and a 20-byte PointStore: a
  // shape the remaining bytes cannot hold is forged, and is rejected before
  // the bins are allocated.
  const auto ndims = r.u32();
  if (ndims == 0 || ndims > r.remaining() / sizeof(std::uint64_t))
    throw util::FormatError("corrupt binned-sampler dimension count");
  std::vector<std::vector<float>> edges(ndims);
  std::size_t nbins = 1;
  for (auto& e : edges) {
    e = r.vec<float>();
    if (e.size() + 1 > SIZE_MAX / nbins)
      throw util::FormatError("binned-sampler bin count overflows");
    nbins *= e.size() + 1;
  }
  const double importance = r.f64();
  constexpr std::size_t kMinBinBytes = sizeof(std::uint64_t) + 20;
  if (nbins > r.remaining() / kMinBinBytes)
    throw util::FormatError("binned-sampler bins exceed its bytes");
  BinnedSampler s(std::move(edges), importance, /*seed=*/1);
  util::Rng::State rng_state{};
  for (auto& word : rng_state.s) word = r.u64();
  rng_state.has_spare = r.u8() != 0;
  rng_state.spare = r.f64();
  s.rng_.load_state(rng_state);
  s.n_selected_ = r.u64();
  s.selected_per_bin_ = r.vec<std::uint64_t>();
  if (s.selected_per_bin_.size() != nbins || r.u64() != nbins)
    throw util::FormatError("corrupt binned-sampler bin count");
  for (auto& b : s.bins_) {
    b = PointStore::deserialize(r);
    if (b.dim() != static_cast<int>(s.dim_))
      throw util::FormatError("corrupt binned-sampler bin dimension");
    s.total_ += b.size();
  }
  return s;
}

}  // namespace mummi::ml
