#include "mdengine/rdf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace mummi::md {

RdfAccumulator::RdfAccumulator(real r_max, std::size_t nbins)
    : r_max_(r_max), counts_(nbins, 0.0) {
  MUMMI_CHECK_MSG(r_max > 0 && nbins > 0, "invalid RDF binning");
}

void RdfAccumulator::add_frame(const System& system,
                               const std::vector<int>& sel_a,
                               const std::vector<int>& sel_b) {
  const std::size_t nbins = counts_.size();
  const real dr = r_max_ / static_cast<real>(nbins);
  // Out-of-range pairs (r >= r_max, NaN, or a quotient rounding up to
  // nbins) select a per-call overflow slot: on random positions a branch
  // here is a coin flip. min() maps NaN to nbins, so every cast is in range.
  double* const bins = counts_.data();
  double overflow = 0;
  std::size_t overlap = 0;
  for (int a : sel_a) {
    for (int b : sel_b) {
      if (a == b) {
        ++overlap;
        continue;
      }
      const Vec3 d = system.box.min_image(system.pos[a], system.pos[b]);
      const real r = d.norm();
      const auto bin = static_cast<std::size_t>(static_cast<std::int64_t>(
          std::min(static_cast<real>(nbins), r / dr)));
      double* const slot[2] = {&overflow, bins + bin};
      *slot[(r < r_max_) & (bin < nbins)] += 1.0;
    }
  }
  const double npairs = static_cast<double>(sel_a.size()) *
                            static_cast<double>(sel_b.size()) -
                        static_cast<double>(overlap);
  pair_density_sum_ += npairs / system.box.volume();
  ++frames_;
}

std::vector<real> RdfAccumulator::g() const {
  std::vector<real> out(counts_.size(), 0.0);
  if (frames_ == 0 || pair_density_sum_ <= 0) return out;
  const real dr = r_max_ / static_cast<real>(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const real r_lo = static_cast<real>(b) * dr;
    const real r_hi = r_lo + dr;
    const real shell =
        4.0 / 3.0 * M_PI * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
    out[b] = static_cast<real>(counts_[b] / (shell * pair_density_sum_));
  }
  return out;
}

std::vector<real> RdfAccumulator::centers() const {
  const real dr = r_max_ / static_cast<real>(counts_.size());
  std::vector<real> out(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b)
    out[b] = (static_cast<real>(b) + 0.5) * dr;
  return out;
}

void RdfAccumulator::restore_raw(std::vector<double> counts,
                                 std::size_t frames,
                                 double pair_density_sum) {
  MUMMI_CHECK_MSG(counts.size() == counts_.size(), "restore binning mismatch");
  counts_ = std::move(counts);
  frames_ = frames;
  pair_density_sum_ = pair_density_sum;
}

void RdfAccumulator::merge(const RdfAccumulator& other) {
  MUMMI_CHECK_MSG(other.counts_.size() == counts_.size() &&
                      std::abs(other.r_max_ - r_max_) < 1e-12,
                  "RDF binning mismatch");
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  frames_ += other.frames_;
  pair_density_sum_ += other.pair_density_sum_;
}

}  // namespace mummi::md
