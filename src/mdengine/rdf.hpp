// Radial distribution functions.
//
// The CG in-situ analysis computes protein-lipid RDFs each frame; the
// CG-to-continuum feedback aggregates them and updates the continuum model's
// interaction parameters (paper Sec. 4.1 items 3 and 7).
#pragma once

#include <vector>

#include "mdengine/system.hpp"

namespace mummi::md {

/// Accumulating g(r) estimator between two particle selections.
class RdfAccumulator {
 public:
  /// Histogram of `nbins` bins over [0, r_max) nm.
  RdfAccumulator(real r_max, std::size_t nbins);

  /// Adds one frame's contribution for pairs (a in sel_a, b in sel_b, a!=b).
  /// Pairs at or past r_max, or at a non-finite distance, count in no bin.
  void add_frame(const System& system, const std::vector<int>& sel_a,
                 const std::vector<int>& sel_b);

  /// Normalized g(r) (ideal-gas reference), averaged over added frames.
  [[nodiscard]] std::vector<real> g() const;

  /// Raw bin counts (what feedback ships around as small arrays).
  [[nodiscard]] const std::vector<double>& counts() const { return counts_; }
  [[nodiscard]] std::size_t frames() const { return frames_; }
  [[nodiscard]] real r_max() const { return r_max_; }
  [[nodiscard]] std::size_t nbins() const { return counts_.size(); }

  /// Bin centers (nm).
  [[nodiscard]] std::vector<real> centers() const;

  /// Merges another accumulator with identical binning — the feedback
  /// aggregation step ("vectorized additions of small Numpy arrays").
  void merge(const RdfAccumulator& other);

  /// Zeroes counts, frames and pair density in place, keeping the binning.
  void clear() {
    counts_.assign(counts_.size(), 0.0);
    frames_ = 0;
    pair_density_sum_ = 0;
  }

  /// Restores raw state (deserialization support).
  void restore_raw(std::vector<double> counts, std::size_t frames,
                   double pair_density_sum);
  [[nodiscard]] double pair_density_sum() const { return pair_density_sum_; }

 private:
  real r_max_;
  std::vector<double> counts_;
  std::size_t frames_ = 0;
  double pair_density_sum_ = 0;  // (Na*Nb - overlap) / V summed over frames
};

}  // namespace mummi::md
