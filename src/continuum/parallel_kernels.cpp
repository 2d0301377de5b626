#include "continuum/parallel_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "continuum/gridsim2d.hpp"

namespace mummi::cont::detail {

void ProteinCellBins::build(const std::vector<Protein>& proteins, double extent,
                            double range) {
  const std::size_t p = proteins.size();
  ++rebuilds_;
  px_.resize(p);
  py_.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    px_[i] = proteins[i].x;
    py_[i] = proteins[i].y;
  }

  ncell_ = 0;
  if (range > 0 && extent > 0) {
    // Cell edge >= range so the 3x3 stencil covers every in-range pair; cap
    // the grid near sqrt(P) cells per side — fewer proteins than cells only
    // wastes memory, and a larger cell never misses a pair.
    const double raw = std::floor(extent / range);
    const int cap =
        std::max(3, static_cast<int>(std::sqrt(static_cast<double>(p))) + 2);
    ncell_ = static_cast<int>(std::min<double>(raw, cap));
  }
  if (ncell_ < 3) {
    ncell_ = 0;  // all-pairs fallback
    return;
  }
  cell_w_ = extent / ncell_;

  const auto ncells = static_cast<std::size_t>(ncell_) * ncell_;
  cx_.resize(p);
  cy_.resize(p);
  cell_start_.assign(ncells + 1, 0);
  // Compare before the cast: casting NaN or a value beyond int range is
  // undefined. Those land in bin 0, as the INT_MIN that x86's conversion
  // gave them did, so binning (and every pinned result) is unchanged.
  auto bin = [this](double v) {
    const double c = v / cell_w_;
    if (!(c >= 0 && c < 2147483648.0)) return 0;  // NaN fails both
    return std::min(static_cast<int>(c), ncell_ - 1);
  };
  for (std::size_t i = 0; i < p; ++i) {
    cx_[i] = bin(px_[i]);
    cy_[i] = bin(py_[i]);
    ++cell_start_[static_cast<std::size_t>(cx_[i]) * ncell_ + cy_[i] + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  items_.resize(p);
  cursor_.assign(ncells, 0);
  // Ascending protein ids per cell: the stable two-pass fill.
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t c = static_cast<std::size_t>(cx_[i]) * ncell_ + cy_[i];
    items_[cell_start_[c] + cursor_[c]++] = i;
  }
}

void ProteinCellBins::gather_candidates(std::size_t a,
                                        std::vector<std::size_t>& out) const {
  if (ncell_ < 3) {
    for (std::size_t b = 0; b < px_.size(); ++b) out.push_back(b);
    return;  // already ascending
  }
  for (int di = -1; di <= 1; ++di) {
    const int ci = (cx_[a] + di + ncell_) % ncell_;
    for (int dj = -1; dj <= 1; ++dj) {
      const int cj = (cy_[a] + dj + ncell_) % ncell_;
      const std::size_t c = static_cast<std::size_t>(ci) * ncell_ + cj;
      for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k)
        out.push_back(items_[k]);
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace mummi::cont::detail
