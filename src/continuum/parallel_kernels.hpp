// Protein-side helpers for the continuum (DDFT) engine: per-protein RNG
// stream seeds and the periodic cell bins behind the repulsion search.
//
// The engine's parallel loops run through util::for_blocks with block sizes
// from util::block_size, and its footprint stamps scatter into a
// util::BlockScratch (DESIGN.md 4h/4j). The helpers here keep protein
// updates free of hidden state and of scheduling-dependent order, so a
// serial run and any pool produce bit-identical frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mummi::cont {
struct Protein;  // gridsim2d.hpp
}  // namespace mummi::cont

namespace mummi::cont::detail {

/// Counter-based per-protein RNG stream seed: a splitmix64-style avalanche
/// over (campaign seed, protein index, step index). Each protein draws from
/// its own short-lived stream each step, so protein updates thread freely,
/// replay bit-identically at any worker count, and survive checkpoint /
/// restore (the stream is a pure function of persisted state — no hidden
/// generator cursor to lose).
inline std::uint64_t protein_stream_seed(std::uint64_t seed, std::uint64_t idx,
                                         std::uint64_t step) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (idx + 1) +
                    0xbf58476d1ce4e5b9ULL * (step + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Periodic cell bins over protein positions: makes the soft-repulsion
/// neighbor search O(P) instead of O(P^2).
///
/// build() snapshots the positions, so force kernels read a stable pre-step
/// view (Jacobi update — protein a's force never sees protein b's position
/// from the same step, whichever block updates first). gather_candidates
/// returns candidates sorted ascending, so accumulating in-range pairs in
/// that order reproduces an all-pairs loop bit for bit.
class ProteinCellBins {
 public:
  /// Bins positions into an ncell x ncell periodic grid with cell edge
  /// >= range. Falls back to a single all-pairs bin when the box is under
  /// 3 cells per side (the 3x3 stencil would alias through the wrap) or the
  /// range is non-positive. Storage is reused across rebuilds.
  void build(const std::vector<Protein>& proteins, double extent, double range);

  [[nodiscard]] double x(std::size_t i) const { return px_[i]; }
  [[nodiscard]] double y(std::size_t i) const { return py_[i]; }
  [[nodiscard]] std::size_t size() const { return px_.size(); }

  /// Appends every candidate in the 3x3 cell stencil around protein `a`
  /// (including a itself; the caller skips b == a), sorted ascending.
  void gather_candidates(std::size_t a, std::vector<std::size_t>& out) const;

  [[nodiscard]] bool binned() const { return ncell_ >= 3; }
  [[nodiscard]] int ncell() const { return ncell_; }
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

 private:
  int ncell_ = 0;
  double cell_w_ = 0;
  std::size_t rebuilds_ = 0;
  std::vector<double> px_, py_;
  std::vector<int> cx_, cy_;             // per-protein cell coords (binned)
  std::vector<std::size_t> cell_start_;  // CSR offsets over ncell^2 cells
  std::vector<std::size_t> items_;       // protein ids, ascending within cell
  std::vector<std::size_t> cursor_;      // fill scratch, reused
};

}  // namespace mummi::cont::detail
