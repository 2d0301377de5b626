// Linked-cell binning and Verlet neighbor lists, flat-memory edition.
//
// Standard O(N) pair-search machinery with a layout built for the parallel
// force kernel: particles are binned into a CSR cell table (per-cell ranges
// over one flat item array, ascending particle id within each cell), and the
// Verlet list is a CSR half list — per-particle neighbor ranges over one
// flat j array, each row sorted ascending. Row contents are a pure function
// of the system, so builds parallelize over particle blocks without changing
// a single bit of the result. A skin buffer lets the list survive several
// steps between rebuilds; all storage is reused across rebuilds.
#pragma once

#include <cstddef>
#include <vector>

#include "mdengine/system.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::md {

class CellList {
 public:
  /// Bins all particles; `range` is the minimum cell edge (cutoff + skin).
  /// Cell assignment is computed per particle in parallel blocks (pure
  /// per-i work); the CSR fill is a short serial pass so items stay in
  /// ascending id order regardless of worker count.
  void build(const System& system, real range,
             util::ThreadPool* pool = nullptr);

  [[nodiscard]] int n_cells() const { return nx_ * ny_ * nz_; }

  /// True when every dimension has >= 3 cells, i.e. the 27-cell stencil
  /// visits each neighboring cell exactly once. Callers must fall back to
  /// all-pairs otherwise (periodic wrap-around would double-count cells).
  [[nodiscard]] bool stencil_ok() const {
    return nx_ >= 3 && ny_ >= 3 && nz_ >= 3;
  }

  [[nodiscard]] int cell_of(std::size_t i) const { return cell_of_[i]; }

  /// CSR ranges: cell c holds items()[cell_start()[c] .. cell_start()[c+1]).
  [[nodiscard]] const std::vector<int>& cell_start() const {
    return cell_start_;
  }
  [[nodiscard]] const std::vector<int>& items() const { return items_; }

  /// Writes the 27 wrapped stencil cells of `c` (self included) in a fixed
  /// order; returns the count. Only valid when stencil_ok().
  int neighbor_cells(int c, int out[27]) const;

 private:
  static int wrap(int c, int n) { return (c % n + n) % n; }
  [[nodiscard]] int cell_index(int cx, int cy, int cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }

  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<int> cell_of_;     // particle -> cell
  std::vector<int> cell_start_;  // n_cells + 1
  std::vector<int> items_;       // particle ids, ascending within each cell
  std::vector<int> cursor_;      // fill cursors, reused across builds
};

/// Half (i<j) Verlet list in CSR form: row i spans
/// [row_start()[i], row_start()[i+1]) of neighbors(), each row sorted
/// ascending — a canonical order independent of cell geometry and worker
/// count. Tracks displacement since the last build to decide when a rebuild
/// is due. Row scratch, the flat j array and reference positions are all
/// reused across rebuilds (no steady-state allocation).
class NeighborList {
 public:
  NeighborList(real cutoff, real skin) : cutoff_(cutoff), skin_(skin) {}

  /// Rebuilds from scratch; parallel over particle blocks when a pool is
  /// given, bit-identical to the serial build either way.
  void build(const System& system, util::ThreadPool* pool = nullptr);

  /// True when any particle moved more than skin/2 since the last build
  /// (or the list was never built). The displacement scan runs in parallel
  /// blocks when a pool is given.
  [[nodiscard]] bool needs_rebuild(const System& system,
                                   util::ThreadPool* pool = nullptr) const;

  /// CSR accessors: row i of neighbors() holds every j > i within
  /// cutoff + skin of particle i, sorted ascending.
  [[nodiscard]] const std::vector<std::size_t>& row_start() const {
    return row_start_;
  }
  [[nodiscard]] const std::vector<int>& neighbors() const { return nbr_; }
  [[nodiscard]] std::size_t n_pairs() const { return nbr_.size(); }
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

  /// Fill statistics of the current list, for telemetry and tuning.
  struct FillStats {
    std::size_t rebuilds = 0;   // lifetime builds of this list
    std::size_t pairs = 0;      // half pairs in the current list
    std::size_t cells = 0;      // cells at the last build
    std::size_t max_row = 0;    // longest neighbor row
    double avg_row = 0;         // pairs / rows
  };
  [[nodiscard]] FillStats fill_stats() const;

  [[nodiscard]] real cutoff() const { return cutoff_; }

 private:
  real cutoff_;
  real skin_;
  CellList cells_;
  std::vector<std::size_t> row_start_;
  std::vector<int> nbr_;
  std::vector<std::vector<int>> scratch_;  // per-block rows, capacity reused
  std::vector<Vec3> ref_pos_;
  std::size_t rebuilds_ = 0;
};

}  // namespace mummi::md
