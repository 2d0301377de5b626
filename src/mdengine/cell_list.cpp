#include "mdengine/cell_list.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {

void CellList::build(const System& system, real range,
                     util::ThreadPool* pool) {
  MUMMI_CHECK_MSG(range > 0, "cell range must be positive");
  nx_ = std::max(1, static_cast<int>(std::floor(system.box.length.x / range)));
  ny_ = std::max(1, static_cast<int>(std::floor(system.box.length.y / range)));
  nz_ = std::max(1, static_cast<int>(std::floor(system.box.length.z / range)));
  const std::size_t n = system.size();
  cell_of_.resize(n);

  // Cell assignment is pure per-particle work: parallel, trivially
  // deterministic. Same blocks as the force kernels: ~16, at least 512 items.
  util::for_blocks(
      pool, n, util::block_size(n, 512, 16),
      [this, &system](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const Vec3 p = system.box.wrap(system.pos[i]);
          const int cx = std::min(
              nx_ - 1, static_cast<int>(p.x / system.box.length.x *
                                        static_cast<real>(nx_)));
          const int cy = std::min(
              ny_ - 1, static_cast<int>(p.y / system.box.length.y *
                                        static_cast<real>(ny_)));
          const int cz = std::min(
              nz_ - 1, static_cast<int>(p.z / system.box.length.z *
                                        static_cast<real>(nz_)));
          cell_of_[i] = cell_index(cx, cy, cz);
        }
      });

  // Count / prefix / fill: short serial passes that keep items in ascending
  // particle order within every cell, independent of the worker count.
  const auto ncells = static_cast<std::size_t>(n_cells());
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++cell_start_[static_cast<std::size_t>(cell_of_[i]) + 1];
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  items_.resize(n);
  cursor_.assign(ncells, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(cell_of_[i]);
    items_[static_cast<std::size_t>(cell_start_[c]) +
           static_cast<std::size_t>(cursor_[c]++)] = static_cast<int>(i);
  }
}

int CellList::neighbor_cells(int c, int out[27]) const {
  const int cx = c % nx_;
  const int cy = (c / nx_) % ny_;
  const int cz = c / (nx_ * ny_);
  int count = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx)
        out[count++] = cell_index(wrap(cx + dx, nx_), wrap(cy + dy, ny_),
                                  wrap(cz + dz, nz_));
  return count;
}

void NeighborList::build(const System& system, util::ThreadPool* pool) {
  const std::size_t n = system.size();
  const real range = cutoff_ + skin_;
  cells_.build(system, range, pool);

  const std::size_t block = util::block_size(n, 512, 16);
  const std::size_t nblocks = util::block_count(n, block);
  if (scratch_.size() < nblocks) scratch_.resize(nblocks);
  row_start_.assign(n + 1, 0);

  const real range2 = range * range;
  const bool all_pairs = !cells_.stencil_ok();
  const Vec3* pos = system.pos.data();
  const Box box = system.box;

  // Pass 1: every block gathers its rows into its own scratch buffer
  // (capacity persists across rebuilds) and records per-row lengths. Row
  // content depends only on the system, never on which worker ran the block.
  util::for_blocks(
      pool, n, block,
      [&, this](std::size_t begin, std::size_t end) {
        std::vector<int>& js = scratch_[begin / block];
        js.clear();
        const std::vector<int>& cell_start = cells_.cell_start();
        const std::vector<int>& items = cells_.items();
        int stencil[27];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t row_begin = js.size();
          const Vec3 pi = pos[i];
          const int self = static_cast<int>(i);
          if (all_pairs) {
            for (std::size_t j = i + 1; j < n; ++j)
              if (box.min_image(pi, pos[j]).norm2() < range2)
                js.push_back(static_cast<int>(j));
          } else {
            const int ncand = cells_.neighbor_cells(cells_.cell_of(i), stencil);
            for (int s = 0; s < ncand; ++s) {
              const auto cell = static_cast<std::size_t>(stencil[s]);
              const int lo = cell_start[cell];
              const int hi = cell_start[cell + 1];
              for (int idx = lo; idx < hi; ++idx) {
                const int j = items[static_cast<std::size_t>(idx)];
                if (j <= self) continue;
                if (box.min_image(pi, pos[static_cast<std::size_t>(j)])
                        .norm2() < range2)
                  js.push_back(j);
              }
            }
            // Canonical row order: ascending j, independent of the stencil
            // walk (the all-pairs branch is already sorted).
            std::sort(js.begin() + static_cast<std::ptrdiff_t>(row_begin),
                      js.end());
          }
          row_start_[i + 1] = js.size() - row_begin;
        }
      });

  // Prefix-sum the row lengths, then pass 2 copies each block's rows into
  // place — disjoint contiguous spans, so the copy parallelizes freely.
  for (std::size_t i = 0; i < n; ++i) row_start_[i + 1] += row_start_[i];
  nbr_.resize(row_start_[n]);
  util::for_blocks(pool, n, block,
                   [this, block](std::size_t begin, std::size_t end) {
                     (void)end;
                     const std::vector<int>& js = scratch_[begin / block];
                     std::copy(js.begin(), js.end(),
                               nbr_.begin() + static_cast<std::ptrdiff_t>(
                                                  row_start_[begin]));
                   });

  ref_pos_ = system.pos;
  ++rebuilds_;
  static obs::Counter& rebuild_counter = obs::counter("md.nlist.rebuilds");
  rebuild_counter.inc();
}

bool NeighborList::needs_rebuild(const System& system,
                                 util::ThreadPool* pool) const {
  if (ref_pos_.size() != system.size()) return true;
  const real limit2 = 0.25 * skin_ * skin_;
  const std::size_t n = system.size();
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < n; ++i)
      if (system.box.min_image(system.pos[i], ref_pos_[i]).norm2() > limit2)
        return true;
    return false;
  }
  // Parallel scan with a relaxed early-out; the OR of per-block verdicts is
  // order-independent, so the answer matches the serial scan exactly.
  std::atomic<bool> moved{false};
  util::for_blocks(
      pool, n, util::block_size(n, 512, 16),
      [&, this](std::size_t begin, std::size_t end) {
        if (moved.load(std::memory_order_relaxed)) return;
        for (std::size_t i = begin; i < end; ++i) {
          if (system.box.min_image(system.pos[i], ref_pos_[i]).norm2() >
              limit2) {
            moved.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
  return moved.load();
}

NeighborList::FillStats NeighborList::fill_stats() const {
  FillStats stats;
  stats.rebuilds = rebuilds_;
  stats.pairs = nbr_.size();
  stats.cells = static_cast<std::size_t>(cells_.n_cells());
  const std::size_t rows = row_start_.empty() ? 0 : row_start_.size() - 1;
  for (std::size_t i = 0; i < rows; ++i)
    stats.max_row = std::max(stats.max_row, row_start_[i + 1] - row_start_[i]);
  stats.avg_row =
      rows > 0 ? static_cast<double>(stats.pairs) / static_cast<double>(rows)
               : 0.0;
  return stats;
}

}  // namespace mummi::md
