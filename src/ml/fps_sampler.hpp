// Farthest-point sampler over L2 — the Patch Selector's core.
//
// Rank(candidate) = distance to the nearest already-selected point; selecting
// always takes the highest rank ("most novel"). Additions are O(1) (lazy);
// ranks refresh at selection time against a KD-tree of selected points. The
// pool is capped (paper: 35,000 per queue); the least novel candidates are
// evicted first.
//
// Layout and algorithm (see DESIGN.md "Selection-layer data layout &
// deterministic parallelism"):
//  - Candidates live in a flat PointStore; rank2_/seen_ are parallel arrays.
//    seen_[s] counts how many selected points slot s's rank already folded
//    in, so rank tightening is lazy and batched.
//  - update_ranks() refreshes every stale slot in one pass, fanned out over
//    util::for_blocks on the pool the owner passes (null: serial) with fixed
//    block boundaries — results are identical for any worker count.
//  - select() pops from a lazy max-heap of (rank2 upper bound, id) entries;
//    stale entries are detected by value/id mismatch, so each pick costs
//    O(log n) amortized instead of a full scan.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "ml/ann_index.hpp"
#include "ml/sampler.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::ml {

class FpsSampler final : public Sampler {
 public:
  /// Serialization format version; bumped when the on-disk layout changes
  /// (v2 = flat SoA layout; v1 blobs are rejected, not misread).
  static constexpr std::uint8_t kSerialVersion = 2;

  /// `refresh_pool` runs the rank refresh; null is serial. It is not part
  /// of the serialized state: deserialize takes it again.
  FpsSampler(int dim, std::size_t capacity,
             util::ThreadPool* refresh_pool = nullptr);

  using Sampler::add_candidates;
  void add_candidates(const PointStore& points) override;
  std::vector<HDPoint> select(std::size_t k) override;
  void update_ranks() override;

  [[nodiscard]] int dim() const override { return dim_; }

  [[nodiscard]] std::size_t candidate_count() const override {
    return pool_.size();
  }
  [[nodiscard]] std::size_t selected_count() const override {
    return selected_.size();
  }

  /// Current novelty rank of a candidate (sqrt of nearest-selected dist2);
  /// infinity when nothing was selected yet, NaN for unknown or not-yet-
  /// ranked candidates. For tests/diagnostics.
  [[nodiscard]] float rank_of(PointId id) const;

  void serialize(util::ByteWriter& w) const override;
  static FpsSampler deserialize(util::ByteReader& r,
                                util::ThreadPool* refresh_pool = nullptr);

 private:
  /// Lazy max-heap entry: rank2 is an upper bound on the slot's true rank
  /// (ranks only tighten). Ordering is (rank2 desc, id asc) so argmax ties
  /// break on lowest id — the determinism contract.
  struct HeapEntry {
    float rank2 = std::numeric_limits<float>::infinity();
    PointId id = 0;
    std::uint32_t slot = 0;
  };

  /// Heap "less" — true when `a` should sit *below* `b`: lower rank, or
  /// equal rank with higher id (ties surface the lowest id first).
  static bool heap_below(const HeapEntry& a, const HeapEntry& b) {
    if (a.rank2 != b.rank2) return a.rank2 < b.rank2;
    return a.id > b.id;
  }

  /// Folds selected points [seen_[slot], n_sel) into rank2_[slot]; uses the
  /// kd-tree instead of the linear fold once the backlog is large. Both
  /// paths produce bit-identical values (exact min over identical dist2
  /// evaluations).
  void refresh_slot(std::size_t slot, std::size_t n_sel);
  void evict_to_capacity();
  void rebuild_heap();
  /// Removes `slot` from the pool (swap-remove across all parallel arrays)
  /// and keeps the heap consistent for the point moved into `slot`.
  HDPoint take_slot(std::size_t slot);

  int dim_;
  std::size_t capacity_;
  util::ThreadPool* refresh_pool_;
  PointStore pool_;                  // all candidates, SoA
  std::vector<float> rank2_;         // min dist2 to selected[0..seen_[s])
  std::vector<std::uint32_t> seen_;  // per-slot fold watermark
  std::size_t ranked_count_ = 0;     // slots < ranked_count_ have real ranks
  std::vector<HeapEntry> heap_;
  KdTreeIndex selected_index_;
  PointStore selected_;  // selection order; fold source + checkpoint state
};

}  // namespace mummi::ml
