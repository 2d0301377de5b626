// Farthest-point sampler over L2 — the Patch Selector's core (the DynIm
// substitute).
//
// Paper Task 2: "New candidates ... are ingested by the WM as soon as new
// data is generated, whereas new selections are made upon request ... Since
// selection events are orders of magnitude fewer than addition events, we use
// a caching scheme to postpone expensive computations until the time of a
// selection, which makes the cost of adding new candidates negligible."
// This sampler ranks on arrival instead: with the pool capped at admission
// that is cheaper than storing every arrival (DESIGN.md §4d).
//
// Rank(candidate) = distance to the nearest already-selected point; selecting
// always takes the highest rank ("most novel"). The pool is capped (paper:
// 35,000 per queue); the least novel candidates are evicted first.
//
// One invariant (see DESIGN.md "Selection-layer data layout & deterministic
// parallelism"): every pooled rank is exact, and the pool never stores a
// candidate that cannot survive to the next select().
//  - The selected set changes only in select(), so an arrival's rank is
//    final when it arrives. add_candidates() ranks each arrival with an
//    exact 16-wide fold over the selected set held transposed (the scan a
//    flat L2 index does) and admits it only if its (rank2 desc, id asc) key
//    beats the cut, the pool's capacity-th key. A rejected arrival is never
//    copied.
//  - Admitted arrivals are appended; a radix select on the ranks trims the
//    pool to capacity at twice that, at select() and in serialize().
//  - A pick is the argmax. It is folded into every rank, fused with the next
//    argmax, in fixed blocks through util::for_blocks on the pool the owner
//    passes (null: serial), so every float is identical on any worker count.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "ml/point.hpp"
#include "ml/point_store.hpp"
#include "util/bytes.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::ml {

class FpsSampler {
 public:
  /// Serialization format version; bumped when the on-disk layout changes
  /// (v3 = survivors and exact ranks only; older blobs are rejected, not
  /// misread).
  static constexpr std::uint8_t kSerialVersion = 3;

  /// `refresh_pool` runs batch ranking and the pick folds; null is serial.
  /// It is not part of the serialized state: deserialize takes it again.
  FpsSampler(int dim, std::size_t capacity,
             util::ThreadPool* refresh_pool = nullptr);

  /// Ranks the batch and admits the arrivals that can survive to the next
  /// select(). All-or-nothing: a dimension mismatch throws before anything
  /// is added.
  void add_candidates(const PointStore& points);
  void add_candidates(const std::vector<HDPoint>& points) {
    add_candidates(PointStore::from_points(points, dim_));
  }
  /// Returns up to k most novel candidates and removes them from the pool.
  std::vector<HDPoint> select(std::size_t k);
  /// Ranks are exact on arrival; this only trims the pool to capacity.
  void update_ranks() { compact(); }

  [[nodiscard]] int dim() const { return dim_; }

  /// Stored candidates: at most twice the capacity between selects, at
  /// most the capacity after select() or update_ranks().
  [[nodiscard]] std::size_t candidate_count() const { return pool_.size(); }
  [[nodiscard]] std::size_t selected_count() const {
    return selected_.size();
  }

  /// Current novelty rank of a candidate (sqrt of nearest-selected dist2);
  /// infinity when nothing was selected yet, NaN for a candidate the pool
  /// does not hold. For tests/diagnostics.
  [[nodiscard]] float rank_of(PointId id) const;

  /// Checkpoint state, appended to `w`. A sampler is a pure function of its
  /// construction arguments and its add/select calls, so a campaign replays
  /// exactly (paper Sec. 4.4) from its seed and its last checkpoint.
  void serialize(util::ByteWriter& w) const;
  static FpsSampler deserialize(util::ByteReader& r,
                                util::ThreadPool* refresh_pool = nullptr);

 private:
  /// A candidate's place in the total order (rank2 desc, id asc): argmax
  /// ties break on lowest id — the determinism contract.
  struct Key {
    PointId id = 0;
    float rank2 = -std::numeric_limits<float>::infinity();
    std::uint32_t slot = 0;
  };
  static bool better(const Key& a, const Key& b) {
    if (a.rank2 != b.rank2) return a.rank2 > b.rank2;
    return a.id < b.id;
  }
  [[nodiscard]] Key key(std::size_t slot) const {
    return {pool_.id(slot), rank2_[slot], static_cast<std::uint32_t>(slot)};
  }
  [[nodiscard]] Key worst_key() const;

  /// Flags the `capacity_` best slots of an over-full pool and sets `cut`
  /// to the worst of them.
  [[nodiscard]] std::vector<char> survivors(Key& cut) const;
  void compact();
  /// Folds `pick` (empty: nothing) into every rank; returns the argmax slot.
  std::size_t fold_argmax(std::span<const float> pick);
  void add_selected(PointId id, std::span<const float> coords);

  int dim_;
  std::size_t capacity_;
  util::ThreadPool* refresh_pool_;
  PointStore pool_;           // candidates that may survive, SoA
  std::vector<float> rank2_;  // exact min dist2 to the selected set
  Key cut_;                   // capacity-th key; rank2 -inf: pool not full
  PointStore selected_;  // selection order; checkpoint state
  // selected_ in groups of 16 points, one row of 16 lanes per dimension;
  // lanes past the last point hold +inf.
  std::vector<float> selected_t_;
};

}  // namespace mummi::ml
