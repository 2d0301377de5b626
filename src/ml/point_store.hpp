// Flat structure-of-arrays point storage shared across the selection layer.
//
// The seed implementation carried every candidate as an HDPoint whose coords
// lived in its own heap allocation; at campaign scale (millions of
// candidates, paper Sec. 5.1) the selectors spent most of their time
// pointer-chasing and in the allocator. A PointStore keeps one contiguous
// float array (dim coords per point) plus a parallel id array, so rank
// updates stream linearly through memory and adding a candidate is two
// vector appends.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/point.hpp"
#include "util/bytes.hpp"

namespace mummi::ml {

class PointStore {
 public:
  PointStore() = default;
  explicit PointStore(int dim);

  /// Copies `points` into a store of dimension `dim` — the one path from
  /// owning HDPoints into the selection layer. Every point's dimension is
  /// checked in all builds, so a bad batch throws before any consumer sees
  /// a point of it.
  static PointStore from_points(const std::vector<HDPoint>& points, int dim);

  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }

  void reserve(std::size_t n);
  void clear();

  /// Appends a point; returns its slot index. Inline: this is the
  /// per-candidate ingest path (millions of calls per campaign).
  std::size_t add(PointId id, std::span<const float> coords) {
    MUMMI_DEBUG_ASSERT(static_cast<int>(coords.size()) == dim_,
                       "candidate dimension mismatch");
    ids_.push_back(id);
    coords_.insert(coords_.end(), coords.begin(), coords.end());
    return ids_.size() - 1;
  }
  std::size_t add(const HDPoint& p) { return add(p.id, p.coords); }
  /// Appends every point of `other` (dims must match).
  void append(const PointStore& other);

  [[nodiscard]] PointId id(std::size_t slot) const { return ids_[slot]; }
  [[nodiscard]] std::span<const float> coords(std::size_t slot) const {
    return {coords_.data() + slot * static_cast<std::size_t>(dim_),
            static_cast<std::size_t>(dim_)};
  }
  /// The whole coordinate block, size() * dim() floats.
  [[nodiscard]] std::span<const float> flat() const { return coords_; }

  /// Copies one slot out into an owning HDPoint (boundary use only — the hot
  /// paths stay inside the store).
  [[nodiscard]] HDPoint materialize(std::size_t slot) const;

  /// Removes `slot` by moving the last point into it (order not preserved);
  /// returns the removed point. Callers tracking slots must re-map the moved
  /// point from slot size()-1 to `slot`.
  HDPoint swap_remove(std::size_t slot);
  /// Keeps the slots whose `keep` flag is set, in slot order; `keep` has
  /// one flag per slot. Storage capacity is kept for the next appends.
  void retain(const std::vector<char>& keep);

  void serialize(util::ByteWriter& w) const;
  static PointStore deserialize(util::ByteReader& r);

 private:
  int dim_ = 0;
  std::vector<PointId> ids_;
  std::vector<float> coords_;
};

}  // namespace mummi::ml
