// Nearest-neighbor index over L2 (the FAISS substitute).
//
// Paper Task 2: patch ranks "are updated using approximate nearest neighbor
// queries (with L2 distances) powered by the FAISS framework". The selectors
// here only ever query against the *selected* set (small), so an exact
// KD-tree with periodic rebuilds covers the need at reproduction scale.
//
// Points live in a flat PointStore and both build and search are iterative
// (explicit bounded stacks, no recursion), so a query touches contiguous
// memory and performs zero allocations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "ml/point_store.hpp"

namespace mummi::ml {

struct Neighbor {
  PointId id = 0;
  float dist2 = 0;
};

/// Exact KD-tree with buffered inserts: new points accumulate in a flat
/// buffer and the tree is rebuilt when the buffer outgrows a fraction of the
/// tree, amortizing construction.
class KdTreeIndex {
 public:
  explicit KdTreeIndex(int dim);

  void add(PointId id, std::span<const float> coords);
  void add(const HDPoint& point) { add(point.id, point.coords); }

  /// Nearest neighbor of `query`; nullopt when the index is empty.
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::span<const float> query) const;
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::initializer_list<float> query) const {
    return nearest(std::span<const float>(query.begin(), query.size()));
  }

  /// k nearest neighbors, closest first.
  [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                          std::size_t k) const;
  [[nodiscard]] std::vector<Neighbor> knn(std::initializer_list<float> query,
                                          std::size_t k) const {
    return knn(std::span<const float>(query.begin(), query.size()), k);
  }

  [[nodiscard]] std::size_t size() const {
    return tree_pts_.size() + buffer_.size();
  }

  /// Folds the insert buffer into the tree now. Call before a query batch so
  /// every query runs on the O(log n) path instead of also scanning the
  /// buffer.
  void flush();

 private:
  struct Node {
    std::uint32_t slot = 0;  // into tree_pts_
    std::int32_t left = -1, right = -1;
    std::int32_t axis = 0;
  };

  // Depth of a median-balanced tree over 2^31 points stays under 33; rebuild
  // enforces the margin so search stacks can live in fixed arrays.
  static constexpr int kMaxStack = 64;

  void rebuild();
  [[nodiscard]] Neighbor nearest_in_tree(std::span<const float> query) const;
  void search_knn(std::span<const float> query, std::vector<Neighbor>& best,
                  std::size_t k) const;
  static void push_candidate(std::vector<Neighbor>& best, std::size_t k,
                             Neighbor candidate);

  int dim_;
  PointStore tree_pts_;
  PointStore buffer_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace mummi::ml
