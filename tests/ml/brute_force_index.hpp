// Exact linear-scan nearest-neighbor index — the correctness reference that
// the KdTreeIndex tests compare against. Never used by a program.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "ml/ann_index.hpp"
#include "ml/point_store.hpp"

namespace mummi::ml {

class BruteForceIndex {
 public:
  void add(const HDPoint& point) {
    if (points_.dim() == 0)
      points_ = PointStore(static_cast<int>(point.coords.size()));
    points_.add(point.id, point.coords);
  }

  /// Nearest neighbor of `query`; nullopt when the index is empty.
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::initializer_list<float> query) const {
    const std::span<const float> q(query.begin(), query.size());
    std::optional<Neighbor> best;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const float d2 = dist2(q, points_.coords(i));
      if (!best || d2 < best->dist2) best = Neighbor{points_.id(i), d2};
    }
    return best;
  }

  /// k nearest neighbors, closest first.
  [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                          std::size_t k) const {
    std::vector<Neighbor> all;
    all.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i)
      all.push_back({points_.id(i), dist2(query, points_.coords(i))});
    const std::size_t take = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                      all.end(),
                      [](const Neighbor& a, const Neighbor& b) {
                        return a.dist2 < b.dist2;
                      });
    all.resize(take);
    return all;
  }
  [[nodiscard]] std::vector<Neighbor> knn(std::initializer_list<float> query,
                                          std::size_t k) const {
    return knn(std::span<const float>(query.begin(), query.size()), k);
  }

 private:
  PointStore points_;  // dim fixed by the first add
};

}  // namespace mummi::ml
