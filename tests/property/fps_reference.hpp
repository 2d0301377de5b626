// Naive farthest-point sampler — the executable specification.
//
// Straight-line O(n) argmax scans and eager O(n·dim) rank tightening after
// every pick, per-point heap-allocated coords, no lane-wise fold,
// no parallelism. Deliberately retained (not deleted with the seed
// implementation) so property tests can assert that the optimized
// FpsSampler reproduces this selection sequence byte-for-byte across
// randomized seeds, dims and batch sizes. Never use it on a hot path.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "ml/point.hpp"
#include "util/error.hpp"

namespace mummi::ml {

class FpsReference {
 public:
  FpsReference(int dim, std::size_t capacity)
      : dim_(dim), capacity_(capacity) {
    MUMMI_CHECK_MSG(dim > 0 && capacity > 0, "invalid FPS configuration");
  }

  void add_candidates(const std::vector<HDPoint>& points) {
    for (const auto& p : points) {
      MUMMI_CHECK_MSG(static_cast<int>(p.coords.size()) == dim_,
                      "candidate dimension mismatch");
      pending_.push_back(p);
    }
  }

  void update_ranks() {
    for (auto& p : pending_) {
      Candidate c;
      c.point = std::move(p);
      for (const auto& s : selected_)
        c.rank2 = std::min(c.rank2, dist2(c.point.coords, s.coords));
      ranked_.push_back(std::move(c));
    }
    pending_.clear();
    evict_to_capacity();
  }

  std::vector<HDPoint> select(std::size_t k) {
    update_ranks();
    std::vector<HDPoint> out;
    while (out.size() < k && !ranked_.empty()) {
      // Highest rank wins; ties break on lowest id — the determinism
      // contract the optimized sampler must match.
      auto best = ranked_.begin();
      for (auto it = ranked_.begin() + 1; it != ranked_.end(); ++it)
        if (it->rank2 > best->rank2 ||
            (it->rank2 == best->rank2 && it->point.id < best->point.id))
          best = it;
      HDPoint chosen = std::move(best->point);
      *best = std::move(ranked_.back());
      ranked_.pop_back();
      for (auto& c : ranked_)
        c.rank2 = std::min(c.rank2, dist2(c.point.coords, chosen.coords));
      selected_.push_back(chosen);
      out.push_back(std::move(chosen));
    }
    return out;
  }

  [[nodiscard]] std::size_t candidate_count() const {
    return ranked_.size() + pending_.size();
  }
  [[nodiscard]] std::size_t selected_count() const { return selected_.size(); }

 private:
  struct Candidate {
    HDPoint point;
    float rank2 = std::numeric_limits<float>::infinity();
  };

  void evict_to_capacity() {
    if (ranked_.size() <= capacity_) return;
    // (rank2 desc, id asc) is a total order, so the survivor set is unique.
    std::nth_element(ranked_.begin(),
                     ranked_.begin() + static_cast<long>(capacity_),
                     ranked_.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.rank2 != b.rank2) return a.rank2 > b.rank2;
                       return a.point.id < b.point.id;
                     });
    ranked_.resize(capacity_);
  }

  int dim_;
  std::size_t capacity_;
  std::vector<Candidate> ranked_;
  std::vector<HDPoint> pending_;
  std::vector<HDPoint> selected_;
};

}  // namespace mummi::ml
