// Dynamic-importance sampling (the DynIm substitute).
//
// Paper Task 2: "New candidates ... are ingested by the WM as soon as new
// data is generated, whereas new selections are made upon request ... Since
// selection events are orders of magnitude fewer than addition events, we use
// a caching scheme to postpone expensive computations until the time of a
// selection, which makes the cost of adding new candidates negligible."
//
// A Sampler ingests encoded points, ranks them for novelty, and hands back
// the top candidates on request. Implementations: FpsSampler (farthest-point,
// 9-D patches) and BinnedSampler (3-D histogram, CG frames).
#pragma once

#include <cstddef>
#include <vector>

#include "ml/point.hpp"
#include "ml/point_store.hpp"
#include "util/bytes.hpp"

namespace mummi::ml {

class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Ingests candidates; a capped sampler may rank them and drop those
  /// that cannot survive to the next select. The batch is all-or-nothing: a
  /// dimension mismatch throws before anything is added.
  virtual void add_candidates(const PointStore& points) = 0;

  /// Owning-point convenience over the flat path: the whole batch is
  /// converted (and checked) before the sampler is touched.
  void add_candidates(const std::vector<HDPoint>& points) {
    add_candidates(PointStore::from_points(points, dim()));
  }

  /// Candidate dimension.
  [[nodiscard]] virtual int dim() const = 0;

  /// Returns up to k most novel candidates and removes them from the pool.
  /// Triggers any deferred rank updates.
  virtual std::vector<HDPoint> select(std::size_t k) = 0;

  /// Brings every rank up to date and trims the pool to its capacity now
  /// (the paper times this at 3-4 min for full queues). FpsSampler ranks
  /// each candidate on arrival, so for it this is only the trim;
  /// BinnedSampler keeps its ranking current and has nothing to do.
  virtual void update_ranks() = 0;

  [[nodiscard]] virtual std::size_t candidate_count() const = 0;
  [[nodiscard]] virtual std::size_t selected_count() const = 0;

  /// Checkpoint serialization, appended to `w`. A sampler is a pure
  /// function of its seed and its add/select calls, so a campaign replays
  /// exactly (paper Sec. 4.4) from its seed and its last checkpoint.
  virtual void serialize(util::ByteWriter& w) const = 0;
};

}  // namespace mummi::ml
