// The Patch Selector and Frame Selector (paper Task 2), thread-safe.
//
// "A custom, abstract API was developed using the DynIm framework that was
// extended by both the Patch Selector and the (CG) Frame Selector ... To
// support the application need, we incorporate five in-memory queues in the
// Patch Selector for sampling different protein configurations. For
// computational viability, each queue is capped at 35,000 patches."
//
// Thread safety matters because selectors are shared between the ML-selection
// task and the feedback task ("thread-safe objects are used with a mix of
// blocking and nonblocking locks").
#pragma once

#include <mutex>
#include <vector>

#include "continuum/gridsim2d.hpp"
#include "ml/binned_sampler.hpp"
#include "ml/fps_sampler.hpp"

namespace mummi::wm {

/// A selected patch candidate with its originating queue.
struct PatchSelection {
  ml::HDPoint point;
  int queue = 0;
};

class PatchSelector {
 public:
  /// `n_queues` farthest-point queues (paper: 5; one per protein
  /// configuration class), each capped at `capacity` candidates. Every queue
  /// refreshes its ranks on `refresh_pool` (null: serial), also after
  /// restore().
  PatchSelector(int dim, int n_queues, std::size_t capacity,
                util::ThreadPool* refresh_pool = nullptr);

  /// Ingests encoded patches into one queue (all-or-nothing per batch).
  void add(int queue, const ml::PointStore& points);

  /// Selects up to k candidates round-robin across queues, most novel first
  /// within each queue. Batched: the round-robin pick order is computed
  /// up-front from per-queue candidate counts, then each queue serves its
  /// share in ONE select call — same sequence as k select(1) round-robin
  /// steps, minus the per-pick rank-refresh overhead.
  [[nodiscard]] std::vector<PatchSelection> select(std::size_t k);

  /// Brings every queue's ranks up to date and trims it to capacity (the
  /// 3-4 minute operation the paper times); returns the candidates held.
  std::size_t update_ranks();

  [[nodiscard]] std::size_t candidate_count() const;
  [[nodiscard]] std::size_t selected_count() const;
  [[nodiscard]] int n_queues() const { return static_cast<int>(queues_.size()); }
  [[nodiscard]] int dim() const { return dim_; }

  /// Appends the queues' state to `w`; restore() replaces it from `r`, all
  /// or nothing: on malformed bytes it throws and the selector is unchanged.
  void serialize(util::ByteWriter& w) const;
  void restore(util::ByteReader& r) { commit(decode(r)); }

  /// restore() in two steps, so an owner can decode all its parts before it
  /// commits any: decode() only reads, commit() does not throw.
  struct Decoded {
    int next_queue = 0;
    std::vector<ml::FpsSampler> queues;
  };
  [[nodiscard]] Decoded decode(util::ByteReader& r) const;
  void commit(Decoded state);

 private:
  mutable std::mutex mutex_;
  std::vector<ml::FpsSampler> queues_;
  int next_queue_ = 0;
  int dim_;
  std::size_t capacity_;
  util::ThreadPool* refresh_pool_;
};

class FrameSelector {
 public:
  /// 3-D binned sampler over (tilt [deg], rotation [deg], separation [nm]).
  FrameSelector(double importance, std::uint64_t seed);

  void add(const ml::PointStore& points);
  [[nodiscard]] std::vector<ml::HDPoint> select(std::size_t k);
  [[nodiscard]] int dim() const;

  [[nodiscard]] std::size_t candidate_count() const;
  [[nodiscard]] std::size_t selected_count() const;

  /// Appends the sampler's state to `w`; restore() replaces it from `r`,
  /// all or nothing, in the two steps PatchSelector describes.
  void serialize(util::ByteWriter& w) const;
  void restore(util::ByteReader& r) { commit(decode(r)); }
  [[nodiscard]] static ml::BinnedSampler decode(util::ByteReader& r);
  void commit(ml::BinnedSampler sampler);

 private:
  static std::vector<std::vector<float>> default_edges();

  mutable std::mutex mutex_;
  ml::BinnedSampler sampler_;
};

}  // namespace mummi::wm
