#include "wm/selectors.hpp"

#include "util/error.hpp"

namespace mummi::wm {

PatchSelector::PatchSelector(int dim, int n_queues, std::size_t capacity,
                             util::ThreadPool* refresh_pool)
    : dim_(dim), capacity_(capacity), refresh_pool_(refresh_pool) {
  MUMMI_CHECK_MSG(n_queues > 0, "need at least one queue");
  queues_.reserve(static_cast<std::size_t>(n_queues));
  for (int q = 0; q < n_queues; ++q)
    queues_.emplace_back(dim, capacity, refresh_pool);
}

void PatchSelector::add(int queue, const ml::PointStore& points) {
  std::lock_guard lock(mutex_);
  MUMMI_CHECK_MSG(queue >= 0 && queue < n_queues(), "queue out of range");
  queues_[static_cast<std::size_t>(queue)].add_candidates(points);
}

std::vector<PatchSelection> PatchSelector::select(std::size_t k) {
  std::lock_guard lock(mutex_);
  const auto nq = queues_.size();
  // Round-robin across queues so every protein-configuration class keeps
  // getting representation. The walk is simulated against per-queue counts
  // first (a queue serves a pick iff it is non-empty — selection never
  // empties a non-empty pool), then each queue fills its share in one
  // batched select. Per-queue selection order is independent of the other
  // queues, so the interleaved result matches the per-pick loop exactly.
  std::vector<std::size_t> avail(nq), want(nq, 0);
  for (std::size_t q = 0; q < nq; ++q)
    avail[q] = std::min(queues_[q].candidate_count(), capacity_);
  std::vector<int> pick_order;
  pick_order.reserve(k);
  std::size_t empty_streak = 0;
  while (pick_order.size() < k && empty_streak < nq) {
    const auto q = static_cast<std::size_t>(next_queue_);
    if (avail[q] > 0) {
      --avail[q];
      ++want[q];
      pick_order.push_back(next_queue_);
      empty_streak = 0;
    } else {
      ++empty_streak;
    }
    next_queue_ = (next_queue_ + 1) % n_queues();
  }

  std::vector<std::vector<ml::HDPoint>> picked(nq);
  for (std::size_t q = 0; q < nq; ++q)
    if (want[q] > 0) picked[q] = queues_[q].select(want[q]);

  std::vector<PatchSelection> out;
  out.reserve(pick_order.size());
  std::vector<std::size_t> cursor(nq, 0);
  for (const int q : pick_order) {
    auto& from = picked[static_cast<std::size_t>(q)];
    MUMMI_CHECK_MSG(cursor[static_cast<std::size_t>(q)] < from.size(),
                    "queue under-served its simulated picks");
    out.push_back(PatchSelection{
        std::move(from[cursor[static_cast<std::size_t>(q)]++]), q});
  }
  return out;
}

std::size_t PatchSelector::update_ranks() {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (auto& q : queues_) {
    q.update_ranks();
    total += q.candidate_count();
  }
  return total;
}

std::size_t PatchSelector::candidate_count() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.candidate_count();
  return total;
}

std::size_t PatchSelector::selected_count() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.selected_count();
  return total;
}

void PatchSelector::serialize(util::ByteWriter& w) const {
  std::lock_guard lock(mutex_);
  w.u32(static_cast<std::uint32_t>(queues_.size()));
  w.u32(static_cast<std::uint32_t>(next_queue_));
  for (const auto& q : queues_) w.section([&] { q.serialize(w); });
}

PatchSelector::Decoded PatchSelector::decode(util::ByteReader& r) const {
  std::lock_guard lock(mutex_);
  const auto nq = r.u32();
  MUMMI_CHECK_MSG(nq == queues_.size(), "queue count mismatch on restore");
  const auto next_queue = r.u32();
  if (next_queue >= nq)
    throw util::FormatError("patch selector: next queue out of range");
  Decoded state{static_cast<int>(next_queue), {}};
  state.queues.reserve(nq);
  for (std::uint32_t q = 0; q < nq; ++q) {
    util::ByteReader section = r.section();
    state.queues.push_back(ml::FpsSampler::deserialize(section, refresh_pool_));
  }
  return state;
}

void PatchSelector::commit(Decoded state) {
  std::lock_guard lock(mutex_);
  next_queue_ = state.next_queue;
  queues_ = std::move(state.queues);
}

std::vector<std::vector<float>> FrameSelector::default_edges() {
  // tilt: 0-90 deg in 6 bins; rotation: 0-360 in 8 bins; separation: 0-3 nm
  // in 6 bins.
  return {
      {15, 30, 45, 60, 75},
      {45, 90, 135, 180, 225, 270, 315},
      {0.5, 1.0, 1.5, 2.0, 2.5},
  };
}

FrameSelector::FrameSelector(double importance, std::uint64_t seed)
    : sampler_(default_edges(), importance, seed) {}

void FrameSelector::add(const ml::PointStore& points) {
  std::lock_guard lock(mutex_);
  sampler_.add_candidates(points);
}

int FrameSelector::dim() const {
  std::lock_guard lock(mutex_);  // restore() replaces the sampler
  return sampler_.dim();
}

std::vector<ml::HDPoint> FrameSelector::select(std::size_t k) {
  std::lock_guard lock(mutex_);
  return sampler_.select(k);
}

std::size_t FrameSelector::candidate_count() const {
  std::lock_guard lock(mutex_);
  return sampler_.candidate_count();
}

std::size_t FrameSelector::selected_count() const {
  std::lock_guard lock(mutex_);
  return sampler_.selected_count();
}

void FrameSelector::serialize(util::ByteWriter& w) const {
  std::lock_guard lock(mutex_);
  sampler_.serialize(w);
}

ml::BinnedSampler FrameSelector::decode(util::ByteReader& r) {
  return ml::BinnedSampler::deserialize(r);
}

void FrameSelector::commit(ml::BinnedSampler sampler) {
  std::lock_guard lock(mutex_);
  sampler_ = std::move(sampler);
}

}  // namespace mummi::wm
