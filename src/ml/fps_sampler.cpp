#include "ml/fps_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::ml {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

// Slots per util::for_blocks block in update_ranks. Fixed (never derived
// from the worker count) so per-block work — and therefore every float
// produced — is identical on any pool size.
constexpr std::size_t kRefreshBlock = 1024;

// Fold backlog beyond which a kd-tree nearest query beats the linear fold
// over newly selected points. Both paths yield bit-identical ranks; this is
// purely a cost crossover (the interleaved fold below sustains ~4 pairs in
// flight, so it stays competitive with the tree far past small backlogs).
constexpr std::size_t kKdBacklog = 512;

/// min(r, min dist2 from `c` to selected rows [from, to)).
///
/// Four rows are folded in flight to break the single-accumulator latency
/// chain dist2 imposes. Each row's partial sums accumulate in the same index
/// order as dist2 (one accumulator per pair), and min is exact, so the
/// result is bit-identical to the sequential fold — this is an ILP
/// transform, not a numeric one.
float fold_min(std::span<const float> c, const PointStore& sel,
               std::size_t from, std::size_t to, float r) {
  const auto dim = static_cast<std::size_t>(sel.dim());
  const float* base = sel.flat().data();
  std::size_t j = from;
  for (; j + 4 <= to; j += 4) {
    const float* p0 = base + (j + 0) * dim;
    const float* p1 = base + (j + 1) * dim;
    const float* p2 = base + (j + 2) * dim;
    const float* p3 = base + (j + 3) * dim;
    float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      const float x = c[d];
      const float e0 = x - p0[d];
      const float e1 = x - p1[d];
      const float e2 = x - p2[d];
      const float e3 = x - p3[d];
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    r = std::min(r, std::min(std::min(s0, s1), std::min(s2, s3)));
  }
  for (; j < to; ++j) r = std::min(r, dist2(c, sel.coords(j)));
  return r;
}
}  // namespace

FpsSampler::FpsSampler(int dim, std::size_t capacity,
                       util::ThreadPool* refresh_pool)
    : dim_(dim),
      capacity_(capacity),
      refresh_pool_(refresh_pool),
      pool_(dim),
      selected_index_(dim),
      selected_(dim) {
  MUMMI_CHECK_MSG(dim > 0 && capacity > 0, "invalid FPS configuration");
}

void FpsSampler::add_candidates(const PointStore& points) {
  MUMMI_CHECK_MSG(points.dim() == dim_, "candidate dimension mismatch");
  pool_.append(points);
  rank2_.insert(rank2_.end(), points.size(), kInf);
  seen_.insert(seen_.end(), points.size(), 0);
  record('A', points.ids());
}

void FpsSampler::refresh_slot(std::size_t slot, std::size_t n_sel) {
  const std::size_t from = seen_[slot];
  if (from >= n_sel) return;
  float r = rank2_[slot];
  const auto c = pool_.coords(slot);
  if (n_sel - from > kKdBacklog && selected_index_.size() == n_sel) {
    // One tree query spans the whole selected set; min-merging with the
    // stored partial rank reproduces the full fold exactly (min is exact).
    if (auto nn = selected_index_.nearest(c)) r = std::min(r, nn->dist2);
  } else {
    r = fold_min(c, selected_, from, n_sel, r);
  }
  rank2_[slot] = r;
  seen_[slot] = static_cast<std::uint32_t>(n_sel);
}

void FpsSampler::update_ranks() {
  selected_index_.flush();
  const std::size_t n_sel = selected_.size();
  util::for_blocks(refresh_pool_, pool_.size(), kRefreshBlock,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t s = begin; s < end; ++s)
                       refresh_slot(s, n_sel);
                   });
  evict_to_capacity();
  ranked_count_ = pool_.size();
  rebuild_heap();
}

void FpsSampler::evict_to_capacity() {
  if (pool_.size() <= capacity_) return;
  // Keep the `capacity_` most novel candidates; the (rank2 desc, id asc)
  // order is total, so the survivor set is unique — independent of slot
  // order and of how the ranks were computed.
  std::vector<std::uint32_t> order(pool_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::nth_element(order.begin(), order.begin() + static_cast<long>(capacity_),
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     if (rank2_[a] != rank2_[b]) return rank2_[a] > rank2_[b];
                     return pool_.id(a) < pool_.id(b);
                   });
  std::vector<std::uint32_t> doomed(order.begin() + static_cast<long>(capacity_),
                                    order.end());
  // Highest slot first: every swap-in source is a survivor or a later slot.
  std::sort(doomed.begin(), doomed.end(), std::greater<>());
  for (const auto s : doomed) {
    pool_.swap_remove(s);
    const std::size_t last = pool_.size();
    if (s != last) {
      rank2_[s] = rank2_[last];
      seen_[s] = seen_[last];
    }
    rank2_.pop_back();
    seen_.pop_back();
  }
}

void FpsSampler::rebuild_heap() {
  heap_.clear();
  heap_.reserve(pool_.size());
  for (std::size_t s = 0; s < pool_.size(); ++s)
    heap_.push_back(
        {rank2_[s], pool_.id(s), static_cast<std::uint32_t>(s)});
  std::make_heap(heap_.begin(), heap_.end(), heap_below);
}

HDPoint FpsSampler::take_slot(std::size_t slot) {
  HDPoint out = pool_.swap_remove(slot);
  const std::size_t last = pool_.size();
  if (slot != last) {
    rank2_[slot] = rank2_[last];
    seen_[slot] = seen_[last];
  }
  rank2_.pop_back();
  seen_.pop_back();
  if (slot < pool_.size()) {
    // The moved point's old heap entries now fail the slot/id check; hand it
    // a live entry so every candidate stays reachable.
    heap_.push_back({rank2_[slot], pool_.id(slot),
                     static_cast<std::uint32_t>(slot)});
    std::push_heap(heap_.begin(), heap_.end(), heap_below);
  }
  return out;
}

std::vector<HDPoint> FpsSampler::select(std::size_t k) {
  update_ranks();
  std::vector<HDPoint> out;
  std::vector<PointId> ids;
  while (out.size() < k && !pool_.empty()) {
    if (heap_.empty()) rebuild_heap();  // self-heal; not expected
    const HeapEntry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_below);
    heap_.pop_back();
    // Stale entry: the slot was vacated/reused, or a fresher entry with the
    // tightened rank was pushed when the value changed. Either way a live
    // entry for the affected candidate exists elsewhere in the heap.
    if (e.slot >= pool_.size() || pool_.id(e.slot) != e.id ||
        rank2_[e.slot] != e.rank2)
      continue;
    const std::size_t n_sel = selected_.size();
    if (seen_[e.slot] != n_sel) {
      const float before = rank2_[e.slot];
      refresh_slot(e.slot, n_sel);
      if (rank2_[e.slot] != before) {
        heap_.push_back({rank2_[e.slot], e.id, e.slot});
        std::push_heap(heap_.begin(), heap_.end(), heap_below);
        continue;
      }
      // Unchanged: e was the heap max of upper bounds and now holds an exact
      // rank, so it is the true (rank2 desc, id asc) argmax — CELF-style
      // lazy confirmation.
    }
    HDPoint chosen = take_slot(e.slot);
    selected_index_.add(chosen.id, chosen.coords);
    selected_.add(chosen.id, chosen.coords);
    ids.push_back(chosen.id);
    out.push_back(std::move(chosen));
  }
  ranked_count_ = pool_.size();
  record('S', std::move(ids));
  return out;
}

float FpsSampler::rank_of(PointId id) const {
  const std::size_t limit = std::min(ranked_count_, pool_.size());
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    if (pool_.id(s) != id) continue;
    if (s >= limit) break;  // pending: not ranked yet
    float r = rank2_[s];
    for (std::size_t j = seen_[s]; j < selected_.size(); ++j)
      r = std::min(r, dist2(pool_.coords(s), selected_.coords(j)));
    return std::sqrt(r);
  }
  return std::numeric_limits<float>::quiet_NaN();
}

void FpsSampler::serialize(util::ByteWriter& w) const {
  w.u8(kSerialVersion);
  w.u32(static_cast<std::uint32_t>(dim_));
  w.u64(capacity_);
  w.u64(ranked_count_);
  pool_.serialize(w);
  w.vec(rank2_);
  w.vec(seen_);
  selected_.serialize(w);
}

FpsSampler FpsSampler::deserialize(util::ByteReader& r,
                                   util::ThreadPool* refresh_pool) {
  const auto version = r.u8();
  if (version != kSerialVersion)
    throw util::FormatError(
        "fps sampler checkpoint version mismatch: expected v" +
        std::to_string(kSerialVersion) + ", got byte " +
        std::to_string(version) +
        " (blob predates the flat selection-layer layout)");
  const int dim = static_cast<int>(r.u32());
  const auto capacity = r.u64();
  FpsSampler s(dim, capacity, refresh_pool);
  s.ranked_count_ = r.u64();
  s.pool_ = PointStore::deserialize(r);
  s.rank2_ = r.vec<float>();
  s.seen_ = r.vec<std::uint32_t>();
  s.selected_ = PointStore::deserialize(r);
  if (s.pool_.dim() != dim || s.selected_.dim() != dim ||
      s.rank2_.size() != s.pool_.size() || s.seen_.size() != s.pool_.size() ||
      s.ranked_count_ > s.pool_.size())
    throw util::FormatError("corrupt fps sampler checkpoint");
  for (std::size_t i = 0; i < s.selected_.size(); ++i)
    s.selected_index_.add(s.selected_.id(i), s.selected_.coords(i));
  // heap_ stays empty; the next update_ranks (every select starts with one)
  // rebuilds it from the restored ranks.
  return s;
}

}  // namespace mummi::ml
