#include "ml/fps_sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::ml {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

// Candidates per util::for_blocks block, for batch ranking and pick folds.
// Fixed (never derived from the worker count) so per-block work — and
// therefore every float produced — is identical on any pool size.
constexpr std::size_t kRefreshBlock = 1024;

// Selected points folded side by side, one lane each, in four SSE-width
// GCC/Clang vectors (element-wise IEEE arithmetic): four accumulators in
// flight, so the fold is not bound by the latency of one add chain.
using Quad = float __attribute__((vector_size(4 * sizeof(float))));
constexpr std::size_t kLanes = 16;

/// min dist2 from `c` to the points of `t` (groups of kLanes, transposed).
/// Each lane accumulates its pair in dist2's index order and min is exact,
/// so the result is bit-identical to a dist2 fold pair by pair; the +inf
/// padding lanes fold in as +inf. Stops once the min drops below `cut`.
float fold_min(std::span<const float> c, const std::vector<float>& t,
               float cut) {
  const std::size_t dim = c.size();
  float r = kInf;
  for (std::size_t g = 0; g < t.size(); g += dim * kLanes) {
    Quad s[kLanes / 4] = {};
    for (std::size_t d = 0; d < dim; ++d)
      for (std::size_t q = 0; q < kLanes / 4; ++q) {
        Quad p;
        std::memcpy(&p, t.data() + g + d * kLanes + 4 * q, sizeof p);
        const Quad e = c[d] - p;
        s[q] += e * e;
      }
    float lanes[kLanes];
    std::memcpy(lanes, s, sizeof lanes);
    for (const float v : lanes) r = std::min(r, v);
    if (r < cut) break;
  }
  return r;
}
}  // namespace

FpsSampler::FpsSampler(int dim, std::size_t capacity,
                       util::ThreadPool* refresh_pool)
    : dim_(dim),
      capacity_(capacity),
      refresh_pool_(refresh_pool),
      pool_(dim),
      selected_(dim) {
  MUMMI_CHECK_MSG(dim > 0 && capacity > 0, "invalid FPS configuration");
}

void FpsSampler::add_candidates(const PointStore& points) {
  MUMMI_CHECK_MSG(points.dim() == dim_, "candidate dimension mismatch");
  // Rank against the cut as it stands now: it only rises until the next
  // pick, so an arrival below it is below every later cut too.
  const float cut = cut_.rank2;
  std::vector<float> ranks(points.size());
  util::for_blocks(refresh_pool_, points.size(), kRefreshBlock,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i)
                       ranks[i] = fold_min(points.coords(i), selected_t_, cut);
                   });
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!better({points.id(i), ranks[i]}, cut_)) continue;
    pool_.add(points.id(i), points.coords(i));
    rank2_.push_back(ranks[i]);
    if (pool_.size() == capacity_)
      cut_ = worst_key();  // first fill: an exact cut
    else if (pool_.size() == 2 * capacity_)
      compact();
  }
}

FpsSampler::Key FpsSampler::worst_key() const {
  Key worst = key(0);
  for (std::size_t s = 1; s < pool_.size(); ++s)
    if (better(worst, key(s))) worst = key(s);
  return worst;
}

std::vector<char> FpsSampler::survivors(Key& cut) const {
  // (rank2 desc, id asc) is total, so the survivor set is unique —
  // independent of slot order and of when compaction runs. Ranks are
  // non-negative floats (or +inf), whose bit patterns order like their
  // values: count the pool by the top 12 bits, keep every bucket above the
  // one holding the capacity-th rank, and order only that bucket by key.
  constexpr int kShift = 20;
  const auto bucket = [&](std::size_t s) {
    return std::bit_cast<std::uint32_t>(rank2_[s]) >> kShift;
  };
  std::vector<std::size_t> count(std::size_t{1} << (32 - kShift), 0);
  for (std::size_t s = 0; s < pool_.size(); ++s) ++count[bucket(s)];
  std::size_t edge = count.size() - 1, above = 0;
  while (above + count[edge] < capacity_) above += count[edge--];
  std::vector<char> keep(pool_.size(), 0);
  std::vector<Key> ties;
  for (std::size_t s = 0; s < keep.size(); ++s) {
    keep[s] = bucket(s) > edge;
    if (bucket(s) == edge) ties.push_back(key(s));
  }
  const auto last = ties.begin() + static_cast<long>(capacity_ - above - 1);
  std::nth_element(ties.begin(), last, ties.end(), better);
  for (auto k = ties.begin(); k <= last; ++k) keep[k->slot] = 1;
  cut = *last;
  return keep;
}

void FpsSampler::compact() {
  if (pool_.size() <= capacity_) return;
  const auto keep = survivors(cut_);
  // Survivors keep their slot order, so a round trip through serialize
  // leaves the same pool layout as compacting in place.
  pool_.retain(keep);
  std::size_t out = 0;
  for (std::size_t s = 0; s < keep.size(); ++s)
    if (keep[s]) rank2_[out++] = rank2_[s];
  rank2_.resize(out);
}

std::size_t FpsSampler::fold_argmax(std::span<const float> pick) {
  const std::size_t n = pool_.size();
  std::vector<Key> tops((n + kRefreshBlock - 1) / kRefreshBlock);
  util::for_blocks(refresh_pool_, n, kRefreshBlock,
                   [&](std::size_t begin, std::size_t end) {
                     Key top;
                     for (std::size_t s = begin; s < end; ++s) {
                       if (!pick.empty())
                         rank2_[s] = std::min(rank2_[s],
                                              dist2(pool_.coords(s), pick));
                       if (s == begin || better(key(s), top)) top = key(s);
                     }
                     tops[begin / kRefreshBlock] = top;
                   });
  Key top = tops.front();
  for (const Key& t : tops)
    if (better(t, top)) top = t;
  return top.slot;
}

void FpsSampler::add_selected(PointId id, std::span<const float> coords) {
  const std::size_t j = selected_.size();
  const auto dim = static_cast<std::size_t>(dim_);
  if (j % kLanes == 0)
    selected_t_.resize(selected_t_.size() + dim * kLanes, kInf);
  float* rows = selected_t_.data() + j / kLanes * dim * kLanes + j % kLanes;
  for (std::size_t d = 0; d < dim; ++d) rows[d * kLanes] = coords[d];
  selected_.add(id, coords);
}

std::vector<HDPoint> FpsSampler::select(std::size_t k) {
  compact();
  std::vector<HDPoint> out;
  if (k > 0 && !pool_.empty()) {
    std::size_t best = fold_argmax({});
    while (out.size() < k && !pool_.empty()) {
      HDPoint chosen = pool_.swap_remove(best);
      rank2_[best] = rank2_.back();
      rank2_.pop_back();
      add_selected(chosen.id, chosen.coords);
      if (!pool_.empty()) best = fold_argmax(chosen.coords);
      out.push_back(std::move(chosen));
    }
    cut_ = Key{};  // below capacity: every arrival is admitted until it fills
  }
  return out;
}

float FpsSampler::rank_of(PointId id) const {
  for (std::size_t s = 0; s < pool_.size(); ++s)
    if (pool_.id(s) == id) return std::sqrt(rank2_[s]);
  return std::numeric_limits<float>::quiet_NaN();
}

void FpsSampler::serialize(util::ByteWriter& w) const {
  w.u8(kSerialVersion);
  w.u32(static_cast<std::uint32_t>(dim_));
  w.u64(capacity_);
  if (pool_.size() <= capacity_) {
    pool_.serialize(w);
    w.vec(rank2_);
  } else {
    // Only the survivors, as compact() would leave them.
    Key cut;
    const auto keep = survivors(cut);
    PointStore kept(dim_);
    std::vector<float> ranks;
    kept.reserve(capacity_);
    ranks.reserve(capacity_);
    for (std::size_t s = 0; s < keep.size(); ++s) {
      if (!keep[s]) continue;
      kept.add(pool_.id(s), pool_.coords(s));
      ranks.push_back(rank2_[s]);
    }
    kept.serialize(w);
    w.vec(ranks);
  }
  selected_.serialize(w);
}

FpsSampler FpsSampler::deserialize(util::ByteReader& r,
                                   util::ThreadPool* refresh_pool) {
  const auto version = r.u8();
  if (version != kSerialVersion)
    throw util::FormatError(
        "fps sampler checkpoint version mismatch: expected v" +
        std::to_string(kSerialVersion) + ", got byte " +
        std::to_string(version));
  const int dim = static_cast<int>(r.u32());
  const auto capacity = r.u64();
  FpsSampler s(dim, capacity, refresh_pool);
  s.pool_ = PointStore::deserialize(r);
  s.rank2_ = r.vec<float>();
  const PointStore selected = PointStore::deserialize(r);
  if (s.pool_.dim() != dim || selected.dim() != dim ||
      s.rank2_.size() != s.pool_.size() || s.pool_.size() > capacity ||
      !std::ranges::all_of(s.rank2_, [](float x) { return x >= 0; }))
    throw util::FormatError("corrupt fps sampler checkpoint");
  for (std::size_t i = 0; i < selected.size(); ++i)
    s.add_selected(selected.id(i), selected.coords(i));
  if (s.pool_.size() == capacity) s.cut_ = s.worst_key();
  return s;
}

}  // namespace mummi::ml
