#include "ml/point_store.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mummi::ml {

PointStore::PointStore(int dim) : dim_(dim) {
  MUMMI_CHECK_MSG(dim > 0, "point store dimension must be positive");
}

PointStore PointStore::from_points(const std::vector<HDPoint>& points,
                                   int dim) {
  PointStore out(dim);
  out.reserve(points.size());
  for (const auto& p : points) {
    MUMMI_CHECK_MSG(static_cast<int>(p.coords.size()) == dim,
                    "candidate dimension mismatch");
    out.add(p);
  }
  return out;
}

void PointStore::reserve(std::size_t n) {
  ids_.reserve(n);
  coords_.reserve(n * static_cast<std::size_t>(dim_));
}

void PointStore::clear() {
  ids_.clear();
  coords_.clear();
}

void PointStore::append(const PointStore& other) {
  MUMMI_CHECK_MSG(other.dim_ == dim_, "candidate dimension mismatch");
  ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
  coords_.insert(coords_.end(), other.coords_.begin(), other.coords_.end());
}

HDPoint PointStore::materialize(std::size_t slot) const {
  const auto c = coords(slot);
  return HDPoint{ids_[slot], {c.begin(), c.end()}};
}

HDPoint PointStore::swap_remove(std::size_t slot) {
  MUMMI_CHECK_MSG(slot < ids_.size(), "swap_remove slot out of range");
  HDPoint out = materialize(slot);
  const std::size_t last = ids_.size() - 1;
  const auto d = static_cast<std::size_t>(dim_);
  if (slot != last) {
    ids_[slot] = ids_[last];
    std::copy(coords_.begin() + static_cast<long>(last * d),
              coords_.begin() + static_cast<long>((last + 1) * d),
              coords_.begin() + static_cast<long>(slot * d));
  }
  ids_.pop_back();
  coords_.resize(last * d);
  return out;
}

void PointStore::retain(const std::vector<char>& keep) {
  MUMMI_CHECK_MSG(keep.size() == ids_.size(), "retain mask size mismatch");
  const auto d = static_cast<std::size_t>(dim_);
  std::size_t out = 0;
  for (std::size_t s = 0; s < keep.size(); ++s) {
    if (!keep[s]) continue;
    if (out != s) {
      ids_[out] = ids_[s];
      std::copy_n(coords_.begin() + static_cast<long>(s * d), d,
                  coords_.begin() + static_cast<long>(out * d));
    }
    ++out;
  }
  ids_.resize(out);
  coords_.resize(out * d);
}

void PointStore::serialize(util::ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(dim_));
  w.vec(ids_);
  w.vec(coords_);
}

PointStore PointStore::deserialize(util::ByteReader& r) {
  PointStore s(static_cast<int>(r.u32()));
  s.ids_ = r.vec<PointId>();
  s.coords_ = r.vec<float>();
  if (s.coords_.size() != s.ids_.size() * static_cast<std::size_t>(s.dim_))
    throw util::FormatError("corrupt point store: id/coord count mismatch");
  return s;
}

}  // namespace mummi::ml
