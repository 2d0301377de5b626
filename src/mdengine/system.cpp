#include "mdengine/system.hpp"

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace mummi::md {

void System::zero_momentum() {
  if (size() == 0) return;
  Vec3 p{};
  real m_total = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    p += mass[i] * vel[i];
    m_total += mass[i];
  }
  const Vec3 v_cm = (1.0 / m_total) * p;
  for (auto& v : vel) v -= v_cm;
}

util::Bytes System::serialize() const {
  util::ByteWriter w;
  w.f64(box.length.x);
  w.f64(box.length.y);
  w.f64(box.length.z);
  w.vec(pos);
  w.vec(vel);
  w.vec(mass);
  w.vec(charge);
  w.vec(type);
  w.vec(molecule);
  w.vec(bonds);
  // Field by field: a memcpy of Angle would copy its four padding bytes.
  w.u64(angles.size());
  for (const Angle& a : angles) {
    w.u32(static_cast<std::uint32_t>(a.i));
    w.u32(static_cast<std::uint32_t>(a.j));
    w.u32(static_cast<std::uint32_t>(a.k));
    w.f64(a.theta0);
    w.f64(a.ktheta);
  }
  return std::move(w).take();
}

System System::deserialize(const util::Bytes& data) {
  util::ByteReader r(data);
  System s;
  s.box.length.x = r.f64();
  s.box.length.y = r.f64();
  s.box.length.z = r.f64();
  s.pos = r.vec<Vec3>();
  s.vel = r.vec<Vec3>();
  s.mass = r.vec<real>();
  s.charge = r.vec<real>();
  s.type = r.vec<int>();
  s.molecule = r.vec<int>();
  s.bonds = r.vec<Bond>();
  constexpr std::size_t kAngleBytes = 3 * 4 + 2 * 8;  // i, j, k, theta0, ktheta
  const std::uint64_t n_angles = r.u64();
  if (n_angles > r.remaining() / kAngleBytes)
    throw util::FormatError("system angle count exceeds stream");
  s.angles.resize(static_cast<std::size_t>(n_angles));
  for (Angle& a : s.angles) {
    a.i = static_cast<int>(r.u32());
    a.j = static_cast<int>(r.u32());
    a.k = static_cast<int>(r.u32());
    a.theta0 = r.f64();
    a.ktheta = r.f64();
  }
  // Checkpoint bytes are untrusted: the force loops index every per-particle
  // array by particle and bond/angle index, and wrap by the box lengths.
  const std::size_t n = s.pos.size();
  if (s.vel.size() != n || s.mass.size() != n || s.charge.size() != n ||
      s.type.size() != n || s.molecule.size() != n)
    throw util::FormatError("system per-particle array lengths differ");
  for (const real l : {s.box.length.x, s.box.length.y, s.box.length.z})
    if (!(std::isfinite(l) && l > 0))
      throw util::FormatError("system box length not finite and positive");
  const auto in_range = [n](int i) {
    return i >= 0 && static_cast<std::size_t>(i) < n;
  };
  for (const Bond& b : s.bonds)
    if (!in_range(b.i) || !in_range(b.j))
      throw util::FormatError("system bond index out of range");
  for (const Angle& a : s.angles)
    if (!in_range(a.i) || !in_range(a.j) || !in_range(a.k))
      throw util::FormatError("system angle index out of range");
  s.force.assign(n, Vec3{});
  return s;
}

}  // namespace mummi::md
