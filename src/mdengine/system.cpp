#include "mdengine/system.hpp"

#include <cstdint>

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

}  // namespace mummi::md
