// Padding-free byte encoding of an md::System for the engine pins.
//
// md::System::serialize() copies its Angle vector wholesale, and Angle
// (three ints, then two doubles) carries four bytes of padding whose value is
// whatever the temporary it was built from held. Those bytes are not a
// function of the system, so the pins hash this encoding instead: the
// serialized system without angles, then each angle field by field.
#pragma once

#include <cstdint>

#include "mdengine/system.hpp"
#include "util/bytes.hpp"

namespace mummi::coupling {

inline util::Bytes system_bytes(const md::System& system) {
  md::System rest = system;
  rest.angles.clear();
  util::ByteWriter w;
  w.bytes(rest.serialize());
  for (const md::Angle& a : system.angles) {
    w.u32(static_cast<std::uint32_t>(a.i));
    w.u32(static_cast<std::uint32_t>(a.j));
    w.u32(static_cast<std::uint32_t>(a.k));
    w.f64(a.theta0);
    w.f64(a.ktheta);
  }
  return std::move(w).take();
}

}  // namespace mummi::coupling
