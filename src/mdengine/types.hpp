// Core math types for the particle engines.
//
// Units follow the GROMACS convention the paper's codes use: lengths in nm,
// time in ps, energy in kJ/mol, mass in amu, temperature in K.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace mummi::md {

using real = double;

/// std::round bit for bit (signed zero too), inline and without a data-
/// dependent branch: truncate |x|, add 1 if the exact remainder is >= 0.5,
/// copy the sign back. |x| >= 2^52, inf and NaN pass through unchanged.
inline real round_away(real x) {
  constexpr real kExact = 4503599627370496.0;  // 2^52
  const real a = std::fabs(x);
  const auto i = static_cast<std::int64_t>(std::min(kExact, a));
  const std::int64_t up = a - static_cast<real>(i) >= 0.5;
  const real r = std::copysign(static_cast<real>(i + up), x);
  return a < kExact ? r : x;
}

/// Boltzmann constant in kJ/(mol K).
constexpr real kBoltzmann = 0.00831446;

struct Vec3 {
  real x = 0, y = 0, z = 0;

  Vec3& operator+=(const Vec3& o) { x += o.x; y += o.y; z += o.z; return *this; }
  Vec3& operator-=(const Vec3& o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  Vec3& operator*=(real s) { x *= s; y *= s; z *= s; return *this; }

  friend Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
  friend Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
  friend Vec3 operator*(Vec3 a, real s) { return a *= s; }
  friend Vec3 operator*(real s, Vec3 a) { return a *= s; }

  [[nodiscard]] real dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  [[nodiscard]] Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  [[nodiscard]] real norm2() const { return dot(*this); }
  [[nodiscard]] real norm() const { return std::sqrt(norm2()); }
};

/// Orthorhombic periodic box.
struct Box {
  Vec3 length{1, 1, 1};

  /// Minimum-image displacement a - b.
  [[nodiscard]] Vec3 min_image(const Vec3& a, const Vec3& b) const {
    Vec3 d = a - b;
    d.x -= length.x * round_away(d.x / length.x);
    d.y -= length.y * round_away(d.y / length.y);
    d.z -= length.z * round_away(d.z / length.z);
    return d;
  }

  /// Wraps a position into [0, L) per dimension.
  [[nodiscard]] Vec3 wrap(Vec3 p) const {
    p.x -= length.x * std::floor(p.x / length.x);
    p.y -= length.y * std::floor(p.y / length.y);
    p.z -= length.z * std::floor(p.z / length.z);
    return p;
  }

  [[nodiscard]] real volume() const { return length.x * length.y * length.z; }
};

}  // namespace mummi::md
