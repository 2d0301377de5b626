#include "continuum/grid2d.hpp"

#include <cmath>
#include <limits>

namespace mummi::cont {

double Grid2d::interpolate(double gi, double gj) const {
  // Casting NaN or a value beyond int range to int is undefined. Such cells
  // map to INT_MIN instead, the value x86's truncating conversion gave them,
  // so results (and pinned fingerprints) stay bit-identical; wrap() then
  // picks a valid cell, and ti/tj carry the NaN through.
  auto cell = [](double f) {
    return f >= -2147483648.0 && f <= 2147483647.0
               ? static_cast<int>(f)
               : std::numeric_limits<int>::min();
  };
  const double fi = std::floor(gi);
  const double fj = std::floor(gj);
  const int i0 = wrap(cell(fi));
  const int j0 = wrap(cell(fj));
  const int i1 = wrap(i0 + 1);
  const int j1 = wrap(j0 + 1);
  const double ti = gi - fi;
  const double tj = gj - fj;
  return at(i0, j0) * (1 - ti) * (1 - tj) + at(i1, j0) * ti * (1 - tj) +
         at(i0, j1) * (1 - ti) * tj + at(i1, j1) * ti * tj;
}

}  // namespace mummi::cont
