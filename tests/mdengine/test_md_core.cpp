#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>

#include "mdengine/cell_list.hpp"
#include "mdengine/force_field.hpp"
#include "mdengine/system.hpp"
#include "util/rng.hpp"

namespace mummi::md {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  const Vec3 sum = a + b;
  EXPECT_DOUBLE_EQ(sum.x, 5);
  EXPECT_DOUBLE_EQ(sum.y, 7);
  EXPECT_DOUBLE_EQ(sum.z, 9);
  EXPECT_DOUBLE_EQ(a.dot(b), 32);
  EXPECT_DOUBLE_EQ((2.0 * a).x, 2);
  EXPECT_DOUBLE_EQ((a - b).norm2(), 27);
}

TEST(Vec3, CrossProduct) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  const Vec3 z = x.cross(y);
  EXPECT_DOUBLE_EQ(z.z, 1);
  EXPECT_DOUBLE_EQ(z.x, 0);
  EXPECT_DOUBLE_EQ(x.cross(x).norm(), 0);
}

TEST(Box, MinImageShortestVector) {
  Box box;
  box.length = {10, 10, 10};
  const Vec3 d = box.min_image({9.5, 0, 0}, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(d.x, -1.0);  // through the boundary, not across the box
  const Vec3 mid = box.min_image({7, 0, 0}, {2, 0, 0});
  EXPECT_DOUBLE_EQ(std::abs(mid.x), 5.0);  // exactly half the box: either sign
}

// round_away must be std::round bit for bit (the sign of zero included):
// min_image feeds every MD, encoder, secondary-structure and RDF byte pin.
std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_round_matches(double x) {
  ASSERT_EQ(bits(round_away(x)), bits(std::round(x)))
      << "x=" << x << " bits=" << std::hex << bits(x);
}

TEST(RoundAway, MatchesStdRoundOnEdgeValues) {
  constexpr double kTwo52 = 4503599627370496.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double edges[] = {
      0.0,
      0.5,
      1.5,
      2.5,
      std::nextafter(0.5, 0.0),
      std::nextafter(1.5, 0.0),
      std::nextafter(1.5, 2.0),
      kTwo52 - 0.5,
      kTwo52,
      kTwo52 + 1.0,
      2.0 * kTwo52,
      std::numeric_limits<double>::max(),
      kInf,
      denorm_min,
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      1.0,
      0.49999999999999994,
      -1.0 + 1e-17,
  };
  for (const double x : edges) {
    expect_round_matches(x);
    expect_round_matches(-x);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bits(round_away(nan)), bits(nan));
  EXPECT_EQ(bits(round_away(-nan)), bits(-nan));
  EXPECT_TRUE(std::signbit(round_away(-0.3)));
  EXPECT_TRUE(std::signbit(round_away(-denorm_min)));
}

TEST(RoundAway, MatchesStdRoundAcrossExponents) {
  // 10^7 seeded values: a magnitude 2^e * m for every binary exponent e
  // from -1074 (denormals) to 60, both signs, plus the half-integers and
  // their neighbours where the ties sit, plus raw bit patterns (NaNs, infs
  // and every exponent field).
  util::Rng rng(20260519);
  for (int i = 0; i < 2'500'000; ++i) {
    const int e = static_cast<int>(rng.uniform_index(1135)) - 1074;
    const double m = 1.0 + rng.uniform();
    const double x = std::ldexp(rng.uniform() < 0.5 ? -m : m, e);
    expect_round_matches(x);
    // An integer below 2^52 of random bit length, so k + 0.5 is exact.
    const auto k = static_cast<double>(rng() >> (12 + rng.uniform_index(52)));
    const double tie = rng.uniform() < 0.5 ? k + 0.5 : -(k + 0.5);
    expect_round_matches(tie);
    expect_round_matches(std::nextafter(tie, 0.0));
    const std::uint64_t raw = rng();
    double r = 0;
    std::memcpy(&r, &raw, sizeof r);
    if (std::isnan(r))
      ASSERT_EQ(bits(round_away(r)), raw);  // NaN passes through as is
    else
      expect_round_matches(r);
  }
}

TEST(Box, WrapIntoPrimaryCell) {
  Box box;
  box.length = {5, 5, 5};
  const Vec3 w = box.wrap({6, -1, 12.5});
  EXPECT_DOUBLE_EQ(w.x, 1);
  EXPECT_DOUBLE_EQ(w.y, 4);
  EXPECT_DOUBLE_EQ(w.z, 2.5);
}

TEST(System, AddParticleAndEnergy) {
  System s;
  s.box.length = {10, 10, 10};
  const int i = s.add_particle({1, 2, 3}, 0, 2.0, -0.5, 7);
  EXPECT_EQ(i, 0);
  EXPECT_EQ(s.size(), 1u);
  s.vel[0] = {3, 0, 0};
  EXPECT_DOUBLE_EQ(s.kinetic_energy(), 0.5 * 2.0 * 9.0);
  EXPECT_EQ(s.molecule[0], 7);
}

TEST(System, TemperatureFromEquipartition) {
  System s;
  s.box.length = {10, 10, 10};
  util::Rng rng(2);
  const real target = 300.0;
  for (int i = 0; i < 5000; ++i) {
    const real m = 72.0;
    const real sigma = std::sqrt(kBoltzmann * target / m);
    const int idx = s.add_particle({0, 0, 0}, 0, m);
    s.vel[idx] = {sigma * rng.normal(), sigma * rng.normal(),
                  sigma * rng.normal()};
  }
  EXPECT_NEAR(s.temperature(), target, 10.0);
}

TEST(System, ZeroMomentum) {
  System s;
  s.box.length = {10, 10, 10};
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const int idx = s.add_particle({0, 0, 0}, 0, 1.0 + rng.uniform());
    s.vel[idx] = {rng.normal(), rng.normal(), rng.normal() + 1.0};
  }
  s.zero_momentum();
  Vec3 p{};
  for (std::size_t i = 0; i < s.size(); ++i) p += s.mass[i] * s.vel[i];
  EXPECT_NEAR(p.norm(), 0.0, 1e-10);
}

/// Three bonded particles, one angle.
System forgeable_system() {
  System s;
  s.box.length = {3, 3, 3};
  for (int i = 0; i < 3; ++i) s.add_particle({0.5 + i, 1, 1}, 0, 72.0);
  s.bonds.push_back({0, 1, 0.47, 1250});
  s.bonds.push_back({1, 2, 0.47, 1250});
  s.angles.push_back({0, 1, 2, 3.14, 25});
  return s;
}

TEST(System, AnglePaddingDoesNotReachTheBytes) {
  // Angle holds four padding bytes between k and theta0; two systems that
  // differ only there are the same system and must serialize equal.
  constexpr std::size_t kPadAt = offsetof(Angle, k) + sizeof(int);
  constexpr std::size_t kPad = offsetof(Angle, theta0) - kPadAt;
  static_assert(kPad > 0);
  System a = forgeable_system();
  System b = forgeable_system();
  std::memset(reinterpret_cast<unsigned char*>(&a.angles[0]) + kPadAt, 0x00,
              kPad);
  std::memset(reinterpret_cast<unsigned char*>(&b.angles[0]) + kPadAt, 0xa5,
              kPad);
  EXPECT_EQ(a.serialize(), b.serialize());
}

/// Reference: all pairs within cutoff via O(N^2).
std::set<std::pair<int, int>> brute_pairs(const System& s, real range) {
  std::set<std::pair<int, int>> out;
  const real range2 = range * range;
  for (int i = 0; i < static_cast<int>(s.size()); ++i)
    for (int j = i + 1; j < static_cast<int>(s.size()); ++j)
      if (s.box.min_image(s.pos[i], s.pos[j]).norm2() < range2)
        out.emplace(i, j);
  return out;
}

class NeighborListSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(NeighborListSweep, MatchesBruteForce) {
  const auto [n, box_len] = GetParam();
  System s;
  s.box.length = {box_len, box_len, box_len};
  util::Rng rng(n);
  for (int i = 0; i < n; ++i)
    s.add_particle({rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
                    rng.uniform(0.0, box_len)},
                   0, 1.0);
  const real cutoff = 1.2, skin = 0.3;
  NeighborList list(cutoff, skin);
  list.build(s);
  std::set<std::pair<int, int>> got;
  const auto& rows = list.row_start();
  for (int i = 0; i + 1 < static_cast<int>(rows.size()); ++i) {
    for (std::size_t k = rows[i]; k < rows[i + 1]; ++k) {
      const int j = list.neighbors()[k];
      EXPECT_LT(i, j);
      EXPECT_TRUE(got.emplace(i, j).second) << "duplicate pair";
    }
  }
  // The Verlet list (cutoff+skin) must be a superset of the brute-force
  // cutoff pairs and a subset of brute-force (cutoff+skin) pairs.
  const auto must_have = brute_pairs(s, cutoff);
  const auto may_have = brute_pairs(s, cutoff + skin);
  for (const auto& p : must_have) EXPECT_TRUE(got.count(p)) << p.first;
  for (const auto& p : got) EXPECT_TRUE(may_have.count(p)) << p.first;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NeighborListSweep,
    ::testing::Values(std::make_tuple(50, 4.0),    // small box: all-pairs path
                      std::make_tuple(200, 6.0),   // 5 cells/side (stencil)
                      std::make_tuple(400, 10.0),  // sparse
                      std::make_tuple(30, 2.0),    // tiny box, heavy wrap
                      std::make_tuple(2, 8.0)));   // near-empty

TEST(NeighborList, RebuildTriggeredBySkinViolation) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({1, 1, 1}, 0, 1.0);
  s.add_particle({2, 1, 1}, 0, 1.0);
  NeighborList list(1.2, 0.4);
  list.build(s);
  EXPECT_FALSE(list.needs_rebuild(s));
  s.pos[0].x += 0.1;  // less than skin/2
  EXPECT_FALSE(list.needs_rebuild(s));
  s.pos[0].x += 0.2;  // cumulative 0.3 > 0.2
  EXPECT_TRUE(list.needs_rebuild(s));
}

TEST(NeighborList, RebuildOnSizeChange) {
  System s;
  s.box.length = {5, 5, 5};
  s.add_particle({1, 1, 1}, 0, 1.0);
  NeighborList list(1.2, 0.3);
  list.build(s);
  s.add_particle({3, 3, 3}, 0, 1.0);
  EXPECT_TRUE(list.needs_rebuild(s));
}

TEST(ForceField, LjForceMatchesNumericalGradient) {
  TypeMatrixForceField ff(1, 1.2);
  ff.set_pair(0, 0, {4.0, 0.47});
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.6, 5, 5}, 0, 1.0);
  NeighborList list(1.2, 0.3);
  list.build(s);

  auto energy_at = [&](real dx) {
    s.pos[1].x = 5.6 + dx;
    std::fill(s.force.begin(), s.force.end(), Vec3{});
    return ff.compute(s, list);
  };
  const real h = 1e-6;
  const real e_plus = energy_at(h);
  const real e_minus = energy_at(-h);
  energy_at(0);
  const real f_numeric = -(e_plus - e_minus) / (2 * h);
  EXPECT_NEAR(s.force[1].x, f_numeric, 1e-5);
  // Newton's third law.
  EXPECT_NEAR(s.force[0].x, -s.force[1].x, 1e-12);
}

TEST(ForceField, EnergyShiftedToZeroAtCutoff) {
  TypeMatrixForceField ff(1, 1.2);
  ff.set_pair(0, 0, {4.0, 0.47});
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.0 + 1.2 - 1e-9, 5, 5}, 0, 1.0);
  NeighborList list(1.2, 0.3);
  list.build(s);
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  EXPECT_NEAR(ff.compute(s, list), 0.0, 1e-6);
}

TEST(ForceField, TypeMatrixSymmetry) {
  TypeMatrixForceField ff(3, 1.2);
  ff.set_pair(0, 2, {3.5, 0.5});
  EXPECT_DOUBLE_EQ(ff.pair(2, 0).epsilon, 3.5);
  EXPECT_DOUBLE_EQ(ff.pair(0, 2).sigma, 0.5);
  EXPECT_DOUBLE_EQ(ff.pair(1, 1).epsilon, 0.0);  // unset pairs inert
}

TEST(ForceField, CoulombRepulsionBetweenLikeCharges) {
  TypeMatrixForceField ff(1, 1.2);
  ff.set_dielectric(15.0);
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0, 1.0);
  s.add_particle({5.5, 5, 5}, 0, 1.0, 1.0);
  NeighborList list(1.2, 0.3);
  list.build(s);
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e = ff.compute(s, list);
  EXPECT_GT(e, 0.0);
  EXPECT_LT(s.force[0].x, 0.0);  // pushed apart
  EXPECT_GT(s.force[1].x, 0.0);
}

TEST(Bonded, HarmonicBondRestoring) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.6, 5, 5}, 0, 1.0);
  s.bonds.push_back({0, 1, 0.5, 100.0});
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e = compute_bonded(s);
  EXPECT_NEAR(e, 0.5 * 100.0 * 0.01, 1e-9);  // dr = 0.1
  EXPECT_GT(s.force[0].x, 0.0);  // pulled together
  EXPECT_LT(s.force[1].x, 0.0);
}

TEST(Bonded, AngleAtRestNoForce) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({4, 5, 5}, 0, 1.0);
  s.add_particle({5, 5, 5}, 0, 1.0);
  s.add_particle({6, 5, 5}, 0, 1.0);
  s.angles.push_back({0, 1, 2, static_cast<real>(M_PI), 25.0});
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e = compute_bonded(s);
  EXPECT_NEAR(e, 0.0, 1e-9);
  for (const auto& f : s.force) EXPECT_NEAR(f.norm(), 0.0, 1e-6);
}

TEST(Bonded, AngleForceMatchesNumericalGradient) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({4, 5, 5}, 0, 1.0);
  s.add_particle({5, 5, 5}, 0, 1.0);
  s.add_particle({5.7, 5.7, 5}, 0, 1.0);
  s.angles.push_back({0, 1, 2, 2.0, 30.0});
  auto energy_at = [&](real dy) {
    s.pos[2].y = 5.7 + dy;
    std::fill(s.force.begin(), s.force.end(), Vec3{});
    return compute_bonded(s);
  };
  const real h = 1e-6;
  const real f_numeric = -(energy_at(h) - energy_at(-h)) / (2 * h);
  energy_at(0);
  EXPECT_NEAR(s.force[2].y, f_numeric, 1e-4);
}

TEST(Restraints, PullTowardReference) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.5, 5, 5}, 0, 1.0);
  Restraints r;
  r.indices = {0};
  r.references = {{5.0, 5, 5}};
  r.k = 100.0;
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e = r.compute(s);
  EXPECT_NEAR(e, 0.5 * 100.0 * 0.25, 1e-9);
  EXPECT_LT(s.force[0].x, 0.0);
}

}  // namespace
}  // namespace mummi::md
