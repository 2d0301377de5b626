#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mdengine/rdf.hpp"
#include "mdengine/secondary_structure.hpp"
#include "util/rng.hpp"

namespace mummi::md {
namespace {

TEST(Rdf, IdealGasIsFlatAtOne) {
  System s;
  s.box.length = {8, 8, 8};
  util::Rng rng(1);
  std::vector<int> sel;
  for (int i = 0; i < 600; ++i) {
    sel.push_back(s.add_particle({rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0),
                                  rng.uniform(0.0, 8.0)},
                                 0, 1.0));
  }
  RdfAccumulator rdf(3.0, 15);
  for (int frame = 0; frame < 10; ++frame) {
    for (auto& p : s.pos)
      p = {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    rdf.add_frame(s, sel, sel);
  }
  const auto g = rdf.g();
  // Skip the first bins (few counts); the rest must hover near 1.
  for (std::size_t b = 3; b < g.size(); ++b)
    EXPECT_NEAR(g[b], 1.0, 0.15) << "bin " << b;
}

TEST(Rdf, DetectsPairCorrelation) {
  // Particles glued in pairs at distance 0.5 -> strong g(r) peak there.
  System s;
  s.box.length = {10, 10, 10};
  util::Rng rng(2);
  std::vector<int> a_sel, b_sel;
  for (int i = 0; i < 200; ++i) {
    const Vec3 base{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                    rng.uniform(0.0, 10.0)};
    a_sel.push_back(s.add_particle(base, 0, 1.0));
    b_sel.push_back(s.add_particle(s.box.wrap(base + Vec3{0.5, 0, 0}), 1, 1.0));
  }
  RdfAccumulator rdf(2.0, 20);
  rdf.add_frame(s, a_sel, b_sel);
  const auto g = rdf.g();
  const auto centers = rdf.centers();
  std::size_t peak = 0;
  for (std::size_t b = 1; b < g.size(); ++b)
    if (g[b] > g[peak]) peak = b;
  EXPECT_NEAR(centers[peak], 0.5, 0.1);
  EXPECT_GT(g[peak], 5.0);
}

TEST(Rdf, SelfSelectionExcludesIdentity) {
  System s;
  s.box.length = {5, 5, 5};
  std::vector<int> sel{s.add_particle({1, 1, 1}, 0, 1.0)};
  RdfAccumulator rdf(2.0, 10);
  rdf.add_frame(s, sel, sel);  // one particle against itself: no counts
  for (double c : rdf.counts()) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Rdf, MergeEqualsCombinedAccumulation) {
  System s;
  s.box.length = {6, 6, 6};
  util::Rng rng(3);
  std::vector<int> sel;
  for (int i = 0; i < 50; ++i)
    sel.push_back(s.add_particle({rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0),
                                  rng.uniform(0.0, 6.0)},
                                 0, 1.0));
  RdfAccumulator combined(2.0, 10), part_a(2.0, 10), part_b(2.0, 10);
  combined.add_frame(s, sel, sel);
  part_a.add_frame(s, sel, sel);
  for (auto& p : s.pos) p.x = s.box.wrap(p + Vec3{0.3, 0, 0}).x;
  combined.add_frame(s, sel, sel);
  part_b.add_frame(s, sel, sel);
  part_a.merge(part_b);
  EXPECT_EQ(part_a.frames(), combined.frames());
  const auto ga = part_a.g(), gc = combined.g();
  for (std::size_t b = 0; b < ga.size(); ++b) EXPECT_DOUBLE_EQ(ga[b], gc[b]);
}

TEST(Rdf, RestoreRawRoundTrip) {
  RdfAccumulator a(2.0, 8);
  System s;
  s.box.length = {5, 5, 5};
  std::vector<int> sel{s.add_particle({1, 1, 1}, 0, 1.0),
                       s.add_particle({1.5, 1, 1}, 0, 1.0)};
  a.add_frame(s, sel, sel);
  RdfAccumulator b(2.0, 8);
  b.restore_raw(a.counts(), a.frames(), a.pair_density_sum());
  EXPECT_EQ(b.g(), a.g());
}

TEST(Rdf, NonFiniteDistanceCountsInNoBin) {
  // A NaN or inf position gives a NaN distance, which used to pass the
  // r >= r_max test and index the histogram with NaN / dr. Every pair with
  // such a particle now counts in no bin; finite pairs are binned as ever
  // and the pair density still counts every distinct pair.
  System s;
  s.box.length = {5, 5, 5};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<int> a_sel{s.add_particle({1, 1, 1}, 0, 1.0)};
  const std::vector<int> b_sel{s.add_particle({1.5, 1, 1}, 1, 1.0),
                               s.add_particle({nan, 1, 1}, 1, 1.0),
                               s.add_particle({1, inf, 1}, 1, 1.0),
                               s.add_particle({1, 1, -inf}, 1, 1.0)};
  RdfAccumulator rdf(2.0, 8);
  rdf.add_frame(s, a_sel, b_sel);
  std::vector<double> want(8, 0.0);
  want[2] = 1.0;  // r = 0.5, dr = 0.25
  EXPECT_EQ(rdf.counts(), want);
  EXPECT_EQ(rdf.frames(), 1u);
  EXPECT_DOUBLE_EQ(rdf.pair_density_sum(), 4.0 / 125.0);

  // A pair exactly at r_max, or past it, counts in no bin either.
  System edge;
  edge.box.length = {10, 10, 10};
  const std::vector<int> p{edge.add_particle({1, 1, 1}, 0, 1.0)};
  const std::vector<int> q{edge.add_particle({3, 1, 1}, 1, 1.0),
                           edge.add_particle({1, 4, 1}, 1, 1.0)};
  RdfAccumulator at_max(2.0, 8);
  at_max.add_frame(edge, p, q);
  EXPECT_EQ(at_max.counts(), std::vector<double>(8, 0.0));
}

TEST(Rdf, ClearKeepsBinning) {
  System s;
  s.box.length = {5, 5, 5};
  const std::vector<int> sel{s.add_particle({1, 1, 1}, 0, 1.0),
                             s.add_particle({1.5, 1, 1}, 0, 1.0)};
  RdfAccumulator rdf(2.0, 8);
  rdf.add_frame(s, sel, sel);
  rdf.clear();
  EXPECT_EQ(rdf.counts(), std::vector<double>(8, 0.0));
  EXPECT_EQ(rdf.frames(), 0u);
  EXPECT_EQ(rdf.pair_density_sum(), 0.0);
  EXPECT_EQ(rdf.r_max(), 2.0);
}

TEST(Rdf, BinningMismatchRejected) {
  RdfAccumulator a(2.0, 10), b(3.0, 10), c(2.0, 12);
  EXPECT_THROW(a.merge(b), util::Error);
  EXPECT_THROW(a.merge(c), util::Error);
}

// --- secondary structure --------------------------------------------------

/// Builds an ideal alpha-helical C-alpha trace: rise 0.15 nm, ~100 deg turn,
/// radius 0.23 nm.
System helix_system(int n, std::vector<int>& backbone) {
  System s;
  s.box.length = {50, 50, 50};
  for (int i = 0; i < n; ++i) {
    const double theta = i * 100.0 * M_PI / 180.0;
    backbone.push_back(s.add_particle({25 + 0.23 * std::cos(theta),
                                       25 + 0.23 * std::sin(theta),
                                       25 + 0.15 * i},
                                      0, 1.0));
  }
  return s;
}

/// Extended (strand-like) trace: zig-zag along x.
System strand_system(int n, std::vector<int>& backbone) {
  System s;
  s.box.length = {50, 50, 50};
  for (int i = 0; i < n; ++i)
    backbone.push_back(
        s.add_particle({25 + 0.33 * i, 25 + 0.05 * (i % 2), 25}, 0, 1.0));
  return s;
}

TEST(SecondaryStructure, HelixClassifiedAsHelix) {
  std::vector<int> backbone;
  const System s = helix_system(12, backbone);
  const auto ss = classify_backbone(s, backbone);
  int helix = 0;
  for (std::size_t i = 1; i + 2 < ss.size(); ++i)
    if (ss[i] == SecStruct::kHelix) ++helix;
  EXPECT_GE(helix, 7);  // interior residues dominated by H
}

TEST(SecondaryStructure, StrandClassifiedAsSheet) {
  std::vector<int> backbone;
  const System s = strand_system(12, backbone);
  const auto ss = classify_backbone(s, backbone);
  int sheet = 0;
  for (std::size_t i = 1; i + 2 < ss.size(); ++i)
    if (ss[i] == SecStruct::kSheet) ++sheet;
  EXPECT_GE(sheet, 7);
}

TEST(SecondaryStructure, RandomCoilMostlyCoil) {
  System s;
  s.box.length = {50, 50, 50};
  util::Rng rng(5);
  std::vector<int> backbone;
  Vec3 p{25, 25, 25};
  for (int i = 0; i < 20; ++i) {
    p += Vec3{0.3 * rng.normal(), 0.3 * rng.normal(), 0.3 * rng.normal()};
    backbone.push_back(s.add_particle(p, 0, 1.0));
  }
  const auto ss = classify_backbone(s, backbone);
  int coil = 0;
  for (auto c : ss)
    if (c == SecStruct::kCoil) ++coil;
  EXPECT_GE(coil, 14);
}

TEST(SecondaryStructure, ShortChainAllCoil) {
  System s;
  s.box.length = {10, 10, 10};
  std::vector<int> backbone{s.add_particle({1, 1, 1}, 0, 1.0),
                            s.add_particle({2, 1, 1}, 0, 1.0),
                            s.add_particle({3, 1, 1}, 0, 1.0)};
  for (auto c : classify_backbone(s, backbone))
    EXPECT_EQ(c, SecStruct::kCoil);
}

TEST(SecondaryStructure, PatternRoundTrip) {
  const std::string pattern = "CHHHHECCEEC";
  EXPECT_EQ(to_pattern(from_pattern(pattern)), pattern);
  EXPECT_THROW(from_pattern("HXZ"), util::Error);
}

TEST(SecondaryStructure, ConsensusMajorityVote) {
  const std::vector<std::string> votes{"HHCC", "HECC", "HHCE", "CHCC"};
  EXPECT_EQ(consensus_pattern(votes), "HHCC");
}

TEST(SecondaryStructure, ConsensusRejectsMismatchedLengths) {
  EXPECT_THROW(consensus_pattern({"HH", "HHH"}), util::Error);
  EXPECT_THROW(consensus_pattern({}), util::Error);
}

}  // namespace
}  // namespace mummi::md
