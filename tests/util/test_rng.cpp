#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace mummi::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, UniformIndexOne) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(77);
  Rng child = parent.split();
  // Child and parent produce different sequences.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent() == child()) ++same;
  EXPECT_LE(same, 1);
}

// Bitwise equality of every generator field, the spare included even when
// has_spare is false: save_state() writes it into checkpoints.
void expect_same_state(const Rng& a, const Rng& b) {
  const Rng::State sa = a.save_state(), sb = b.save_state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa.s[i], sb.s[i]) << "word " << i;
  EXPECT_EQ(sa.has_spare, sb.has_spare);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.spare),
            std::bit_cast<std::uint64_t>(sb.spare));
}

TEST(Rng, DeferredNormalsMatchNormalBitwise) {
  for (const bool carried : {false, true})
    for (const int n : {0, 1, 2, 9, 27}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (carried ? " carried spare" : " no spare"));
      Rng eager(31), deferred(31);
      if (carried) {  // one normal() leaves a resolved spare owed
        eager.normal();
        deferred.normal();
      }
      std::vector<Rng::PolarDraw> draws;
      {
        Rng::DeferredNormals normals(deferred);
        for (int i = 0; i < n; ++i) draws.push_back(normals.next());
        normals.settle();
      }
      for (const Rng::PolarDraw& d : draws)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d.value()),
                  std::bit_cast<std::uint64_t>(eager.normal()));
      expect_same_state(eager, deferred);
      // The streams stay in step afterwards.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(eager.normal()),
                std::bit_cast<std::uint64_t>(deferred.normal()));
      EXPECT_EQ(eager(), deferred());
    }
}

TEST(Rng, DeferredNormalsKeepStaleSpare) {
  // Two normal() calls consume the spare they drew but leave it in place:
  // has_spare is false and spare holds v * factor. The deferred path must
  // leave the same stale value, not the raw v or the older spare.
  Rng eager(8), deferred(8);
  eager.normal();
  eager.normal();
  {
    Rng::DeferredNormals normals(deferred);
    normals.next();
    normals.next();
  }  // the destructor settles
  EXPECT_FALSE(eager.save_state().has_spare);
  EXPECT_NE(eager.save_state().spare, 0.0);
  expect_same_state(eager, deferred);
}

TEST(Rng, DeferredNormalsInterleaveWithUniformDraws) {
  // The snapshot order: per item, 9 normals, a bounded index, a uniform —
  // deferred draws and uniform draws share one sequential stream.
  Rng eager(2021), deferred(2021);
  std::vector<double> want;
  std::vector<std::uint64_t> want_index, got_index;
  for (int p = 0; p < 27; ++p) {
    for (int d = 0; d < 9; ++d) want.push_back(eager.normal());
    want_index.push_back(eager.uniform_index(4));
    want.push_back(eager.uniform());
  }
  std::vector<double> got;
  {
    Rng::DeferredNormals normals(deferred);
    std::vector<Rng::PolarDraw> draws;
    for (int p = 0; p < 27; ++p) {
      for (int d = 0; d < 9; ++d) draws.push_back(normals.next());
      got_index.push_back(deferred.uniform_index(4));
      draws.push_back({deferred.uniform(), 0.0});  // s == 0: value as is
    }
    normals.settle();
    for (const auto& d : draws) got.push_back(d.value());
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "draw " << i;
  EXPECT_EQ(got_index, want_index);
  expect_same_state(eager, deferred);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace mummi::util
