// Equivalence property: the optimized FpsSampler (SoA store, eager exact
// ranks, a 16-lane rank fold, blocked parallel pick folds) must reproduce the naive FpsReference's
// selection sequence byte-for-byte — same ids, in the same order — across
// randomized seeds, dimensions and batch sizes. This is the determinism
// contract that keeps campaign output independent of the selection engine's
// internals (and of the thread-pool size driving its rank updates).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "fps_reference.hpp"
#include "ml/fps_sampler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi {
namespace {

std::vector<ml::HDPoint> random_batch(int n, int dim, util::Rng& rng,
                                      ml::PointId& next) {
  std::vector<ml::HDPoint> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ml::HDPoint p;
    p.id = next++;
    p.coords.resize(static_cast<std::size_t>(dim));
    for (auto& c : p.coords) c = static_cast<float>(rng.normal());
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<ml::PointId> ids_of(const std::vector<ml::HDPoint>& pts) {
  std::vector<ml::PointId> out;
  out.reserve(pts.size());
  for (const auto& p : pts) out.push_back(p.id);
  return out;
}

class FpsEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FpsEquivalence, MatchesNaiveReferenceSelectionSequence) {
  const auto [dim, seed] = GetParam();
  util::Rng rng(seed);
  // Small capacity so eviction paths are exercised too.
  const std::size_t capacity = 60 + rng.uniform_index(80);
  ml::FpsSampler fast(dim, capacity);
  ml::FpsReference naive(dim, capacity);

  ml::PointId next = 1;
  for (int round = 0; round < 10; ++round) {
    const int batch = 1 + static_cast<int>(rng.uniform_index(70));
    const auto points = random_batch(batch, dim, rng, next);
    fast.add_candidates(points);
    naive.add_candidates(points);

    // Mix batched picks with interleaved rank updates, including k larger
    // than the pool on some rounds.
    const auto k = rng.uniform_index(12);
    if (rng.uniform() < 0.3) {
      fast.update_ranks();
      naive.update_ranks();
    }
    const auto got = ids_of(fast.select(k));
    const auto want = ids_of(naive.select(k));
    ASSERT_EQ(got, want) << "divergence at round " << round << " (dim " << dim
                         << ", seed " << seed << ", k " << k << ")";
    ASSERT_EQ(fast.candidate_count(), naive.candidate_count());
    ASSERT_EQ(fast.selected_count(), naive.selected_count());
  }

  // Drain both pools completely: every remaining pick must still agree.
  const auto got = ids_of(fast.select(fast.candidate_count() + 5));
  const auto want = ids_of(naive.select(naive.candidate_count() + 5));
  EXPECT_EQ(got, want);
  EXPECT_EQ(fast.candidate_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, FpsEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 9, 16),
                       ::testing::Values(11u, 97u, 2026u)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Serialization in the middle of a campaign must not perturb the stream:
// restore from bytes, keep selecting, still match the reference.
TEST(FpsEquivalence, RoundTripMidStreamKeepsSequence) {
  util::Rng rng(5);
  ml::FpsSampler fast(4, 200);
  ml::FpsReference naive(4, 200);
  ml::PointId next = 1;
  const auto first = random_batch(150, 4, rng, next);
  fast.add_candidates(first);
  naive.add_candidates(first);
  ASSERT_EQ(ids_of(fast.select(20)), ids_of(naive.select(20)));

  util::ByteWriter state;
  fast.serialize(state);
  util::ByteReader r(state.data());
  ml::FpsSampler restored = ml::FpsSampler::deserialize(r);
  const auto second = random_batch(80, 4, rng, next);
  restored.add_candidates(second);
  naive.add_candidates(second);
  for (int i = 0; i < 6; ++i)
    ASSERT_EQ(ids_of(restored.select(7)), ids_of(naive.select(7))) << i;
}

// Capacity pressure: batches of 100-400 into pools of 8-32 slots, so almost
// every arrival is evicted before it could be picked, with 0-3 picks a round
// and serialize/deserialize at random rounds. Ids are scrambled (an odd
// multiplier is a bijection mod 2^32), so a late arrival can outrank an
// early one on the id tie-break. `quiet_rounds` rounds pass with no pick:
// the pool grows far past capacity while every rank is infinite, and the id
// tie-break alone decides the survivors. `prior` picks from a first batch
// grow the selected set to hundreds of points, so each rank folds many
// 16-lane groups, before the pressure starts.
struct PressureCase {
  int dim;
  std::uint64_t seed;
  int quiet_rounds;
  int prior;
};

// Without it gtest prints the struct's bytes, padding included, into the
// discovered test names.
void PrintTo(const PressureCase& c, std::ostream* os) {
  *os << "dim " << c.dim << ", seed " << c.seed << ", quiet "
      << c.quiet_rounds << ", prior " << c.prior;
}

class FpsEquivalenceUnderPressure
    : public ::testing::TestWithParam<PressureCase> {};

TEST_P(FpsEquivalenceUnderPressure, MatchesReferenceUnderEviction) {
  const auto [dim, seed, quiet_rounds, prior] = GetParam();
  util::Rng rng(seed);
  const std::size_t capacity = 8 + rng.uniform_index(25);
  std::uint32_t counter = 1;
  auto batch = [&](int n) {
    std::vector<ml::HDPoint> out(static_cast<std::size_t>(n));
    for (auto& p : out) {
      p.id = static_cast<ml::PointId>(counter++ * 2654435761u);
      p.coords.resize(static_cast<std::size_t>(dim));
      for (auto& c : p.coords) c = static_cast<float>(rng.normal());
    }
    return out;
  };
  auto fast = std::make_unique<ml::FpsSampler>(dim, capacity);
  ml::FpsReference naive(dim, capacity);
  if (prior > 0) {
    const auto first = batch(prior + 50);
    fast->add_candidates(first);
    naive.add_candidates(first);
    // Capacity evicts all but `capacity` before the picks: pick from a
    // pool that large in rounds.
    ASSERT_EQ(ids_of(fast->select(capacity)), ids_of(naive.select(capacity)));
    for (std::size_t done = capacity; done < static_cast<std::size_t>(prior);) {
      const auto more = batch(static_cast<int>(capacity));
      fast->add_candidates(more);
      naive.add_candidates(more);
      ASSERT_EQ(ids_of(fast->select(capacity)),
                ids_of(naive.select(capacity)));
      done += capacity;
    }
  }

  for (int round = 0; round < 48; ++round) {
    const auto points = batch(100 + static_cast<int>(rng.uniform_index(301)));
    fast->add_candidates(points);
    naive.add_candidates(points);
    if (rng.uniform() < 0.25) {
      util::ByteWriter state;
      fast->serialize(state);
      util::ByteReader r(state.data());
      fast = std::make_unique<ml::FpsSampler>(ml::FpsSampler::deserialize(r));
      ASSERT_TRUE(r.at_end());
    }
    const std::size_t k = round < quiet_rounds ? 0 : rng.uniform_index(4);
    const auto got = ids_of(fast->select(k));
    const auto want = ids_of(naive.select(k));
    ASSERT_EQ(got, want) << "divergence at round " << round << " (dim " << dim
                         << ", seed " << seed << ", capacity " << capacity
                         << ", k " << k << ")";
    ASSERT_EQ(fast->candidate_count(), naive.candidate_count());
    ASSERT_EQ(fast->selected_count(), naive.selected_count());
  }
  EXPECT_EQ(ids_of(fast->select(capacity + 1)),
            ids_of(naive.select(capacity + 1)));
}

INSTANTIATE_TEST_SUITE_P(
    CapacityPressure, FpsEquivalenceUnderPressure,
    ::testing::Values(PressureCase{2, 3, 0, 0}, PressureCase{9, 7, 0, 0},
                      PressureCase{9, 19, 0, 0}, PressureCase{16, 23, 0, 0},
                      PressureCase{3, 31, 30, 0}, PressureCase{9, 37, 48, 0},
                      PressureCase{9, 41, 5, 600}),
    [](const auto& info) {
      const PressureCase& c = info.param;
      return "dim" + std::to_string(c.dim) + "_seed" + std::to_string(c.seed) +
             "_quiet" + std::to_string(c.quiet_rounds) + "_prior" +
             std::to_string(c.prior);
    });

// Batches larger than one refresh block (1,024 candidates) are ranked on
// the sampler's pool: the same sequence as the reference on 2 workers.
TEST(FpsEquivalence, PooledBatchesUnderPressureKeepSequence) {
  util::Rng rng(53);
  util::ThreadPool pool(2);
  ml::FpsSampler fast(9, 700, &pool);
  ml::FpsReference naive(9, 700);
  ml::PointId next = 1;
  for (int round = 0; round < 8; ++round) {
    const auto points =
        random_batch(1500 + static_cast<int>(rng.uniform_index(1500)), 9, rng,
                     next);
    fast.add_candidates(points);
    naive.add_candidates(points);
    const std::size_t k = round == 0 ? 0 : rng.uniform_index(4);
    ASSERT_EQ(ids_of(fast.select(k)), ids_of(naive.select(k))) << round;
    ASSERT_EQ(fast.candidate_count(), naive.candidate_count());
  }
}

}  // namespace
}  // namespace mummi
