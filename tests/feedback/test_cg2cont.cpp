#include "feedback/cg2cont.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "datastore/red_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::fb {
namespace {

/// Builds an RDF set with a prescribed contact enrichment for species 0 and
/// a flat profile elsewhere.
coupling::RdfSet synthetic_rdfs(int n_species, double contact_g) {
  coupling::RdfSet set;
  const double r_max = 2.5;
  const std::size_t bins = 25;
  for (int s = 0; s < n_species; ++s) {
    md::RdfAccumulator acc(r_max, bins);
    // Fabricate counts: shell volume * density * g. Use pair_density 1 and a
    // single frame so g == counts / shell.
    std::vector<double> counts(bins);
    for (std::size_t b = 0; b < bins; ++b) {
      const double r_lo = b * (r_max / bins);
      const double r_hi = r_lo + r_max / bins;
      const double shell =
          4.0 / 3.0 * M_PI * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
      const double g = (s == 0 && r_hi <= 0.8) ? contact_g : 1.0;
      counts[b] = shell * g;
    }
    acc.restore_raw(std::move(counts), 1, 1.0);
    set.per_species.push_back(std::move(acc));
  }
  return set;
}

class Cg2ContTest : public ::testing::Test {
 protected:
  Cg2ContTest() : store_(std::make_shared<ds::RedStore>(4)) {}

  void publish(const std::string& key, cont::ProteinState state,
               double contact_g) {
    FeedbackRecord rec;
    rec.state = state;
    rec.rdfs = synthetic_rdfs(3, contact_g);
    store_->put("rdf-pending", key, rec.serialize());
  }

  std::shared_ptr<ds::RedStore> store_;
};

TEST_F(Cg2ContTest, EmptyIterationIsCheapNoop) {
  CgToContinuumFeedback feedback(store_, nullptr);
  const auto stats = feedback.iterate();
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_TRUE(feedback.last_weights().empty());
  EXPECT_EQ(feedback.name(), "cg2cont");
}

TEST_F(Cg2ContTest, ProcessesAndTagsRecords) {
  for (int i = 0; i < 10; ++i)
    publish("f" + std::to_string(i), cont::ProteinState::kRasA, 3.0);
  CgToContinuumFeedback feedback(store_, nullptr);
  const auto stats = feedback.iterate();
  EXPECT_EQ(stats.frames, 10u);
  EXPECT_GT(stats.total_virtual(), 0.0);
  // Tagging moved everything out of the pending namespace.
  EXPECT_TRUE(store_->keys("rdf-pending", "*").empty());
  EXPECT_EQ(store_->keys("rdf-done", "*").size(), 10u);
  // Second iteration sees nothing: cost scales with ongoing work only.
  EXPECT_EQ(feedback.iterate().frames, 0u);
}

TEST_F(Cg2ContTest, EnrichmentBecomesAttractiveWeight) {
  publish("f1", cont::ProteinState::kRasA, 4.0);  // strong contact enrichment
  CgToContinuumFeedback feedback(store_, nullptr);
  feedback.iterate();
  ASSERT_EQ(feedback.n_species(), 3);
  const auto& w = feedback.last_weights();
  const auto idx = static_cast<std::size_t>(cont::ProteinState::kRasA) * 3;
  EXPECT_LT(w[idx + 0], 0.0);          // enriched species: attraction
  EXPECT_NEAR(w[idx + 1], 0.0, 1e-9);  // flat species: neutral
}

TEST_F(Cg2ContTest, DepletionBecomesRepulsiveWeight) {
  publish("f1", cont::ProteinState::kRasB, 0.1);  // depleted contacts
  CgToContinuumFeedback feedback(store_, nullptr);
  feedback.iterate();
  const auto idx = static_cast<std::size_t>(cont::ProteinState::kRasB) *
                   static_cast<std::size_t>(feedback.n_species());
  EXPECT_GT(feedback.last_weights()[idx], 0.0);
}

TEST_F(Cg2ContTest, SmoothingIsProgressive) {
  Cg2ContConfig cfg;
  cfg.smoothing = 0.5;
  CgToContinuumFeedback feedback(store_, nullptr, cfg);
  publish("f1", cont::ProteinState::kRasA, 4.0);
  feedback.iterate();
  const auto idx = static_cast<std::size_t>(cont::ProteinState::kRasA) * 3;
  const double w1 = feedback.last_weights()[idx];
  publish("f2", cont::ProteinState::kRasA, 4.0);
  feedback.iterate();
  const double w2 = feedback.last_weights()[idx];
  // Exponential approach toward the asymptote 2*w1.
  EXPECT_LT(w2, w1);
  EXPECT_NEAR(w2, w1 * 1.5, std::abs(w1) * 0.01);
}

TEST_F(Cg2ContTest, UpdatesRunningContinuumModel) {
  cont::ContinuumConfig ccfg;
  ccfg.grid = 16;
  ccfg.extent = 80.0;
  ccfg.inner_species = 2;
  ccfg.outer_species = 1;
  ccfg.n_proteins = 2;
  cont::GridSim2D sim(ccfg);
  CgToContinuumFeedback feedback(store_, &sim);

  publish("f1", cont::ProteinState::kRasA, 4.0);
  feedback.iterate();
  EXPECT_LT(sim.protein_lipid_coupling(cont::ProteinState::kRasA, 0), 0.0);
  sim.step(2);  // the model keeps running with updated parameters
}

TEST_F(Cg2ContTest, AggregatesPerState) {
  publish("a", cont::ProteinState::kRasA, 4.0);
  publish("b", cont::ProteinState::kRasRafA, 0.2);
  CgToContinuumFeedback feedback(store_, nullptr);
  feedback.iterate();
  const auto& w = feedback.last_weights();
  const auto ras = static_cast<std::size_t>(cont::ProteinState::kRasA) * 3;
  const auto raf = static_cast<std::size_t>(cont::ProteinState::kRasRafA) * 3;
  EXPECT_LT(w[ras], 0.0);
  EXPECT_GT(w[raf], 0.0);
}

TEST_F(Cg2ContTest, BackendCostModelsDiffer) {
  // The 12x-faster-feedback claim reduces to per-record costs; verify the
  // throttled-GPFS model is much more expensive per iteration.
  for (int i = 0; i < 100; ++i)
    publish("f" + std::to_string(i), cont::ProteinState::kRasA, 2.0);
  Cg2ContConfig fast_cfg;
  fast_cfg.costs = FeedbackCosts::redis();
  CgToContinuumFeedback fast(store_, nullptr, fast_cfg);
  const auto fast_stats = fast.iterate();

  for (int i = 0; i < 100; ++i)
    publish("g" + std::to_string(i), cont::ProteinState::kRasA, 2.0);
  Cg2ContConfig slow_cfg;
  slow_cfg.costs = FeedbackCosts::gpfs_throttled();
  CgToContinuumFeedback slow(store_, nullptr, slow_cfg);
  const auto slow_stats = slow.iterate();

  EXPECT_GT(slow_stats.total_virtual(), 12.0 * fast_stats.total_virtual());
}

TEST(FeedbackRecord, SerializeRoundTrip) {
  FeedbackRecord rec;
  rec.state = cont::ProteinState::kRasRafB;
  rec.rdfs = synthetic_rdfs(2, 3.0);
  const auto back = FeedbackRecord::deserialize(rec.serialize());
  EXPECT_EQ(back.state, cont::ProteinState::kRasRafB);
  ASSERT_EQ(back.rdfs.per_species.size(), 2u);
  EXPECT_EQ(back.rdfs.per_species[0].g(), rec.rdfs.per_species[0].g());
}

TEST(FeedbackRecord, ForgedBytesRejected) {
  FeedbackRecord rec;
  rec.rdfs = synthetic_rdfs(1, 2.0);
  const util::Bytes good = rec.serialize();
  // The state is the leading u32; iterate() indexes 4-slot tables with it.
  for (const std::uint32_t state : {4u, 0xffffffffu}) {
    util::ByteWriter w;
    w.u32(state);
    w.bytes(rec.rdfs.serialize());
    EXPECT_THROW(FeedbackRecord::deserialize(w.data()), util::FormatError)
        << "state " << state;
  }
  util::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(FeedbackRecord::deserialize(trailing), util::FormatError);
  EXPECT_NO_THROW(FeedbackRecord::deserialize(good));
}

}  // namespace
}  // namespace mummi::fb
