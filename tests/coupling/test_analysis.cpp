#include "coupling/analysis.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "coupling/patch.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::coupling {
namespace {

CgSystemInfo small_cg(util::Rng& rng) {
  Patch p;
  p.id = 9;
  p.grid = 13;
  p.extent = 6.0;
  p.n_species = 3;
  p.density.assign(3u * 13 * 13, 0.25f);
  p.proteins.push_back({3.0, 3.0, cont::ProteinState::kRasA});
  CgBuildConfig cfg;
  cfg.lipids_per_nm2 = 0.25;
  cfg.minimize_steps = 20;
  cfg.relax_steps = 10;
  return CreateSim(cfg).build(p, rng);
}

TEST(CgAnalysis, AccumulatesRdfPerFrame) {
  util::Rng rng(1);
  const auto cg = small_cg(rng);
  CgAnalysis analysis(cg, /*sim_id=*/42);
  const auto info1 = analysis.analyze(cg.system, 100);
  const auto info2 = analysis.analyze(cg.system, 200);
  EXPECT_EQ(info1.sim_id, 42u);
  EXPECT_EQ(info1.step, 100);
  EXPECT_EQ(info2.step, 200);
  EXPECT_EQ(analysis.frames_analyzed(), 2u);
  const auto rdfs = analysis.take_rdfs();
  EXPECT_EQ(rdfs.per_species.size(), 3u);
  for (const auto& rdf : rdfs.per_species) EXPECT_EQ(rdf.frames(), 2u);
}

TEST(CgAnalysis, TakeResetsAccumulation) {
  util::Rng rng(2);
  const auto cg = small_cg(rng);
  CgAnalysis analysis(cg, 1);
  analysis.analyze(cg.system, 1);
  (void)analysis.take_rdfs();
  const auto rdfs = analysis.take_rdfs();
  for (const auto& rdf : rdfs.per_species) EXPECT_EQ(rdf.frames(), 0u);
}

TEST(CgAnalysis, SharedAnalyzeMatchesOwnAccumulator) {
  // The const form tags the frame with the caller's sim id and adds to the
  // caller's RdfSet; otherwise it is the same analysis, bit for bit.
  util::Rng rng(4);
  const auto cg = small_cg(rng);
  CgAnalysis own(cg, 42);
  const CgAnalysis shared(cg, 0);
  RdfSet rdfs = shared.make_rdfs();
  for (long step = 1; step <= 2; ++step) {
    const auto want = own.analyze(cg.system, step);
    const auto got = shared.analyze(cg.system, 42, step, rdfs);
    EXPECT_EQ(got.sim_id, want.sim_id);
    EXPECT_EQ(got.step, want.step);
    EXPECT_EQ(got.descriptor(), want.descriptor());
  }
  EXPECT_EQ(rdfs.serialize(), own.take_rdfs().serialize());
  rdfs.clear();
  EXPECT_EQ(rdfs.serialize(), shared.make_rdfs().serialize());
}

TEST(CgAnalysis, FrameDescriptorInRange) {
  util::Rng rng(3);
  const auto cg = small_cg(rng);
  CgAnalysis analysis(cg, 1);
  const auto info = analysis.analyze(cg.system, 1);
  EXPECT_GE(info.tilt, 0.0f);
  EXPECT_LE(info.tilt, 90.0f);
  EXPECT_GE(info.rotation, 0.0f);
  EXPECT_LT(info.rotation, 360.0f);
  EXPECT_GE(info.separation, 0.0f);
}

TEST(RdfSet, SerializeRoundTripAndMerge) {
  util::Rng rng(4);
  const auto cg = small_cg(rng);
  CgAnalysis a1(cg, 1), a2(cg, 2);
  a1.analyze(cg.system, 1);
  a2.analyze(cg.system, 1);
  auto set1 = a1.take_rdfs();
  const auto set2 = RdfSet::deserialize(a2.take_rdfs().serialize());
  EXPECT_EQ(set2.per_species.size(), set1.per_species.size());
  const auto frames_before = set1.per_species[0].frames();
  set1.merge(set2);
  EXPECT_EQ(set1.per_species[0].frames(), frames_before * 2);
}

TEST(RdfSet, MergeMismatchRejected) {
  RdfSet a, b;
  a.per_species.emplace_back(2.0, 10);
  EXPECT_THROW(a.merge(b), util::Error);
}

// --- untrusted-byte hardening -----------------------------------------------
// RdfSet::deserialize validates bounds before allocating (the
// Snapshot::deserialize discipline): adversarial headers must throw
// FormatError, never reach operator new with attacker-chosen sizes.

util::Bytes valid_rdfset_bytes() {
  RdfSet set;
  set.per_species.emplace_back(2.0, 16);
  set.per_species.emplace_back(2.0, 16);
  return set.serialize();
}

TEST(RdfSet, DeserializeRejectsTruncation) {
  const auto bytes = valid_rdfset_bytes();
  for (const std::size_t keep : {0u, 3u, 4u, 12u, 20u}) {
    ASSERT_LT(keep, bytes.size());
    const util::Bytes cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW((void)RdfSet::deserialize(cut), util::FormatError)
        << "kept " << keep << " bytes";
  }
}

TEST(RdfSet, DeserializeRejectsHugeSpeciesCount) {
  util::ByteWriter w;
  w.u32(0xffffffffu);  // claims 4 billion species; stream ends right here
  EXPECT_THROW((void)RdfSet::deserialize(std::move(w).take()),
               util::FormatError);
}

TEST(RdfSet, DeserializeRejectsHugeBinCount) {
  util::ByteWriter w;
  w.u32(1);
  w.f64(2.0);                     // r_max
  w.u64(1ull << 40);              // bins: ~8 TiB of counts if trusted
  w.u64(0);                       // frames
  w.f64(0.0);                     // pair density
  EXPECT_THROW((void)RdfSet::deserialize(std::move(w).take()),
               util::FormatError);
}

TEST(RdfSet, DeserializeRejectsBadRmax) {
  for (const double rmax :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    util::ByteWriter w;
    w.u32(1);
    w.f64(rmax);
    w.u64(16);
    w.u64(0);
    w.f64(0.0);
    w.vec(std::vector<double>(16, 0.0));
    EXPECT_THROW((void)RdfSet::deserialize(std::move(w).take()),
                 util::FormatError);
  }
}

TEST(RdfSet, DeserializeRejectsNonFinitePairDensity) {
  util::ByteWriter w;
  w.u32(1);
  w.f64(2.0);
  w.u64(16);
  w.u64(1);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.vec(std::vector<double>(16, 0.0));
  EXPECT_THROW((void)RdfSet::deserialize(std::move(w).take()),
               util::FormatError);
}

TEST(RdfSet, DeserializeRejectsCountsBinsMismatch) {
  util::ByteWriter w;
  w.u32(1);
  w.f64(2.0);
  w.u64(16);  // header says 16 bins...
  w.u64(0);
  w.f64(0.0);
  w.vec(std::vector<double>(8, 0.0));  // ...counts vector carries 8
  EXPECT_THROW((void)RdfSet::deserialize(std::move(w).take()),
               util::FormatError);
}

TEST(RdfSet, DeserializeAcceptsValidAfterHardening) {
  const auto bytes = valid_rdfset_bytes();
  EXPECT_EQ(RdfSet::deserialize(bytes).serialize(), bytes);
}

TEST(AaAnalysis, ProducesPatternOfBackboneLength) {
  util::Rng rng(5);
  const auto cg = small_cg(rng);
  Backmapper backmapper({.minimize_steps = 20, .restrained_steps = 10});
  const auto aa = backmapper.build(cg, rng);
  AaAnalysis analysis(aa.backbone, 7);
  const auto pattern = analysis.analyze(aa.system);
  EXPECT_EQ(pattern.size(), aa.backbone.size());
  for (char c : pattern) EXPECT_TRUE(c == 'H' || c == 'E' || c == 'C');
  EXPECT_EQ(analysis.sim_id(), 7u);
}

}  // namespace
}  // namespace mummi::coupling
