// QuarantineLedger: strike accounting keyed by logical payload, the two
// quarantine criteria (direct strikes; distinct-node kills), and serialization
// — the ledger must survive checkpoint/restart so poison work stays known.
#include "supervise/quarantine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi {
namespace {

using supervise::QuarantineLedger;
using supervise::StrikeKind;

TEST(QuarantineLedger, FailuresAndHangsCountTowardTheSameLimit) {
  QuarantineLedger ledger(3);
  EXPECT_FALSE(ledger.strike("cg_setup", 7, StrikeKind::kFailure, 10.0));
  EXPECT_FALSE(ledger.strike("cg_setup", 7, StrikeKind::kHang, 20.0));
  EXPECT_FALSE(ledger.quarantined("cg_setup", 7));
  // Third strike quarantines — and reports true exactly once.
  EXPECT_TRUE(ledger.strike("cg_setup", 7, StrikeKind::kFailure, 30.0));
  EXPECT_TRUE(ledger.quarantined("cg_setup", 7));
  EXPECT_FALSE(ledger.strike("cg_setup", 7, StrikeKind::kFailure, 40.0));

  const auto* entry = ledger.find("cg_setup", 7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->failures, 3u);
  EXPECT_EQ(entry->hangs, 1u);
  EXPECT_EQ(entry->direct_strikes(), 4u);
  EXPECT_DOUBLE_EQ(entry->first_strike_s, 10.0);
  EXPECT_DOUBLE_EQ(entry->quarantined_at_s, 30.0);
  EXPECT_EQ(ledger.quarantined_count(), 1u);
}

TEST(QuarantineLedger, KeysAreTypeScoped) {
  QuarantineLedger ledger(2);
  ledger.strike("cg_setup", 7, StrikeKind::kFailure, 1.0);
  ledger.strike("cg_setup", 7, StrikeKind::kFailure, 2.0);
  EXPECT_TRUE(ledger.quarantined("cg_setup", 7));
  // Same payload id under a different type is a different work item.
  EXPECT_FALSE(ledger.quarantined("cg_sim", 7));
  EXPECT_EQ(ledger.find("aa_setup", 7), nullptr);
}

TEST(QuarantineLedger, NodeKillsQuarantineOnlyAcrossDistinctNodes) {
  QuarantineLedger ledger(3);
  // Three kills on the SAME node: bad node, not poison work.
  EXPECT_FALSE(ledger.strike("cg_sim", 1, StrikeKind::kNodeKill, 1.0, 4));
  EXPECT_FALSE(ledger.strike("cg_sim", 1, StrikeKind::kNodeKill, 2.0, 4));
  EXPECT_FALSE(ledger.strike("cg_sim", 1, StrikeKind::kNodeKill, 3.0, 4));
  EXPECT_FALSE(ledger.quarantined("cg_sim", 1));

  // Kills on three distinct nodes: the payload takes nodes down with it.
  EXPECT_FALSE(ledger.strike("cg_sim", 2, StrikeKind::kNodeKill, 1.0, 0));
  EXPECT_FALSE(ledger.strike("cg_sim", 2, StrikeKind::kNodeKill, 2.0, 2));
  EXPECT_TRUE(ledger.strike("cg_sim", 2, StrikeKind::kNodeKill, 3.0, 1));
  EXPECT_TRUE(ledger.quarantined("cg_sim", 2));
  const auto* entry = ledger.find("cg_sim", 2);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->node_kills, 3u);
  EXPECT_EQ(entry->nodes_killed, (std::vector<int>{0, 1, 2}));  // ascending
}

TEST(QuarantineLedger, NonPositiveLimitRecordsButNeverQuarantines) {
  QuarantineLedger ledger(0);
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(ledger.strike("t", 3, StrikeKind::kFailure, i));
  EXPECT_FALSE(ledger.quarantined("t", 3));
  ASSERT_NE(ledger.find("t", 3), nullptr);
  EXPECT_EQ(ledger.find("t", 3)->failures, 10u);
}

TEST(QuarantineLedger, QuarantinedKeysAreSortedAndStable) {
  QuarantineLedger ledger(1);
  ledger.strike("cg_sim", 9, StrikeKind::kFailure, 1.0);
  ledger.strike("aa_setup", 12, StrikeKind::kHang, 2.0);
  ledger.strike("cg_setup", 5, StrikeKind::kFailure, 3.0);
  ledger.strike("cg_setup", 2, StrikeKind::kFailure, 4.0);
  EXPECT_EQ(ledger.quarantined_keys(),
            (std::vector<std::string>{"aa_setup:12", "cg_setup:2",
                                      "cg_setup:5", "cg_sim:9"}));
}

TEST(QuarantineLedger, SerializeRestoreRoundTripsEverything) {
  QuarantineLedger ledger(3);
  ledger.strike("cg_setup", 7, StrikeKind::kFailure, 10.0);
  ledger.strike("cg_setup", 7, StrikeKind::kHang, 20.0);
  ledger.strike("cg_setup", 7, StrikeKind::kFailure, 30.0);
  ledger.strike("cg_sim", 3, StrikeKind::kNodeKill, 5.0, 2);

  util::ByteWriter state;
  ledger.serialize(state);
  QuarantineLedger restored(3);
  util::ByteReader r(state.data());
  restored.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.quarantined("cg_setup", 7));
  EXPECT_FALSE(restored.quarantined("cg_sim", 3));
  const auto* entry = restored.find("cg_setup", 7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->failures, 2u);
  EXPECT_EQ(entry->hangs, 1u);
  EXPECT_DOUBLE_EQ(entry->quarantined_at_s, 30.0);
  const auto* kills = restored.find("cg_sim", 3);
  ASSERT_NE(kills, nullptr);
  EXPECT_EQ(kills->nodes_killed, (std::vector<int>{2}));

  // Restored strikes keep counting: one more node kill on a new node is
  // still below the distinct-node limit; two more quarantine it.
  EXPECT_FALSE(restored.strike("cg_sim", 3, StrikeKind::kNodeKill, 40.0, 5));
  EXPECT_TRUE(restored.strike("cg_sim", 3, StrikeKind::kNodeKill, 50.0, 6));
}

TEST(QuarantineLedger, RestoreRejectsForgedNodeCount) {
  // One entry whose killed-node list claims 2^32 - 1 nodes and carries one:
  // the count is checked against the stream before anything is reserved.
  util::ByteWriter w;
  w.u32(1);  // entries
  w.str("cg_sim");
  w.u64(3);  // payload
  w.u32(0);  // failures
  w.u32(0);  // hangs
  w.u32(1);  // node kills
  w.u32(0xFFFFFFFFu);  // killed-node count
  w.u32(2);
  QuarantineLedger ledger(3);
  util::ByteReader r(w.data());
  EXPECT_THROW(ledger.restore(r), util::FormatError);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(QuarantineLedger, TruncatedRestoreLeavesTheLedgerUnchanged) {
  QuarantineLedger source(3);
  source.strike("cg_setup", 7, StrikeKind::kFailure, 10.0);
  source.strike("cg_sim", 3, StrikeKind::kNodeKill, 5.0, 2);
  util::ByteWriter state;
  source.serialize(state);
  const util::Bytes cut(state.data().begin(), state.data().end() - 4);

  QuarantineLedger ledger(3);
  ledger.strike("aa_setup", 11, StrikeKind::kHang, 1.0);
  util::ByteWriter before;
  ledger.serialize(before);
  util::ByteReader r(cut);
  EXPECT_THROW(ledger.restore(r), util::FormatError);
  util::ByteWriter after;
  ledger.serialize(after);
  EXPECT_EQ(after.data(), before.data());
}

}  // namespace
}  // namespace mummi
