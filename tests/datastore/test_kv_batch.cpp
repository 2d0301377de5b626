// Namespace index + pipelined batch operations of the KV cluster.
//
// Three properties under test: (1) the per-shard namespace index stays
// exactly in sync with the data through every mutation path; (2) namespace-confined listing costs are independent of
// other namespaces' population (the O(pending) guarantee the feedback
// tagging strategy relies on); (3) every batch op is observably equivalent
// to its per-key loop — byte-identical results, never more virtual time.

#include "datastore/kv_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mummi::ds {
namespace {

std::vector<std::pair<std::string, util::Bytes>> make_records(
    const std::string& ns, int n) {
  std::vector<std::pair<std::string, util::Bytes>> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    records.emplace_back(ns + ":" + std::to_string(i),
                         util::to_bytes(ns + "-payload-" + std::to_string(i)));
  return records;
}

TEST(KvBatch, NamespaceIndexTracksSetDelRename) {
  KvCluster kv(4);
  for (const auto& [key, value] : make_records("pending", 30)) kv.set(key, value);
  EXPECT_EQ(kv.count("pending"), 30u);
  EXPECT_EQ(kv.count("done"), 0u);
  EXPECT_EQ(kv.keys("pending", "*").size(), 30u);

  // Overwrites do not duplicate index entries.
  kv.set("pending:0", util::to_bytes("updated"));
  EXPECT_EQ(kv.count("pending"), 30u);

  // Deletions remove entries; empty namespaces vanish.
  for (int i = 0; i < 10; ++i) kv.del("pending:" + std::to_string(i));
  EXPECT_EQ(kv.count("pending"), 20u);

  // Renames move entries between namespaces.
  for (int i = 10; i < 30; ++i)
    ASSERT_TRUE(kv.rename("pending:" + std::to_string(i),
                          "done:" + std::to_string(i)));
  EXPECT_EQ(kv.count("pending"), 0u);
  EXPECT_EQ(kv.count("done"), 20u);
  EXPECT_EQ(kv.keys("pending", "*").size(), 0u);
  EXPECT_EQ(kv.keys("done", "*").size(), 20u);
}

TEST(KvBatch, NamespaceKeysAreSortedFullKeys) {
  KvCluster kv(4);
  for (const auto& [key, value] : make_records("ns", 20)) kv.set(key, value);
  const auto keys = kv.keys("ns", "*");
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const auto& key : keys) EXPECT_EQ(key.rfind("ns:", 0), 0u);
  // Tail patterns match against the part after "<ns>:".
  EXPECT_EQ(kv.keys("ns", "1?").size(), 10u);  // ns:10..ns:19
}

TEST(KvBatch, KeysNamespaceCostIndependentOfOtherNamespaces) {
  // The regression the index exists to prevent: listing the pending
  // namespace must cost the same whether history ("done") holds nothing or
  // 100x the pending population.
  KvCluster lean(4), loaded(4);
  for (const auto& [key, value] : make_records("pending", 50)) {
    lean.set(key, value);
    loaded.set(key, value);
  }
  for (const auto& [key, value] : make_records("done", 5000))
    loaded.set(key, value);

  lean.reset_sim_time();
  loaded.reset_sim_time();
  const auto lean_keys = lean.keys("pending", "*");
  const auto loaded_keys = loaded.keys("pending", "*");
  EXPECT_EQ(lean_keys, loaded_keys);
  EXPECT_DOUBLE_EQ(lean.sim_seconds_keys(), loaded.sim_seconds_keys());

  // Same independence for count(), which never scans at all.
  lean.reset_sim_time();
  loaded.reset_sim_time();
  EXPECT_EQ(lean.count("pending"), loaded.count("pending"));
  EXPECT_DOUBLE_EQ(lean.sim_seconds_keys(), loaded.sim_seconds_keys());
}

TEST(KvBatch, PatternRoutedKeysUsesIndexCost) {
  // keys("<ns>:*") routes through the index: cost must not grow with other
  // namespaces' keys.
  KvCluster lean(4), loaded(4);
  for (const auto& [key, value] : make_records("pending", 50)) {
    lean.set(key, value);
    loaded.set(key, value);
  }
  for (const auto& [key, value] : make_records("done", 5000))
    loaded.set(key, value);
  lean.reset_sim_time();
  loaded.reset_sim_time();
  EXPECT_EQ(lean.keys("pending:*"), loaded.keys("pending:*"));
  EXPECT_DOUBLE_EQ(lean.sim_seconds_keys(), loaded.sim_seconds_keys());
}

TEST(KvBatch, MgetMatchesGetLoopByteIdentical) {
  KvCluster loop_kv(4), batch_kv(4);
  const auto records = make_records("frame", 200);
  for (const auto& [key, value] : records) {
    loop_kv.set(key, value);
    batch_kv.set(key, value);
  }
  std::vector<std::string> keys;
  for (const auto& [key, value] : records) keys.push_back(key);
  keys.push_back("frame:absent");  // misses must line up too

  loop_kv.reset_sim_time();
  batch_kv.reset_sim_time();
  std::vector<std::optional<util::Bytes>> loop_out;
  for (const auto& key : keys) loop_out.push_back(loop_kv.get(key));
  const auto batch_out = batch_kv.mget(keys);

  ASSERT_EQ(batch_out.size(), loop_out.size());
  for (std::size_t i = 0; i < loop_out.size(); ++i)
    EXPECT_EQ(batch_out[i], loop_out[i]) << keys[i];
  // Pipelining can only save virtual time, never add it.
  EXPECT_LE(batch_kv.total_sim_seconds(), loop_kv.total_sim_seconds());
  EXPECT_GT(batch_kv.total_sim_seconds(), 0.0);
}

TEST(KvBatch, MrenameMatchesRenameLoop) {
  KvCluster loop_kv(4), batch_kv(4);
  const auto records = make_records("pending", 120);
  for (const auto& [key, value] : records) {
    loop_kv.set(key, value);
    batch_kv.set(key, value);
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 130; ++i)  // 10 pairs have absent sources
    pairs.emplace_back("pending:" + std::to_string(i),
                       "done:" + std::to_string(i));

  loop_kv.reset_sim_time();
  batch_kv.reset_sim_time();
  std::size_t loop_renamed = 0;
  for (const auto& [from, to] : pairs)
    loop_renamed += loop_kv.rename(from, to) ? 1 : 0;
  const double loop_s = loop_kv.total_sim_seconds();
  const std::size_t batch_renamed = batch_kv.mrename(pairs);
  const double batch_s = batch_kv.total_sim_seconds();
  EXPECT_LE(batch_s, loop_s);

  EXPECT_EQ(batch_renamed, loop_renamed);
  EXPECT_EQ(batch_renamed, 120u);
  EXPECT_EQ(loop_kv.keys("done", "*"), batch_kv.keys("done", "*"));
  EXPECT_EQ(batch_kv.count("pending"), 0u);
  for (const auto& [key, value] : records)
    EXPECT_EQ(*batch_kv.get("done" + key.substr(key.find(':'))), value);
}

TEST(KvBatch, EmptyBatchesAreFreeNoops) {
  KvCluster kv(4);
  kv.reset_sim_time();
  EXPECT_TRUE(kv.mget({}).empty());
  EXPECT_EQ(kv.mrename({}), 0u);
  EXPECT_DOUBLE_EQ(kv.total_sim_seconds(), 0.0);
}

TEST(SharedLockStress, ConcurrentReadersAndWritersStayConsistent) {
  // Readers (shared lock) race writers (exclusive lock) across namespaces.
  // TSan-clean execution and exact final counts are the assertions.
  KvCluster kv(4);
  for (const auto& [key, value] : make_records("stable", 50))
    kv.set(key, value);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_seen{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load()) {
        EXPECT_EQ(kv.count("stable"), 50u);
        const auto keys = kv.keys("stable", "*");
        EXPECT_EQ(keys.size(), 50u);
        const auto values = kv.mget(keys);
        for (const auto& v : values)
          if (v.has_value()) reads_seen.fetch_add(1);
      }
    });

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w)
    writers.emplace_back([&, w] {
      const std::string ns = "scratch" + std::to_string(w);
      for (int round = 0; round < 30; ++round) {
        std::vector<std::pair<std::string, util::Bytes>> batch;
        for (int i = 0; i < 20; ++i)
          batch.emplace_back(ns + ":" + std::to_string(i),
                             util::to_bytes(std::to_string(round)));
        for (const auto& [key, value] : batch) kv.set(key, value);
        for (const auto& [key, value] : batch) EXPECT_TRUE(kv.del(key));
      }
    });

  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_GT(reads_seen.load(), 0u);
  EXPECT_EQ(kv.count("stable"), 50u);
  EXPECT_EQ(kv.total_keys(), 50u);
}

TEST(SharedLockStress, ParallelMgetAcrossShardsMatchesSerial) {
  // Cross-shard mget fans out over the worker pool; results must be
  // deterministic and identical to a serial reference regardless of worker
  // interleaving.
  KvCluster kv(8);
  const auto records = make_records("fan", 400);
  for (const auto& [key, value] : records) kv.set(key, value);
  std::vector<std::string> keys;
  for (const auto& [key, value] : records) keys.push_back(key);

  std::vector<std::optional<util::Bytes>> reference;
  for (const auto& key : keys) reference.push_back(kv.get(key));
  for (int round = 0; round < 10; ++round) {
    const auto out = kv.mget(keys);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], reference[i]);
  }
}

}  // namespace
}  // namespace mummi::ds
