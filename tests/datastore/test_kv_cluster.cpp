#include "datastore/kv_cluster.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace mummi::ds {
namespace {

TEST(KvCluster, SetGetDelete) {
  KvCluster kv(4);
  kv.set("a", util::to_bytes("1"));
  EXPECT_TRUE(kv.exists("a"));
  EXPECT_EQ(util::to_string(*kv.get("a")), "1");
  EXPECT_TRUE(kv.del("a"));
  EXPECT_FALSE(kv.del("a"));
  EXPECT_FALSE(kv.get("a").has_value());
}

TEST(KvCluster, OverwriteReplaces) {
  KvCluster kv(2);
  kv.set("k", util::to_bytes("old"));
  kv.set("k", util::to_bytes("new"));
  EXPECT_EQ(util::to_string(*kv.get("k")), "new");
  EXPECT_EQ(kv.total_keys(), 1u);
}

TEST(KvCluster, KeysPatternAcrossShards) {
  KvCluster kv(8);
  for (int i = 0; i < 100; ++i)
    kv.set("rdf:" + std::to_string(i), util::to_bytes("x"));
  for (int i = 0; i < 50; ++i)
    kv.set("ss:" + std::to_string(i), util::to_bytes("y"));
  EXPECT_EQ(kv.keys("rdf:*").size(), 100u);
  EXPECT_EQ(kv.keys("ss:*").size(), 50u);
  EXPECT_EQ(kv.keys("*").size(), 150u);
  EXPECT_EQ(kv.keys("rdf:1?").size(), 10u);  // rdf:10..rdf:19
}

TEST(KvCluster, RenameSameValue) {
  KvCluster kv(4);
  kv.set("pending:frame1", util::to_bytes("payload"));
  EXPECT_TRUE(kv.rename("pending:frame1", "done:frame1"));
  EXPECT_FALSE(kv.exists("pending:frame1"));
  EXPECT_EQ(util::to_string(*kv.get("done:frame1")), "payload");
}

TEST(KvCluster, RenameMissingReturnsFalse) {
  KvCluster kv(4);
  EXPECT_FALSE(kv.rename("absent", "elsewhere"));
}

TEST(KvCluster, RenameCrossAndSameShardBothWork) {
  // Exercise many renames so both same-shard and cross-shard paths run.
  KvCluster kv(4);
  for (int i = 0; i < 64; ++i) {
    const std::string from = "src-" + std::to_string(i);
    const std::string to = "dst-" + std::to_string(i);
    kv.set(from, util::to_bytes(std::to_string(i)));
    ASSERT_TRUE(kv.rename(from, to));
    EXPECT_EQ(util::to_string(*kv.get(to)), std::to_string(i));
  }
  EXPECT_EQ(kv.keys("src-*").size(), 0u);
  EXPECT_EQ(kv.keys("dst-*").size(), 64u);
}

TEST(KvCluster, ShardingIsDeterministicAndSpread) {
  KvCluster kv(20);
  std::set<std::size_t> shards;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(kv.server_of(key), kv.server_of(key));
    shards.insert(kv.server_of(key));
  }
  EXPECT_EQ(shards.size(), 20u);  // all servers receive keys
}

TEST(KvCluster, TotalBytesTracksPayloads) {
  KvCluster kv(2);
  kv.set("a", util::Bytes(100));
  kv.set("b", util::Bytes(250));
  EXPECT_EQ(kv.total_bytes(), 350u);
  kv.del("a");
  EXPECT_EQ(kv.total_bytes(), 250u);
}

TEST(KvCluster, SimTimeAccountsPerOperationClass) {
  KvCostModel cost;
  KvCluster kv(4);
  for (int i = 0; i < 100; ++i)
    kv.set("k" + std::to_string(i), util::Bytes(1000));
  kv.reset_sim_time();
  (void)kv.keys("*");
  for (int i = 0; i < 100; ++i) (void)kv.get("k" + std::to_string(i));
  for (int i = 0; i < 100; ++i) kv.del("k" + std::to_string(i));
  // keys(): 100 returned keys at 1e-4 each dominates.
  EXPECT_NEAR(kv.sim_seconds_keys(), 100 * cost.per_returned_key, 5e-3);
  // reads: 100 * (5e-4 + 1000 * 2e-9)
  EXPECT_NEAR(kv.sim_seconds_reads(),
              100 * (cost.per_read + 1000 * cost.per_byte), 1e-6);
  EXPECT_NEAR(kv.sim_seconds_deletes(), 100 * cost.per_query, 1e-9);
  // Calibration: value reads ~5x slower than key retrieval/deletion
  // (paper: ~10k keys+deletes/s vs ~2k value reads/s).
  EXPECT_GT(kv.sim_seconds_reads(), 4.0 * kv.sim_seconds_deletes());
}

TEST(KvCluster, ConcurrentMixedOperationsSafe) {
  KvCluster kv(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key =
            "t" + std::to_string(t) + ":" + std::to_string(i);
        kv.set(key, util::to_bytes("v"));
        EXPECT_TRUE(kv.exists(key));
        if (i % 3 == 0) kv.del(key);
      }
    });
  for (auto& th : threads) th.join();
  // Each thread kept 2/3 of its 500 keys.
  EXPECT_EQ(kv.total_keys(), 4 * (500 - 167));
}

TEST(KvCluster, SingleServerDegenerate) {
  KvCluster kv(1);
  kv.set("only", util::to_bytes("x"));
  EXPECT_EQ(kv.server_of("anything"), 0u);
  EXPECT_EQ(kv.keys("*").size(), 1u);
}

TEST(EnginePins, KvClusterVirtualTime) {
  // The four virtual-time ledgers after a fixed mix of scalar, scan and
  // pipelined operations, compared exactly: every cost-model term feeds one.
  KvCluster kv(4);
  for (int i = 0; i < 40; ++i)
    kv.set("ns:k" + std::to_string(i), util::Bytes(100 + 7 * i));
  for (int i = 0; i < 40; i += 3) (void)kv.get("ns:k" + std::to_string(i));
  (void)kv.get("ns:absent");
  (void)kv.keys("*");
  (void)kv.keys("ns", "k1*");
  (void)kv.count("ns");
  std::vector<std::pair<std::string, util::Bytes>> batch;
  std::vector<std::string> names;
  std::vector<std::pair<std::string, std::string>> renames;
  for (int i = 0; i < 12; ++i) {
    batch.emplace_back("b:" + std::to_string(i), util::Bytes(50 + i));
    names.push_back("b:" + std::to_string(i));
    renames.emplace_back("ns:k" + std::to_string(i),
                         "done:k" + std::to_string(i));
  }
  kv.mset(batch);
  (void)kv.mget(names);
  (void)kv.mrename(renames);
  (void)kv.rename("ns:k20", "done:k20");
  (void)kv.mdel(names);
  for (int i = 30; i < 35; ++i) kv.del("ns:k" + std::to_string(i));
  EXPECT_EQ(kv.sim_seconds_writes(), 0x1.6f04a33079ce1p-8);
  EXPECT_EQ(kv.sim_seconds_reads(), 0x1.fbc5190a793bfp-8);
  EXPECT_EQ(kv.sim_seconds_keys(), 0x1.9cfb4de997debp-8);
  EXPECT_EQ(kv.sim_seconds_deletes(), 0x1.ecd4aa10e0223p-10);
}

}  // namespace
}  // namespace mummi::ds
