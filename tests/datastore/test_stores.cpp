// Backend-parameterized DataStore conformance suite: every backend must obey
// the same contract, since the application switches between them "with a
// single configuration switch".
#include <gtest/gtest.h>

#include <filesystem>

#include "datastore/fs_store.hpp"
#include "datastore/red_store.hpp"
#include "datastore/store_factory.hpp"
#include "datastore/tar_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::ds {
namespace {

class StoreConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mummi_store_" + std::to_string(::getpid()) + "_" + GetParam() +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    util::Config cfg;
    cfg.set("datastore.backend", GetParam());
    cfg.set("datastore.root", dir_.string());
    cfg.set("datastore.servers", "4");
    store_ = make_store(cfg);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  DataStorePtr store_;
};

TEST_P(StoreConformance, BackendName) {
  EXPECT_EQ(store_->backend(), GetParam());
}

TEST_P(StoreConformance, PutGetRoundTrip) {
  store_->put("ns", "key", util::to_bytes("value"));
  EXPECT_EQ(util::to_string(store_->get("ns", "key")), "value");
}

TEST_P(StoreConformance, ExistsSemantics) {
  EXPECT_FALSE(store_->exists("ns", "nope"));
  store_->put("ns", "yes", util::to_bytes("x"));
  EXPECT_TRUE(store_->exists("ns", "yes"));
  EXPECT_FALSE(store_->exists("other", "yes"));  // namespaced
}

TEST_P(StoreConformance, GetMissingThrows) {
  EXPECT_THROW(store_->get("ns", "missing"), util::StoreError);
}

TEST_P(StoreConformance, OverwriteReplacesValue) {
  store_->put("ns", "k", util::to_bytes("old"));
  store_->put("ns", "k", util::to_bytes("new"));
  EXPECT_EQ(util::to_string(store_->get("ns", "k")), "new");
  EXPECT_EQ(store_->keys("ns", "*").size(), 1u);
}

TEST_P(StoreConformance, BinaryPayloadFidelity) {
  util::Rng rng(13);
  util::Bytes payload(4096);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  store_->put("bin", "blob", payload);
  EXPECT_EQ(store_->get("bin", "blob"), payload);
}

TEST_P(StoreConformance, EmptyPayload) {
  store_->put("ns", "empty", {});
  EXPECT_TRUE(store_->get("ns", "empty").empty());
  EXPECT_TRUE(store_->exists("ns", "empty"));
}

TEST_P(StoreConformance, KeysGlobFiltering) {
  for (int i = 0; i < 20; ++i)
    store_->put("frames", "frame-" + std::to_string(i), util::to_bytes("x"));
  store_->put("frames", "other", util::to_bytes("y"));
  EXPECT_EQ(store_->keys("frames", "*").size(), 21u);
  EXPECT_EQ(store_->keys("frames", "frame-*").size(), 20u);
  EXPECT_EQ(store_->keys("frames", "frame-1?").size(), 10u);
  EXPECT_TRUE(store_->keys("empty-ns", "*").empty());
}

TEST_P(StoreConformance, EraseRemovesFromListing) {
  store_->put("ns", "k", util::to_bytes("x"));
  EXPECT_TRUE(store_->erase("ns", "k"));
  EXPECT_FALSE(store_->erase("ns", "k"));
  EXPECT_FALSE(store_->exists("ns", "k"));
  EXPECT_TRUE(store_->keys("ns", "*").empty());
}

TEST_P(StoreConformance, MoveIsTheTaggingPrimitive) {
  store_->put("pending", "f1", util::to_bytes("data"));
  store_->move("pending", "f1", "done");
  EXPECT_FALSE(store_->exists("pending", "f1"));
  EXPECT_EQ(util::to_string(store_->get("done", "f1")), "data");
}

TEST_P(StoreConformance, MoveMissingThrows) {
  EXPECT_THROW(store_->move("pending", "ghost", "done"), util::StoreError);
}

TEST_P(StoreConformance, MoveManyScalesWithPendingOnly) {
  // The feedback pattern: pending namespace drains fully each iteration.
  for (int i = 0; i < 50; ++i)
    store_->put("pending", "f" + std::to_string(i), util::to_bytes("d"));
  for (const auto& key : store_->keys("pending", "*"))
    store_->move("pending", key, "done");
  EXPECT_TRUE(store_->keys("pending", "*").empty());
  EXPECT_EQ(store_->keys("done", "*").size(), 50u);
}

TEST_P(StoreConformance, TextConvenience) {
  store_->put_text("ns", "t", "hello text");
  EXPECT_EQ(store_->get_text("ns", "t"), "hello text");
}

TEST_P(StoreConformance, NpyConvenience) {
  const auto array = util::NpyArray::from_f32({2, 2}, {1, 2, 3, 4});
  store_->put("ns", "arr", util::npy_encode(array));
  const auto back = store_->get_npy("ns", "arr");
  EXPECT_EQ(back.shape, array.shape);
  EXPECT_EQ(back.f32, array.f32);
}

TEST_P(StoreConformance, ManyNamespacesIndependent) {
  for (int n = 0; n < 10; ++n)
    store_->put("ns" + std::to_string(n), "k",
                util::to_bytes(std::to_string(n)));
  for (int n = 0; n < 10; ++n)
    EXPECT_EQ(store_->get_text("ns" + std::to_string(n), "k"),
              std::to_string(n));
}

TEST_P(StoreConformance, FlushIsSafeAnytime) {
  store_->flush();
  store_->put("ns", "k", util::to_bytes("x"));
  store_->flush();
  EXPECT_TRUE(store_->exists("ns", "k"));
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreConformance,
                         ::testing::Values("filesystem", "taridx", "redis"),
                         [](const auto& info) { return info.param; });

TEST(StoreFactory, UnknownBackendThrows) {
  util::Config cfg;
  cfg.set("datastore.backend", "carrier-pigeon");
  EXPECT_THROW(make_store(cfg), util::ConfigError);
}

TEST(StoreFactory, MissingBackendThrows) {
  util::Config cfg;
  EXPECT_THROW(make_store(cfg), util::ConfigError);
}

TEST(FsStore, InodeCountAndArchivingContrast) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_inode_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    FsStore files((dir / "fs").string());
    TarStore tars((dir / "tar").string());
    for (int i = 0; i < 100; ++i) {
      files.put("ns", "k" + std::to_string(i), util::to_bytes("x"));
      tars.put("ns", "k" + std::to_string(i), util::to_bytes("x"));
    }
    tars.flush();
    // The inode-reduction argument of Sec. 4.2: N files vs 2 per namespace.
    EXPECT_EQ(files.inode_count(), 100u);
    EXPECT_EQ(tars.inode_count(), 2u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mummi::ds
