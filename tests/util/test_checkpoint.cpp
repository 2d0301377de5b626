#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "fault/crash_point.hpp"

namespace mummi::util {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mummi_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  CheckpointFile ckpt(path("state"));
  const Bytes payload = to_bytes("workflow state v1");
  ckpt.save(payload);
  const auto loaded = ckpt.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
}

TEST_F(CheckpointTest, MissingReturnsNullopt) {
  CheckpointFile ckpt(path("absent"));
  EXPECT_FALSE(ckpt.load().has_value());
  EXPECT_FALSE(ckpt.exists());
}

TEST_F(CheckpointTest, OverwriteKeepsBackup) {
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("v1"));
  ckpt.save(to_bytes("v2"));
  EXPECT_EQ(to_string(*ckpt.load()), "v2");
  EXPECT_TRUE(std::filesystem::exists(path("state") + ".bak"));
}

TEST_F(CheckpointTest, CorruptPrimaryFallsBackToBackup) {
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("good-old"));
  ckpt.save(to_bytes("good-new"));
  // Corrupt the primary in place (torn write).
  {
    std::ofstream out(path("state"), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  const auto loaded = ckpt.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(to_string(*loaded), "good-old");
}

TEST_F(CheckpointTest, CorruptNewestWithIntactHeaderFallsBack) {
  // Unlike a torn primary, this one keeps a valid header that outranks the
  // .bak, so load() must reach the payload check and reject it there.
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("good-old"));
  ckpt.save(to_bytes("good-new"));
  auto raw = *read_file(path("state"));
  raw[32] ^= 0x01;  // first payload byte
  write_file(path("state"), raw);
  const auto loaded = ckpt.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(to_string(*loaded), "good-old");
}

TEST_F(CheckpointTest, ForgedGenerationCannotOutrankNewerFrame) {
  // The checksum covers the generation: a stale .bak whose generation field
  // is rewritten must fail validation, not win load() with old state.
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("v1"));
  ckpt.save(to_bytes("v2"));
  auto raw = *read_file(path("state") + ".bak");
  const std::uint64_t forged = 1ULL << 40;
  std::memcpy(raw.data() + 8, &forged, sizeof forged);
  write_file(path("state") + ".bak", raw);
  EXPECT_EQ(to_string(*CheckpointFile(path("state")).load()), "v2");
}

TEST_F(CheckpointTest, ChecksumDetectsBitFlip) {
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("payload-bytes-here"));
  // Flip one payload byte.
  auto raw = *read_file(path("state"));
  raw[raw.size() - 3] ^= 0xff;
  write_file(path("state"), raw);
  // No backup exists from a single save; load must reject the primary.
  EXPECT_FALSE(ckpt.load().has_value());
}

TEST_F(CheckpointTest, EmptyPayload) {
  CheckpointFile ckpt(path("state"));
  ckpt.save({});
  const auto loaded = ckpt.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(CheckpointTest, RemoveDeletesEverything) {
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("a"));
  ckpt.save(to_bytes("b"));
  ckpt.remove();
  EXPECT_FALSE(ckpt.exists());
  EXPECT_FALSE(ckpt.load().has_value());
}

TEST_F(CheckpointTest, ReadWriteFileHelpers) {
  const Bytes data = to_bytes("helper data");
  write_file(path("f"), data);
  EXPECT_EQ(*read_file(path("f")), data);
  EXPECT_FALSE(read_file(path("nope")).has_value());
  EXPECT_TRUE(remove_file(path("f")));
  EXPECT_FALSE(remove_file(path("f")));
}

TEST_F(CheckpointTest, MakeDirsNested) {
  make_dirs(path("a/b/c"));
  EXPECT_TRUE(std::filesystem::is_directory(path("a/b/c")));
  make_dirs(path("a/b/c"));  // idempotent
}

TEST_F(CheckpointTest, ReadFileOnDirectoryReturnsNullopt) {
  // Regression: tellg() reports -1 for an unseekable stream (a directory
  // opens fine on Linux); the unchecked cast turned that into a ~2^64
  // allocation attempt instead of a clean miss.
  make_dirs(path("a_dir"));
  EXPECT_FALSE(read_file(path("a_dir")).has_value());
}

TEST_F(CheckpointTest, LoadPrefersHighestGeneration) {
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("gen1"));
  ckpt.save(to_bytes("gen2"));
  // Primary holds gen2, .bak holds gen1; newest wins even if we swap them
  // (a rename shuffle a crashed rotation could leave behind).
  std::filesystem::rename(path("state"), path("state") + ".swap");
  std::filesystem::rename(path("state") + ".bak", path("state"));
  std::filesystem::rename(path("state") + ".swap", path("state") + ".bak");
  EXPECT_EQ(to_string(*ckpt.load()), "gen2");
}

TEST_F(CheckpointTest, GenerationsResumeMonotoneAcrossFreshHandles) {
  {
    CheckpointFile ckpt(path("state"));
    ckpt.save(to_bytes("a"));
    ckpt.save(to_bytes("b"));
  }
  // A restarted process gets a fresh handle; its first save must outrank
  // everything already on disk, including the .bak.
  CheckpointFile fresh(path("state"));
  fresh.save(to_bytes("c"));
  std::filesystem::remove(path("state"));
  // Even with the new primary gone, the freshest surviving candidate is the
  // .bak from the third save (gen 2, payload "b").
  EXPECT_EQ(to_string(*CheckpointFile(path("state")).load()), "b");
}

TEST_F(CheckpointTest, CrashAfterBakRotationRecoversNewestFromTmp) {
  // Regression for the lost-newest-checkpoint window: save() rotates the
  // primary to .bak before renaming .tmp into place. A crash between the two
  // renames used to fall back to the *older* .bak even though the newest
  // complete frame sat fully written in .tmp.
  CheckpointFile ckpt(path("state"));
  ckpt.save(to_bytes("old"));
  fault::ScopedCrashHarness harness;
  harness.registry().arm("ckpt.save.post_bak");
  EXPECT_THROW(ckpt.save(to_bytes("new")), fault::SimulatedCrash);
  // Simulated restart: a fresh handle over the crashed on-disk state.
  const auto recovered = CheckpointFile(path("state")).load();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(to_string(*recovered), "new");
}

TEST_F(CheckpointTest, CrashSweepRecoversOldOrNewNeverTorn) {
  // Every boundary on the save path: crashing before the .tmp frame is
  // complete must recover the previous generation; crashing after must
  // recover the new one. Nothing in between, ever.
  struct Case {
    const char* point;
    const char* expect;  // payload a fresh handle must load after the crash
  };
  const Case cases[] = {
      {"ckpt.save.pre_tmp", "old"},   {"util.write_file.pre", "old"},
      {"util.write_file.mid", "old"}, {"ckpt.save.post_tmp", "new"},
      {"ckpt.save.post_bak", "new"},  {"ckpt.save.post_rename", "new"},
  };
  for (const auto& c : cases) {
    const std::string p = path(std::string("state_") + c.point);
    CheckpointFile ckpt(p);
    ckpt.save(to_bytes("old"));
    {
      fault::ScopedCrashHarness harness;
      harness.registry().arm(c.point);
      EXPECT_THROW(ckpt.save(to_bytes("new")), fault::SimulatedCrash)
          << c.point;
    }
    const auto recovered = CheckpointFile(p).load();
    ASSERT_TRUE(recovered.has_value()) << c.point;
    EXPECT_EQ(to_string(*recovered), c.expect) << c.point;
    // The survivor must also accept further saves (generations monotone).
    CheckpointFile after(p);
    after.save(to_bytes("after"));
    EXPECT_EQ(to_string(*CheckpointFile(p).load()), "after") << c.point;
  }
}

}  // namespace
}  // namespace mummi::util
