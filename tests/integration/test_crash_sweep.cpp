// Campaign crash-point sweep (the tentpole acceptance test): kill a faulted,
// checkpointed campaign at every persistence boundary on its checkpoint
// path, resume it, and prove the science comes back intact.
//
// What "intact" means — and deliberately does not mean. The simulator does
// not checkpoint engine/scheduler internals, and a resumed campaign redraws
// its fault plan over the *remaining* walltime, so a resumed run is not
// byte-identical to an uninterrupted one and cannot be. What the durability
// contract (DESIGN.md 4i) does promise is that every crash point maps to a
// definite recovered checkpoint generation:
//   - "pre" group (crash before the new frame is complete): the campaign
//     resumes from generation k-1;
//   - "post" group (crash once the new frame is durable): it resumes from
//     generation k.
// All resumes within a group therefore recover the *same* durable state and,
// being deterministic, must produce byte-identical science fingerprints.
// Zero divergence within each group is the sweep's pass condition; the
// pre-fix post_bak bug (load() preferring the stale .bak over the fully
// written .tmp) shows up here as a post-group divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fault/crash_point.hpp"
#include "util/rng.hpp"
#include "wm/campaign.hpp"

namespace fs = std::filesystem;

namespace mummi {
namespace {

// Boundaries on the campaign checkpoint path, by durability outcome at the
// same tick k. Each fires exactly once per checkpoint tick, so "nth hit = k"
// selects the same tick for every point.
const std::vector<std::string> kPreGroup = {
    "wm.checkpoint.pre",   "supervise.ledger.serialize",
    "ckpt.save.pre_tmp",   "util.write_file.pre",
    "util.write_file.mid",
};
const std::vector<std::string> kPostGroup = {
    "util.write_file.post", "ckpt.save.post_tmp",
    "ckpt.save.post_bak",   "ckpt.save.post_rename",
    "wm.checkpoint.post",
};

wm::CampaignConfig sweep_config(const std::string& ckpt_path) {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.faults.node_crash_rate_per_h = 8.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = ckpt_path;
  return cfg;
}

TEST(CrashSweep, EveryPersistenceBoundaryRecoversWithinItsDurabilityGroup) {
  const auto dir = fs::temp_directory_path() /
                   ("mummi_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  // --- observe pass: which points fire, and how often -----------------------
  fault::ScopedCrashHarness harness;
  auto& reg = harness.registry();
  {
    auto cfg = sweep_config((dir / "observe.ckpt").string());
    const auto result = wm::Campaign(cfg).run();
    ASSERT_GT(result.checkpoints_written, 2u);
  }
  const auto observed = reg.hit_counts();

  // Coverage: the sweep must not silently skip an instrumented boundary.
  // Each checkpoint-path point fires once per tick, so one nth selects the
  // same tick across all of them.
  const std::uint64_t ticks = observed.count("wm.checkpoint.pre")
                                  ? observed.at("wm.checkpoint.pre")
                                  : 0;
  ASSERT_GE(ticks, 2u);
  for (const auto& group : {kPreGroup, kPostGroup})
    for (const auto& point : group) {
      ASSERT_TRUE(observed.count(point)) << "never observed: " << point;
      EXPECT_EQ(observed.at(point), ticks) << point;
    }

  // ...and every registered name must be a known one (catches typos between
  // instrumentation sites and the kCrashPoints roster).
  for (const auto& [point, _] : observed)
    EXPECT_NE(std::find_if(std::begin(fault::kCrashPoints),
                           std::end(fault::kCrashPoints),
                           [&](const char* p) { return point == p; }),
              std::end(fault::kCrashPoints))
        << "unregistered crash point: " << point;

  // --- sweep: crash at tick k at every point, resume, fingerprint -----------
  // Pick the tick with a seeded draw over [2, ticks] (tick 1 has no previous
  // generation to fall back to, which is a different — also covered —
  // scenario than the steady-state one this sweep locks down).
  util::Rng rng(0xfeed5eed);
  const std::uint64_t k = 2 + rng.uniform_index(ticks - 1);

  std::map<std::string, util::Bytes> fingerprints;
  int run_idx = 0;
  for (const auto& group : {kPreGroup, kPostGroup})
    for (const auto& point : group) {
      const std::string ckpt =
          (dir / ("sweep_" + std::to_string(run_idx++) + ".ckpt")).string();
      auto cfg = sweep_config(ckpt);
      reg.reset();
      reg.arm(point, k);
      EXPECT_THROW((void)wm::Campaign(cfg).run(), wm::SimulatedCrash)
          << point;
      ASSERT_TRUE(reg.fired()) << point;
      reg.disarm();
      // The restarted coordination process: same config, fresh Campaign.
      const auto result = wm::Campaign(cfg).run();
      EXPECT_TRUE(result.resumed_from_checkpoint) << point;
      EXPECT_GT(result.patches_selected, 0u) << point;
      fingerprints[point] = result.science_fingerprint();
    }

  // --- verdict: zero divergence within each durability group ----------------
  for (const auto& group : {kPreGroup, kPostGroup}) {
    const auto& reference = fingerprints.at(group.front());
    EXPECT_FALSE(reference.empty());
    for (const auto& point : group)
      EXPECT_EQ(fingerprints.at(point), reference)
          << point << " diverged from " << group.front();
  }

  fs::remove_all(dir);
}

TEST(CrashSweep, CrashBeforeFirstCheckpointRestartsFresh) {
  // Tick-1 pre-group crash: no previous generation exists. The restart must
  // come up from scratch (not resume) and still complete.
  const auto dir = fs::temp_directory_path() /
                   ("mummi_sweep_first_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto cfg = sweep_config((dir / "first.ckpt").string());
  fault::ScopedCrashHarness harness;
  harness.registry().arm("ckpt.save.pre_tmp", 1);
  EXPECT_THROW((void)wm::Campaign(cfg).run(), wm::SimulatedCrash);
  harness.registry().disarm();
  const auto result = wm::Campaign(cfg).run();
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_GT(result.patches_selected, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mummi
