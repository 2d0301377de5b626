// ISSUE 10 acceptance: the campaign maintain tick's in-situ fan-out obeys
// the engines' bit-level discipline — CampaignResult::science_fingerprint()
// is byte-identical at any insitu_pool size, for plain, faulted+supervised,
// and checkpoint-resume campaigns alike.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "util/checkpoint.hpp"
#include "util/thread_pool.hpp"
#include "wm/campaign.hpp"

namespace mummi {
namespace {

wm::CampaignConfig plain_config() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 1}};
  cfg.proteins_per_snapshot = 10;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 99;
  return cfg;
}

wm::CampaignConfig faulted_config() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.supervise.enabled = true;
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.hang_burst = 2;
  cfg.faults.straggler_rate_per_h = 6.0;
  cfg.faults.straggler_burst = 2;
  cfg.faults.straggler_factor = 4.0;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;
  return cfg;
}

// 1,000 proteins per snapshot: several synthesis blocks with a ragged tail,
// so the snapshot tick's draws, transform and routing all cross block seams.
wm::CampaignConfig synthesis_config() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 1000;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 2021;
  cfg.checkpoint_interval_s = 600;
  return cfg;
}

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (name + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

// Runs `cfg` once per pool size {serial, 2, 4, 8} and asserts every
// fingerprint equals the serial one, byte for byte.
void expect_thread_sweep_identical(const wm::CampaignConfig& base) {
  wm::CampaignConfig cfg = base;
  cfg.insitu_pool = nullptr;
  const auto serial = wm::Campaign(cfg).run();
  const util::Bytes want = serial.science_fingerprint();
  EXPECT_GT(serial.analysis_frames, 0u);
  for (const std::size_t nthreads : {2u, 4u, 8u}) {
    util::ThreadPool pool(nthreads);
    cfg.insitu_pool = &pool;
    const auto result = wm::Campaign(cfg).run();
    EXPECT_EQ(result.science_fingerprint(), want)
        << "fingerprint diverged at " << nthreads << " threads";
    EXPECT_EQ(result.analysis_frames, serial.analysis_frames);
  }
}

TEST(ParallelCampaign, PlainFingerprintIdenticalAcrossPoolSizes) {
  expect_thread_sweep_identical(plain_config());
}

TEST(ParallelCampaign, FaultedSupervisedFingerprintIdenticalAcrossPoolSizes) {
  expect_thread_sweep_identical(faulted_config());
}

TEST(ParallelCampaign, CrashResumeFingerprintIdenticalAcrossPoolSizes) {
  // Crash mid-campaign, resume — on every pool size, including crashing on
  // one pool and resuming on another. All resumed fingerprints must match
  // the serial crash+resume run's: the in-situ accumulators ride the
  // checkpoint and the plane regenerates per-tick state statelessly.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_par_resume_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  wm::CampaignConfig base = plain_config();
  base.runs = {{20, 2, 1}};
  base.checkpoint_interval_s = 600;
  base.crash_at_campaign_h = 1.45;

  auto crash_and_resume = [&](const std::string& ckpt,
                              util::ThreadPool* crash_pool,
                              util::ThreadPool* resume_pool) {
    auto cfg = base;
    cfg.checkpoint_path = (dir / ckpt).string();
    cfg.insitu_pool = crash_pool;
    EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
    cfg.crash_at_campaign_h = 0;
    cfg.insitu_pool = resume_pool;
    const auto result = wm::Campaign(cfg).run();
    EXPECT_TRUE(result.resumed_from_checkpoint);
    return result.science_fingerprint();
  };

  const util::Bytes want = crash_and_resume("serial.ckpt", nullptr, nullptr);
  EXPECT_FALSE(want.empty());
  util::ThreadPool p2(2), p8(8);
  EXPECT_EQ(crash_and_resume("p2.ckpt", &p2, &p2), want);
  // Crash on 2 threads, resume on 8: pool size is invisible to the science.
  EXPECT_EQ(crash_and_resume("p2p8.ckpt", &p2, &p8), want);

  std::filesystem::remove_all(dir);
}

TEST(EnginePins, SnapshotSynthesisBytes) {
  // Snapshot synthesis at 1,000 proteins per snapshot: the checkpoint
  // payload of a crashed run (the campaign rng_ state rides it, spare
  // included) and the science fingerprint of its resume. Serial here; the
  // ParallelCampaign suite holds every pool size to these bytes.
  const auto dir = scratch_dir("mummi_synth_pin");
  wm::CampaignConfig cfg = synthesis_config();
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 1.45;
  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  const auto payload = util::CheckpointFile(cfg.checkpoint_path).load();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 2558128u);
  EXPECT_EQ(util::fnv1a(payload->data(), payload->size()),
            16666000491736848806ULL);

  cfg.crash_at_campaign_h = 0;
  const auto result = wm::Campaign(cfg).run();
  EXPECT_TRUE(result.resumed_from_checkpoint);
  const util::Bytes fp = result.science_fingerprint();
  EXPECT_EQ(fp.size(), 3612u);
  EXPECT_EQ(util::fnv1a(fp.data(), fp.size()), 17885858049185668540ULL);
  std::filesystem::remove_all(dir);
}

TEST(ParallelCampaign, SnapshotSynthesisIdenticalAcrossPoolSizes) {
  const auto dir = scratch_dir("mummi_synth_pools");
  wm::CampaignConfig cfg = synthesis_config();
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  const auto serial = wm::Campaign(cfg).run();
  EXPECT_GT(serial.patches_created, 50u * 1000u);
  const util::Bytes want = serial.science_fingerprint();
  for (const std::size_t nthreads : {2u, 3u, 4u}) {
    util::ThreadPool pool(nthreads);
    cfg.insitu_pool = &pool;
    EXPECT_EQ(wm::Campaign(cfg).run().science_fingerprint(), want)
        << "fingerprint diverged at " << nthreads << " threads";
  }
  std::filesystem::remove_all(dir);
}

TEST(ParallelCampaign, SnapshotSynthesisCrashOn2ResumeOn4) {
  // A checkpoint written on 2 workers resumes on 4 to the serial
  // crash+resume bytes.
  const auto dir = scratch_dir("mummi_synth_resume");
  auto crash_and_resume = [&](const std::string& ckpt,
                              util::ThreadPool* crash_pool,
                              util::ThreadPool* resume_pool) {
    wm::CampaignConfig cfg = synthesis_config();
    cfg.checkpoint_path = (dir / ckpt).string();
    cfg.crash_at_campaign_h = 1.45;
    cfg.insitu_pool = crash_pool;
    EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
    cfg.crash_at_campaign_h = 0;
    cfg.insitu_pool = resume_pool;
    const auto result = wm::Campaign(cfg).run();
    EXPECT_TRUE(result.resumed_from_checkpoint);
    return result.science_fingerprint();
  };
  const util::Bytes want = crash_and_resume("serial.ckpt", nullptr, nullptr);
  util::ThreadPool p2(2), p4(4);
  EXPECT_EQ(crash_and_resume("p2p4.ckpt", &p2, &p4), want);
  std::filesystem::remove_all(dir);
}

TEST(ParallelCampaign, InSituAccumulatorsPopulated) {
  const auto result = wm::Campaign(plain_config()).run();
  EXPECT_GT(result.analysis_frames, 0u);
  ASSERT_EQ(result.rdf_feedback.per_species.size(), 4u);
  std::uint64_t frames = 0;
  for (const auto& rdf : result.rdf_feedback.per_species) {
    EXPECT_EQ(rdf.nbins(), 16u);
    frames += rdf.frames();
  }
  // Every analyzed frame contributed to every species' accumulator.
  EXPECT_EQ(frames, 4u * result.analysis_frames);
}

// Threads of this process (Linux: one /proc/self/task entry per thread).
std::size_t process_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

TEST(ParallelCampaign, EnvSharedPoolPathMatchesExplicitPool) {
  // A null insitu_pool is serial: with the former MUMMI_POOL_SIZE switch
  // set, the campaign (in-situ tick and patch-selection refresh alike) still
  // starts no thread. An explicit pool then equals the serial path on a
  // second config/seed.
  wm::CampaignConfig cfg = plain_config();
  cfg.seed = 123;
  cfg.proteins_per_snapshot = 200;  // several refresh blocks per queue
  ::setenv("MUMMI_POOL_SIZE", "4", 1);
  const std::size_t threads_before = process_threads();
  const util::Bytes want = wm::Campaign(cfg).run().science_fingerprint();
  EXPECT_EQ(process_threads(), threads_before);
  ::unsetenv("MUMMI_POOL_SIZE");
  util::ThreadPool pool(3);  // odd size: chunk seams don't align with pool
  cfg.insitu_pool = &pool;
  EXPECT_EQ(wm::Campaign(cfg).run().science_fingerprint(), want);
}

}  // namespace
}  // namespace mummi
