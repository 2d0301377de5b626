// Resilience integration tests (paper Sec. 4.4): node drains, job failures
// with resubmission, checkpoint/restore of every stateful component, and a
// campaign under elevated failure rates.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>

#include <deque>

#include "continuum/gridsim2d.hpp"
#include "datastore/red_store.hpp"
#include "feedback/aa2cg.hpp"
#include "util/checkpoint.hpp"
#include "wm/campaign.hpp"
#include "wm/workflow_manager.hpp"

namespace mummi {
namespace {

TEST(Resilience, DrainedNodeKeepsRunningJobsButTakesNoNew) {
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::summit(2),
                             sched::MatchPolicy::kFirstMatch, clock);
  // Load node 0 fully.
  std::vector<sched::JobId> on_node0;
  for (int i = 0; i < 6; ++i)
    scheduler.submit(sched::JobSpec::gpu_sim("j", "cg_sim"));
  for (const auto id : scheduler.pump())
    if (scheduler.job(id).alloc.slots[0].node == 0) on_node0.push_back(id);
  ASSERT_FALSE(on_node0.empty());

  // The node "fails": drain it. Running jobs keep their resources.
  scheduler.drain_node(0);
  EXPECT_EQ(scheduler.state(on_node0[0]), sched::JobState::kRunning);

  // New work avoids the drained node entirely.
  for (int i = 0; i < 6; ++i)
    scheduler.submit(sched::JobSpec::gpu_sim("k", "cg_sim"));
  for (const auto id : scheduler.pump())
    EXPECT_EQ(scheduler.job(id).alloc.slots[0].node, 1);

  // After repair, the node serves again.
  for (const auto id : on_node0) scheduler.complete(id, false);
  scheduler.undrain_node(0);
  scheduler.submit(sched::JobSpec::gpu_sim("l", "cg_sim"));
  const auto started = scheduler.pump();
  ASSERT_FALSE(started.empty());
  EXPECT_EQ(scheduler.job(started[0]).alloc.slots[0].node, 0);
}

TEST(Resilience, CampaignSurvivesElevatedFailureRates) {
  wm::CampaignConfig cfg;
  cfg.runs = {{30, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.sim_failure_prob = 0.25;  // every fourth job crashes
  cfg.seed = 3;
  const auto result = wm::Campaign(cfg).run();
  // The workflow keeps making progress despite the failures...
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
  // ...and failed sims retain checkpointed progress (no negative/overshoot).
  for (double len : result.cg_lengths_us) {
    EXPECT_GE(len, 0.0);
    EXPECT_LE(len, cfg.cg_max_us + 1e-9);
  }
}

TEST(Resilience, ContinuumCheckpointIsArmored) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_resil_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "continuum.ckpt").string();

  cont::ContinuumConfig ccfg;
  ccfg.grid = 16;
  ccfg.extent = 32.0;
  ccfg.inner_species = 2;
  ccfg.outer_species = 1;
  ccfg.n_proteins = 2;
  cont::GridSim2D sim(ccfg);
  sim.step(5);
  util::CheckpointFile ckpt(path);
  ckpt.save(sim.serialize());
  sim.step(5);
  ckpt.save(sim.serialize());  // newest state; previous rotates to .bak

  // Torn write on the primary: restore falls back to the .bak (t = 0.25).
  util::write_file(path, util::to_bytes("short"));
  const auto payload = ckpt.load();
  ASSERT_TRUE(payload.has_value());
  cont::GridSim2D restored(ccfg);
  restored.restore(*payload);
  EXPECT_NEAR(restored.time_us(), 0.25, 1e-12);
  std::filesystem::remove_all(dir);
}

TEST(Resilience, SelectorStateRoundTripsThroughCheckpointFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_resil_sel_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  wm::PatchSelector selector(9, 5, 100);
  std::vector<ml::HDPoint> pts;
  for (int i = 0; i < 40; ++i) {
    ml::HDPoint p;
    p.id = static_cast<ml::PointId>(i + 1);
    p.coords.assign(9, 0.25f * static_cast<float>(i % 7));
    pts.push_back(std::move(p));
  }
  selector.add(2, ml::PointStore::from_points(pts, selector.dim()));
  (void)selector.select(6);

  util::CheckpointFile ckpt((dir / "selector.ckpt").string());
  util::ByteWriter state;
  selector.serialize(state);
  ckpt.save(state.data());

  wm::PatchSelector restored(9, 5, 100);
  const auto loaded = ckpt.load();
  ASSERT_TRUE(loaded.has_value());
  util::ByteReader r(*loaded);
  restored.restore(r);
  EXPECT_EQ(restored.candidate_count(), selector.candidate_count());
  EXPECT_EQ(restored.selected_count(), selector.selected_count());
  // Identical future behaviour.
  for (int i = 0; i < 4; ++i) {
    const auto a = selector.select(1);
    const auto b = restored.select(1);
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(a[0].point.id, b[0].point.id);
    }
  }
  std::filesystem::remove_all(dir);
}

wm::CampaignConfig small_faulted_config() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 2}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.faults.node_crash_rate_per_h = 8.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;
  return cfg;
}

TEST(Resilience, FaultedCampaignIsDeterministic) {
  // Acceptance (a): same seed + same fault plan => bit-identical results.
  const auto cfg = small_faulted_config();
  const auto a = wm::Campaign(cfg).run();
  const auto b = wm::Campaign(cfg).run();
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.patches_selected, 0u);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.fault_jobs_killed, b.fault_jobs_killed);
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.patches_created, b.patches_created);
  EXPECT_EQ(a.patches_selected, b.patches_selected);
  EXPECT_EQ(a.frames_selected, b.frames_selected);
  EXPECT_EQ(a.cg_total_us, b.cg_total_us);  // bitwise, not approximate
  EXPECT_EQ(a.aa_total_ns, b.aa_total_ns);
  EXPECT_EQ(a.cg_lengths_us, b.cg_lengths_us);
  EXPECT_EQ(a.continuum_total_us, b.continuum_total_us);
}

TEST(Resilience, CampaignRejectsInvalidFaultSpec) {
  // A negative mean downtime drops every node recovery; a NaN rate silently
  // disables its class. The constructor refuses both before any run.
  auto cfg = small_faulted_config();
  cfg.faults.node_down_mean_s = -300.0;
  EXPECT_THROW(wm::Campaign{cfg}, util::ConfigError);
  cfg = small_faulted_config();
  cfg.faults.job_hang_rate_per_h = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(wm::Campaign{cfg}, util::ConfigError);
}

TEST(Resilience, CampaignAbsorbsNodeCrashes) {
  // Acceptance (d), campaign level: node crashes kill running jobs; the
  // trackers resubmit them and the campaign keeps producing science.
  auto cfg = small_faulted_config();
  cfg.faults.node_crash_rate_per_h = 12.0;
  const auto result = wm::Campaign(cfg).run();
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.fault_jobs_killed, 0u);
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
}

TEST(Resilience, CrashRestartResumesFromCheckpoint) {
  // Acceptance (b): a mid-campaign crash, then a fresh Campaign resumes from
  // the periodic checkpoint and completes.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_crash_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt_path = (dir / "campaign.ckpt").string();

  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = ckpt_path;
  // Not a checkpoint multiple: the crash lands between two ticks.
  cfg.crash_at_campaign_h = 1.45;

  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  EXPECT_TRUE(std::filesystem::exists(ckpt_path));

  auto resume_cfg = cfg;
  resume_cfg.crash_at_campaign_h = 0;  // the "restarted" coordination process
  const auto result = wm::Campaign(resume_cfg).run();
  EXPECT_TRUE(result.resumed_from_checkpoint);
  EXPECT_GT(result.checkpoints_written, 0u);
  // Pre-crash progress was not lost: the resumed result carries the
  // accumulated counters past what the post-crash tail alone could produce.
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.snapshots, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
  // Success clears the checkpoint so the next campaign starts fresh.
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  std::filesystem::remove_all(dir);
}

// Offsets of every list count and byte-string length in a campaign
// checkpoint payload (format v4: checkpoint_fields in wm/campaign.cpp). The
// walk must consume the payload exactly, which pins the layout.
std::vector<std::size_t> campaign_checkpoint_counts(
    const util::Bytes& payload) {
  util::ByteReader r(payload);
  std::vector<std::size_t> counts;
  auto skip = [&](std::uint64_t n) {
    util::Bytes sink(n);
    r.raw(sink.data(), sink.size());
  };
  auto list = [&](std::uint64_t elem_bytes) {  // fixed-size elements
    counts.push_back(payload.size() - r.remaining());
    skip(r.u64() * elem_bytes);
  };
  EXPECT_EQ(r.u32(), 4u);                  // version
  skip(8 + 8 + 4 * 8 + 1 + 8 + 2 * 8);     // run, offset, rng, next ids
  list(8 + 1 + 4 * 8);                     // logical sims
  for (int i = 0; i < 4; ++i) list(8);     // in-flight payloads
  skip(6 * 8 + 7 * 8);                     // totals, data ledger
  for (int i = 0; i < 3; ++i) list(8);     // lengths, continuum ms/day
  for (int i = 0; i < 2; ++i) list(16);    // perf samples
  skip(2 * 8);                             // checkpoints, analysis frames
  list(1);                                 // RDF feedback
  for (int i = 0; i < 2; ++i) {            // finished runs, interrupted run
    skip(2 * 8 + 11 * 8);                  // fault counts, supervision stats
    counts.push_back(payload.size() - r.remaining());
    const std::uint64_t n = r.u64();       // decision log
    for (std::uint64_t j = 0; j < n; ++j) (void)r.str();
  }
  list(1);                                 // WM section
  EXPECT_TRUE(r.at_end());
  return counts;
}

TEST(Resilience, HostileCampaignCheckpointIsRejected) {
  // A crash leaves a real checkpoint. Each mutation is re-saved through
  // CheckpointFile, so the frame checksum holds and only the campaign reader
  // stands between forged bytes and the allocator: every case must end in
  // util::Error, never std::bad_alloc or std::length_error.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_hostile_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 13;
  cfg.supervise.enabled = true;
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.seed = 5;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 1.45;
  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  cfg.crash_at_campaign_h = 0;

  const util::CheckpointFile file(cfg.checkpoint_path);
  const auto loaded = file.load();
  ASSERT_TRUE(loaded.has_value());
  const util::Bytes payload = *loaded;
  const auto counts = campaign_checkpoint_counts(payload);
  EXPECT_EQ(counts.size(), 14u);

  auto expect_rejected = [&](const util::Bytes& forged,
                             const std::string& what) {
    file.save(forged);
    EXPECT_THROW(wm::Campaign(cfg).run(), util::Error) << what;
  };
  for (const std::size_t at : counts) {
    util::Bytes forged = payload;
    const std::uint64_t huge = 1ULL << 40;
    std::memcpy(forged.data() + at, &huge, sizeof huge);
    expect_rejected(forged, "count at byte " + std::to_string(at));
  }
  // The resume position: the flat run index (byte 4) must name a run of the
  // one-run schedule, and the seconds into it (byte 12) must lie inside its
  // 2 h walltime.
  auto with = [&](std::size_t at, auto value) {
    util::Bytes forged = payload;
    std::memcpy(forged.data() + at, &value, sizeof value);
    return forged;
  };
  expect_rejected(with(4, std::uint64_t{1}), "resume run past the schedule");
  expect_rejected(with(12, -3600.0), "resume time before the run");
  expect_rejected(with(12, 3 * 2 * 3600.0), "resume time 3x the walltime");
  expect_rejected(with(12, std::numeric_limits<double>::quiet_NaN()),
                  "resume time NaN");
  expect_rejected(with(12, std::numeric_limits<double>::infinity()),
                  "resume time infinite");
  util::Bytes appended = payload;
  appended.push_back(0);
  expect_rejected(appended, "one trailing byte");
  for (std::size_t k = 0; k < 16; ++k) {
    const std::size_t len = payload.size() * k / 16;
    expect_rejected(util::Bytes(payload.begin(), payload.begin() + len),
                    "truncated to " + std::to_string(len) + " bytes");
  }
  expect_rejected(util::Bytes(payload.begin(), payload.end() - 1),
                  "last byte cut");
  std::filesystem::remove_all(dir);
}

TEST(Resilience, CheckpointIntervalWithoutPathRejected) {
  // A checkpoint cadence with nowhere to write would silently run without
  // crash recovery; the constructor refuses it instead.
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 1}};
  cfg.checkpoint_interval_s = 600;
  EXPECT_THROW(wm::Campaign{cfg}, util::ConfigError);
  cfg.checkpoint_path = "campaign.ckpt";
  EXPECT_NO_THROW(wm::Campaign{cfg});
  cfg.checkpoint_interval_s = 0;
  cfg.checkpoint_path.clear();
  EXPECT_NO_THROW(wm::Campaign{cfg});
}

TEST(CampaignCheckpoint, PayloadBytesArePinned) {
  // The checkpoint payload of one fixed crashed campaign, frame header
  // stripped by load(). Supervision, faults and poison work fill every
  // section (selectors, quarantine ledger, decision log), so a change to how
  // any of them is encoded, or to the order they are written in, fails here.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_pinned_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 17;
  cfg.supervise.enabled = true;
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.seed = 5;
  cfg.poison_payload_modulus = 3;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 1.45;
  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);

  const auto payload = util::CheckpointFile(cfg.checkpoint_path).load();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 40834u);
  EXPECT_EQ(util::fnv1a(payload->data(), payload->size()),
            13333447824592527619ULL);
  std::filesystem::remove_all(dir);
}

TEST(Resilience, ProducerConsumerDecoupling) {
  // "if the data producer fails, the consumer components simply wait ...
  // if a consumer fails, the unconsumed data simply aggregates."
  auto store = std::make_shared<ds::RedStore>(2);
  fb::Aa2CgConfig cfg;
  cfg.pool_size = 2;
  fb::AaToCgFeedback consumer(store, cfg);

  // Consumer runs with no producer: clean no-op.
  EXPECT_EQ(consumer.iterate().frames, 0u);

  // Producer floods while the consumer is "down"; data aggregates.
  for (int i = 0; i < 500; ++i)
    store->put_text("ss-pending", "f" + std::to_string(i), "HHHC");
  EXPECT_EQ(store->keys("ss-pending", "*").size(), 500u);

  // Consumer comes back and drains everything in one iteration.
  EXPECT_EQ(consumer.iterate().frames, 500u);
  EXPECT_TRUE(store->keys("ss-pending", "*").empty());
}

}  // namespace
}  // namespace mummi
