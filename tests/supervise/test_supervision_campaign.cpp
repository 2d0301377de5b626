// Campaign-level supervision plane (ISSUE 6 acceptance):
//   - supervised faulted campaigns are bit-for-bit deterministic, decision
//     log included;
//   - the hang watchdog recovers throughput a hang-heavy plan destroys;
//   - the poison-quarantine ledger survives a mid-campaign crash + resume;
//   - an enabled-but-idle supervisor changes nothing: zero counters, empty
//     log, figure outputs identical to an unsupervised run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "wm/campaign.hpp"

namespace mummi {
namespace {

wm::CampaignConfig supervised_base() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.supervise.enabled = true;
  return cfg;
}

TEST(SupervisedCampaign, FaultedSupervisedCampaignIsDeterministic) {
  // cg_setup: mean 900, sigma 225 -> soft 2700 s, hard 4950 s; both inside
  // the 2 h walltime, so hangs are reclaimed and 4x stragglers twinned.
  auto cfg = supervised_base();
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.hang_burst = 2;
  cfg.faults.straggler_rate_per_h = 6.0;
  cfg.faults.straggler_burst = 2;
  cfg.faults.straggler_factor = 4.0;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;

  const auto a = wm::Campaign(cfg).run();
  const auto b = wm::Campaign(cfg).run();

  // The supervisor actually had work to do.
  EXPECT_GT(a.supervision.hangs_detected + a.supervision.speculations, 0u);
  EXPECT_FALSE(a.supervision_log.empty());

  // Bit-identical decisions and outcomes.
  EXPECT_EQ(a.supervision_log, b.supervision_log);
  EXPECT_EQ(a.supervision.hangs_detected, b.supervision.hangs_detected);
  EXPECT_EQ(a.supervision.speculations, b.supervision.speculations);
  EXPECT_EQ(a.supervision.spec_wins, b.supervision.spec_wins);
  EXPECT_EQ(a.supervision.spec_losses, b.supervision.spec_losses);
  EXPECT_EQ(a.supervision.quarantined, b.supervision.quarantined);
  EXPECT_EQ(a.supervision.node_probations, b.supervision.node_probations);
  EXPECT_EQ(a.quarantined, b.quarantined);

  // ...and bit-identical science, the same bar the unsupervised
  // determinism test sets.
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.patches_selected, b.patches_selected);
  EXPECT_EQ(a.frames_selected, b.frames_selected);
  EXPECT_EQ(a.cg_total_us, b.cg_total_us);
  EXPECT_EQ(a.aa_total_ns, b.aa_total_ns);
  EXPECT_EQ(a.cg_lengths_us, b.cg_lengths_us);
}

TEST(SupervisedCampaign, WatchdogRecoversThroughputLostToHangs) {
  // Hang-heavy plan on a small, core-constrained cluster, tuned so hangs
  // actually bite: fast setups on BOTH pipelines (mean 300 s -> hard
  // deadline 1650 s, well inside the 3 h walltime; the 7200 s backmap
  // default would push aa_setup deadlines past the allocation) and short cg
  // sims so GPU slots churn and every starved setup costs sim starts.
  // Unsupervised, each hung setup pins its cores forever; supervised, the
  // watchdog reclaims and resubmits at the hard deadline. Speculation is
  // off: with cores this scarce a twin just queues behind the hang it is
  // meant to beat.
  wm::CampaignConfig cfg;
  cfg.runs = {{4, 3, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 300;
  cfg.perf.backmap_mean_s = 300;
  cfg.cg_min_us = 0.05;
  cfg.cg_mean_us = 0.08;
  cfg.cg_max_us = 0.10;
  cfg.seed = 11;
  cfg.faults.job_hang_rate_per_h = 6.0;
  cfg.faults.seed = 9;

  auto unsup_cfg = cfg;
  const auto unsupervised = wm::Campaign(unsup_cfg).run();
  EXPECT_EQ(unsupervised.supervision.hangs_detected, 0u);
  EXPECT_TRUE(unsupervised.supervision_log.empty());

  cfg.supervise.enabled = true;
  cfg.supervise.speculate = false;
  const auto supervised = wm::Campaign(cfg).run();
  EXPECT_GT(supervised.supervision.hangs_detected, 0u);
  EXPECT_GT(supervised.cg_lengths_us.size(), unsupervised.cg_lengths_us.size());

  // Same fault plan, same seed: the only difference is the watchdog — and
  // it buys real goodput back.
  EXPECT_GT(supervised.cg_total_us, unsupervised.cg_total_us);
}

TEST(SupervisedCampaign, QuarantineLedgerSurvivesCrashAndResume) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_quar_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  // Every third patch is poison: its cg_setup fails deterministically on
  // any node, striking the ledger until quarantine.
  auto cfg = supervised_base();
  cfg.poison_payload_modulus = 3;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 1.45;

  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  ASSERT_TRUE(std::filesystem::exists(cfg.checkpoint_path));

  auto resume_cfg = cfg;
  resume_cfg.crash_at_campaign_h = 0;
  const auto result = wm::Campaign(resume_cfg).run();
  EXPECT_TRUE(result.resumed_from_checkpoint);

  // The ledger rode the checkpoint: quarantines from before the crash are
  // still present (the restored stats prove they happened pre-crash), and
  // every quarantined key is a poison payload of the poisoned type.
  EXPECT_GT(result.supervision.quarantined, 0u);
  EXPECT_GE(result.supervision.first_quarantine_s, 0.0);
  EXPECT_LT(result.supervision.first_quarantine_s, 1.45 * 3600.0);
  ASSERT_FALSE(result.quarantined.empty());
  for (const auto& key : result.quarantined) {
    ASSERT_EQ(key.rfind("cg_setup:", 0), 0u) << key;
    const std::uint64_t payload = std::stoull(key.substr(9));
    EXPECT_NE(payload, 0u);
    EXPECT_EQ(payload % 3, 0u) << key;
  }
  // Pre-crash decision-log lines were restored along with the ledger.
  bool has_precrash_line = false;
  for (const auto& line : result.supervision_log)
    if (line.find("quarantine") != std::string::npos) has_precrash_line = true;
  EXPECT_TRUE(has_precrash_line);

  std::filesystem::remove_all(dir);
}

TEST(SupervisedCampaign, IdleSupervisorChangesNothing) {
  // Zero faults, zero failures: the supervision plane must be a pure
  // observer — identical figure outputs, all counters zero, empty log.
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 2}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.sim_failure_prob = 0.0;
  cfg.seed = 11;

  const auto baseline = wm::Campaign(cfg).run();
  cfg.supervise.enabled = true;
  const auto supervised = wm::Campaign(cfg).run();

  EXPECT_EQ(supervised.supervision.hangs_detected, 0u);
  EXPECT_EQ(supervised.supervision.speculations, 0u);
  EXPECT_EQ(supervised.supervision.quarantined, 0u);
  EXPECT_EQ(supervised.supervision.node_probations, 0u);
  EXPECT_TRUE(supervised.supervision_log.empty());
  EXPECT_TRUE(supervised.quarantined.empty());

  EXPECT_EQ(supervised.snapshots, baseline.snapshots);
  EXPECT_EQ(supervised.patches_created, baseline.patches_created);
  EXPECT_EQ(supervised.patches_selected, baseline.patches_selected);
  EXPECT_EQ(supervised.frames_selected, baseline.frames_selected);
  EXPECT_EQ(supervised.cg_total_us, baseline.cg_total_us);
  EXPECT_EQ(supervised.aa_total_ns, baseline.aa_total_ns);
  EXPECT_EQ(supervised.cg_lengths_us, baseline.cg_lengths_us);
  EXPECT_EQ(supervised.aa_lengths_ns, baseline.aa_lengths_ns);
  EXPECT_EQ(supervised.continuum_total_us, baseline.continuum_total_us);
}

}  // namespace
}  // namespace mummi
