// Supervisor decision logic against a real scheduler and a scripted workload
// control: hang watchdog, speculative twins and node probation — plus the
// byte-identical decision log two identical runs produce.
#include "supervise/supervisor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace mummi {
namespace {

using sched::JobId;
using sched::JobSpec;
using sched::JobState;

/// Scripted WorkloadControl: records every request; optionally carries out
/// speculative/canary submissions against the real scheduler (like the WM).
class FakeControl : public supervise::WorkloadControl {
 public:
  explicit FakeControl(sched::Scheduler* scheduler, int strikes = 3)
      : scheduler_(scheduler), ledger_(strikes) {}

  void resubmit_hung(const sched::Job& job) override {
    hung_payloads.push_back(job.spec.payload);
  }

  bool launch_speculative(const sched::Job& job) override {
    if (!allow_speculation) return false;
    JobSpec spec = job.spec;
    spec.twin_of = job.id;
    last_twin = scheduler_->submit(std::move(spec));
    scheduler_->pump();
    return true;
  }

  bool submit_canary(int node) override {
    if (!allow_canaries) return false;
    JobSpec spec;
    spec.name = "canary";
    spec.type = "canary";
    spec.request.slot = sched::Slot{1, 0};
    spec.request.pin_node = node;
    spec.est_duration = 60.0;
    spec.canary_node = node;
    last_canary = scheduler_->submit(std::move(spec));
    scheduler_->pump();
    return true;
  }

  supervise::QuarantineLedger& quarantine() override { return ledger_; }

  bool allow_speculation = true;
  bool allow_canaries = true;
  std::vector<std::uint64_t> hung_payloads;
  JobId last_twin = sched::kInvalidJob;
  JobId last_canary = sched::kInvalidJob;

 private:
  sched::Scheduler* scheduler_;
  supervise::QuarantineLedger ledger_;
};

supervise::SuperviseConfig test_cfg() {
  supervise::SuperviseConfig cfg;
  cfg.enabled = true;
  cfg.node_health.failure_threshold = 3;
  cfg.node_health.window_s = 1000.0;
  cfg.node_health.probation_s = 100.0;
  return cfg;
}

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest()
      : scheduler_(sched::ClusterSpec::summit(2),
                   sched::MatchPolicy::kFirstMatch, clock_),
        control_(&scheduler_),
        supervisor_(scheduler_, clock_, control_, test_cfg()) {
    // mean 100, sigma 10: soft deadline 240, hard deadline 460.
    supervisor_.set_timing("cg_sim", {100.0, 10.0});
    supervisor_.set_timing("canary", {60.0, 0.0});
  }

  JobId start_sim(std::uint64_t payload) {
    JobSpec spec = JobSpec::gpu_sim("s", "cg_sim");
    spec.est_duration = 100.0;
    spec.payload = payload;
    const JobId id = scheduler_.submit(std::move(spec));
    scheduler_.pump();
    return id;
  }

  util::ManualClock clock_;
  sched::Scheduler scheduler_;
  FakeControl control_;
  supervise::Supervisor supervisor_;
};

TEST_F(WatchdogTest, HangPastHardDeadlineIsCancelledAndResubmitted) {
  const JobId id = start_sim(77);
  ASSERT_EQ(scheduler_.state(id), JobState::kRunning);

  control_.allow_speculation = false;
  clock_.advance(400.0);  // past soft (240), under hard (460)
  supervisor_.tick(clock_.now());
  EXPECT_EQ(scheduler_.state(id), JobState::kRunning);
  EXPECT_EQ(supervisor_.stats().hangs_detected, 0u);

  clock_.advance(100.0);  // 500 > 460
  supervisor_.tick(clock_.now());
  EXPECT_EQ(scheduler_.state(id), JobState::kCancelled);
  EXPECT_EQ(supervisor_.stats().hangs_detected, 1u);
  EXPECT_EQ(control_.hung_payloads, (std::vector<std::uint64_t>{77}));
  // The hang struck the payload in the quarantine ledger.
  const auto* entry = control_.quarantine().find("cg_sim", 77);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hangs, 1u);
  // And the decision log names the action.
  ASSERT_FALSE(supervisor_.decisions().empty());
  EXPECT_NE(supervisor_.log_text().find("hang_cancel"), std::string::npos);
}

TEST_F(WatchdogTest, UnwatchedTypesNeverTripTheWatchdog) {
  JobSpec spec = JobSpec::gpu_sim("x", "continuum_like");
  spec.est_duration = 1.0;
  const JobId id = scheduler_.submit(std::move(spec));
  scheduler_.pump();
  clock_.advance(1e6);
  supervisor_.tick(clock_.now());
  EXPECT_EQ(scheduler_.state(id), JobState::kRunning);
  EXPECT_EQ(supervisor_.stats().hangs_detected, 0u);
}

TEST_F(WatchdogTest, DeadlinesAreFixedWhenTheJobStarts) {
  const JobId id = start_sim(5);
  control_.allow_speculation = false;
  // A later timing applies to later starts only: this job keeps hard 460.
  supervisor_.set_timing("cg_sim", {1000.0, 10.0});
  clock_.advance(500.0);
  supervisor_.tick(clock_.now());
  EXPECT_EQ(scheduler_.state(id), JobState::kCancelled);
  EXPECT_EQ(supervisor_.stats().hangs_detected, 1u);
}

TEST_F(WatchdogTest, StragglerGetsOneTwinAndFirstFinisherWins) {
  const JobId id = start_sim(9);
  clock_.advance(300.0);  // past soft (240), under hard (460)
  supervisor_.tick(clock_.now());
  const JobId twin = control_.last_twin;
  ASSERT_NE(twin, sched::kInvalidJob);
  ASSERT_EQ(scheduler_.state(twin), JobState::kRunning);
  EXPECT_EQ(supervisor_.stats().speculations, 1u);
  EXPECT_TRUE(supervisor_.has_live_twin(id));

  // A second tick must not spawn a second twin.
  supervisor_.tick(clock_.now());
  EXPECT_EQ(supervisor_.stats().speculations, 1u);

  // Twin finishes first: it wins, the original is cancelled.
  scheduler_.complete(twin, true);
  EXPECT_EQ(scheduler_.state(id), JobState::kCancelled);
  EXPECT_EQ(supervisor_.stats().spec_wins, 1u);
  EXPECT_FALSE(supervisor_.has_live_twin(id));
  EXPECT_NE(supervisor_.log_text().find("spec_win"), std::string::npos);
}

TEST_F(WatchdogTest, OriginalFinishingFirstCancelsTheTwin) {
  const JobId id = start_sim(11);
  clock_.advance(300.0);
  supervisor_.tick(clock_.now());
  const JobId twin = control_.last_twin;
  ASSERT_NE(twin, sched::kInvalidJob);

  scheduler_.complete(id, true);
  EXPECT_EQ(scheduler_.state(twin), JobState::kCancelled);
  EXPECT_EQ(supervisor_.stats().spec_losses, 1u);
  EXPECT_NE(supervisor_.log_text().find("spec_loss"), std::string::npos);
}

TEST_F(WatchdogTest, FailedOriginalKeepsLiveTwinAsItsRetry) {
  const JobId id = start_sim(13);
  clock_.advance(300.0);
  supervisor_.tick(clock_.now());
  const JobId twin = control_.last_twin;
  ASSERT_NE(twin, sched::kInvalidJob);

  // The original fails on its own; the twin is already the payload's retry,
  // so the workload's resubmit veto must hold while the twin lives.
  EXPECT_TRUE(supervisor_.has_live_twin(id));
  scheduler_.complete(id, false);
  EXPECT_EQ(scheduler_.state(twin), JobState::kRunning);
  scheduler_.complete(twin, true);
  EXPECT_EQ(supervisor_.stats().spec_wins, 1u);
}

TEST_F(WatchdogTest, RepeatedFailuresDrainProbeAndRestoreNode) {
  // Three genuine failures on node 0 within the window trip the drain.
  for (int i = 0; i < 3; ++i) {
    const JobId id = start_sim(100 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(scheduler_.job(id).alloc.slots.front().node, 0);
    clock_.advance(1.0);
    scheduler_.complete(id, false);
  }
  EXPECT_TRUE(scheduler_.graph().drained(0));
  EXPECT_EQ(supervisor_.node_health().state(0),
            supervise::NodeState::kDrained);
  EXPECT_NE(supervisor_.log_text().find("node_drain"), std::string::npos);

  // Probation expires -> canary probe, pinned to the drained node.
  clock_.advance(100.0);
  supervisor_.tick(clock_.now());
  EXPECT_EQ(supervisor_.stats().node_probations, 1u);
  const JobId canary = control_.last_canary;
  ASSERT_NE(canary, sched::kInvalidJob);
  ASSERT_EQ(scheduler_.state(canary), JobState::kRunning);
  EXPECT_EQ(scheduler_.job(canary).alloc.slots.front().node, 0);

  // Canary succeeds: the node returns to service.
  clock_.advance(60.0);
  scheduler_.complete(canary, true);
  EXPECT_FALSE(scheduler_.graph().drained(0));
  EXPECT_EQ(supervisor_.stats().canaries_ok, 1u);
  EXPECT_EQ(supervisor_.node_health().state(0),
            supervise::NodeState::kHealthy);
  EXPECT_NE(supervisor_.log_text().find("canary_ok"), std::string::npos);
}

TEST_F(WatchdogTest, FailedCanaryBacksOffInsteadOfUndraining) {
  for (int i = 0; i < 3; ++i) {
    const JobId id = start_sim(200 + static_cast<std::uint64_t>(i));
    clock_.advance(1.0);
    scheduler_.complete(id, false);
  }
  ASSERT_TRUE(scheduler_.graph().drained(0));
  clock_.advance(100.0);
  supervisor_.tick(clock_.now());
  const JobId canary = control_.last_canary;
  ASSERT_NE(canary, sched::kInvalidJob);
  scheduler_.complete(canary, false);
  EXPECT_TRUE(scheduler_.graph().drained(0));
  EXPECT_EQ(supervisor_.stats().canaries_failed, 1u);
  // Backoff doubled the probation: no new probe after the base interval.
  clock_.advance(101.0);
  supervisor_.tick(clock_.now());
  EXPECT_EQ(supervisor_.stats().node_probations, 1u);
  clock_.advance(100.0);
  supervisor_.tick(clock_.now());
  EXPECT_EQ(supervisor_.stats().node_probations, 2u);
}

TEST(WatchdogDeterminism, SameScriptSameDecisionLog) {
  auto run_script = [] {
    util::ManualClock clock;
    sched::Scheduler scheduler(sched::ClusterSpec::summit(2),
                               sched::MatchPolicy::kFirstMatch, clock);
    FakeControl control(&scheduler);
    supervise::Supervisor supervisor(scheduler, clock, control, test_cfg());
    supervisor.set_timing("cg_sim", {100.0, 10.0});

    std::vector<JobId> ids;
    for (std::uint64_t p = 0; p < 6; ++p) {
      JobSpec spec = JobSpec::gpu_sim("s", "cg_sim");
      spec.est_duration = 100.0;
      spec.payload = p;
      ids.push_back(scheduler.submit(std::move(spec)));
    }
    scheduler.pump();
    clock.advance(120.0);
    scheduler.complete(ids[0], false);
    scheduler.complete(ids[1], false);
    clock.advance(180.0);
    supervisor.tick(clock.now());  // stragglers speculate
    clock.advance(200.0);
    supervisor.tick(clock.now());  // survivors hang-cancel
    return supervisor.log_text();
  };
  const std::string a = run_script();
  const std::string b = run_script();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mummi
