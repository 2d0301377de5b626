#include "wm/workflow_manager.hpp"

#include <gtest/gtest.h>

namespace mummi::wm {
namespace {

class WorkflowManagerTest : public ::testing::Test {
 protected:
  WorkflowManagerTest()
      : scheduler_(sched::ClusterSpec::summit(2),
                   sched::MatchPolicy::kFirstMatch, clock_),
        maestro_(scheduler_),
        patch_selector_(9, 5, 1000),
        frame_selector_(0.8, 3) {
    auto add = [&](const std::string& type, int cores, int gpus) {
      JobTypeConfig cfg;
      cfg.type = type;
      cfg.request.slot = sched::Slot{cores, gpus};
      cfg.max_restarts = 1;
      trackers_.add(std::make_unique<JobTracker>(cfg));
    };
    add("cg_setup", 20, 0);  // two fit per 44-core node: no head blocking
    add("cg_sim", 3, 1);
    add("aa_setup", 18, 0);
    add("aa_sim", 3, 1);

    WmConfig cfg;
    cfg.gpu_frac_cg = 0.75;  // 12 GPUs -> 9 CG + 3 AA
    cfg.cg_ready_target = 2;
    cfg.aa_ready_target = 1;
    wm_ = std::make_unique<WorkflowManager>(cfg, maestro_, trackers_,
                                            patch_selector_, frame_selector_);
  }

  void ingest_patches(int n) {
    std::vector<ml::HDPoint> pts;
    for (int i = 0; i < n; ++i) {
      ml::HDPoint p;
      p.id = next_id_++;
      p.coords.assign(9, 0.1f * static_cast<float>(i));
      pts.push_back(std::move(p));
    }
    wm_->ingest_patches(0, pts);
  }

  void ingest_frames(int n) {
    std::vector<ml::HDPoint> pts;
    for (int i = 0; i < n; ++i)
      pts.push_back({next_id_++, {30.0f, 100.0f + i, 1.0f}});
    wm_->ingest_frames(pts);
  }

  /// Completes every running job of a type; returns how many.
  int complete_all(const std::string& type, bool success = true) {
    int n = 0;
    for (const auto id : scheduler_.active_jobs()) {
      const auto& job = scheduler_.job(id);
      if (job.state == sched::JobState::kRunning && job.spec.type == type) {
        scheduler_.complete(id, success);
        ++n;
      }
    }
    return n;
  }

  util::ManualClock clock_;
  sched::Scheduler scheduler_;
  DirectBackend maestro_;
  TrackerSet trackers_;
  PatchSelector patch_selector_;
  FrameSelector frame_selector_;
  std::unique_ptr<WorkflowManager> wm_;
  ml::PointId next_id_ = 1;
};

TEST_F(WorkflowManagerTest, CapacitySplit) {
  EXPECT_EQ(wm_->cg_capacity(), 9);
  EXPECT_EQ(wm_->aa_capacity(), 3);
}

TEST_F(WorkflowManagerTest, NoCandidatesNothingSubmitted) {
  EXPECT_EQ(wm_->maintain(100), 0);
  EXPECT_EQ(scheduler_.pending_count() + scheduler_.running_count(), 0u);
}

TEST_F(WorkflowManagerTest, SetupsSubmittedUpToRampTarget) {
  ingest_patches(50);
  const int submitted = wm_->maintain(100);
  // Ramp: deficit (9 CG GPUs idle) + headroom (2) = 11 setups wanted, but
  // CPU capacity limits: 88 cores / 20 = 4 concurrent setups.
  EXPECT_EQ(submitted, 4);
  EXPECT_EQ(wm_->running("cg_setup") + wm_->pending("cg_setup"), 4);
}

TEST_F(WorkflowManagerTest, CompletedSetupEntersReadyBufferThenSim) {
  ingest_patches(10);
  wm_->maintain(100);
  EXPECT_EQ(complete_all("cg_setup"), 4);
  EXPECT_EQ(wm_->cg_ready(), 4u);
  const int submitted = wm_->maintain(100);
  EXPECT_GE(submitted, 4);  // 4 sims + replacement setups
  EXPECT_EQ(wm_->running("cg_sim"), 4);
  EXPECT_EQ(wm_->cg_ready(), 0u);
}

TEST_F(WorkflowManagerTest, PipelineReachesCgCapacity) {
  ingest_patches(100);
  for (int round = 0; round < 10; ++round) {
    wm_->maintain(100);
    complete_all("cg_setup");
  }
  wm_->maintain(100);
  EXPECT_EQ(wm_->running("cg_sim"), 9);  // capacity reached
  // GPUs for CG full; further maintains keep a bounded ready buffer.
  EXPECT_LE(wm_->cg_ready() + static_cast<std::size_t>(
                                  wm_->running("cg_setup")), 3u);
}

TEST_F(WorkflowManagerTest, AaPipelineViaFrames) {
  ingest_frames(20);
  for (int round = 0; round < 6; ++round) {
    wm_->maintain(100);
    complete_all("aa_setup");
  }
  wm_->maintain(100);
  EXPECT_EQ(wm_->running("aa_sim"), 3);  // AA capacity
}

TEST_F(WorkflowManagerTest, SubmitBudgetThrottles) {
  ingest_patches(50);
  EXPECT_EQ(wm_->maintain(1), 1);
  EXPECT_EQ(wm_->maintain(0), 0);
}

TEST_F(WorkflowManagerTest, SimCompletionFiresCallbackAndFreesCapacity) {
  ingest_patches(10);
  wm_->maintain(100);
  complete_all("cg_setup");
  wm_->maintain(100);
  std::vector<sched::JobId> finished;
  wm_->on_sim_finished([&](const sched::Job& job) {
    finished.push_back(job.id);
  });
  const int n = complete_all("cg_sim");
  EXPECT_GT(n, 0);
  EXPECT_EQ(static_cast<int>(finished.size()), n);
  EXPECT_EQ(wm_->running("cg_sim"), 0);
}

TEST_F(WorkflowManagerTest, FailedSetupResubmittedUpToMaxRestarts) {
  ingest_patches(1);
  wm_->maintain(100);
  ASSERT_EQ(wm_->running("cg_setup"), 1);
  // First failure: resubmitted (max_restarts = 1).
  complete_all("cg_setup", false);
  EXPECT_EQ(wm_->running("cg_setup") + wm_->pending("cg_setup"), 1);
  // Second failure: dropped.
  complete_all("cg_setup", false);
  EXPECT_EQ(wm_->running("cg_setup") + wm_->pending("cg_setup"), 0);
  EXPECT_EQ(trackers_.tracker("cg_setup").counters().restarted, 1u);
  EXPECT_EQ(trackers_.tracker("cg_setup").counters().failed, 2u);
}

TEST_F(WorkflowManagerTest, FailedSimResubmittedThenTerminal) {
  ingest_patches(5);
  wm_->maintain(100);
  complete_all("cg_setup");
  wm_->maintain(100);
  int terminal_failures = 0;
  wm_->on_sim_finished([&](const sched::Job& job) {
    if (job.state == sched::JobState::kFailed) ++terminal_failures;
  });
  const int running = wm_->running("cg_sim");
  complete_all("cg_sim", false);  // restart 1 (resubmitted + restarted)
  EXPECT_EQ(wm_->running("cg_sim"), running);
  complete_all("cg_sim", false);  // restarts exhausted -> terminal
  EXPECT_EQ(terminal_failures, running);
}

TEST_F(WorkflowManagerTest, CarryOverRoundTrip) {
  ingest_patches(10);
  wm_->maintain(100);
  complete_all("cg_setup");
  EXPECT_EQ(wm_->cg_ready(), 4u);
  wm_->requeue_setup("cg_setup", 777);
  const auto carry = wm_->carry_over();
  EXPECT_EQ(carry.ready_cg.size(), 4u);
  EXPECT_EQ(carry.requeued_cg_setup.size(), 1u);
  EXPECT_EQ(carry.requeued_cg_setup.front(), 777u);

  // A fresh WM (new allocation) resumes from the carried state.
  WmConfig cfg;
  cfg.cg_ready_target = 2;
  sched::Scheduler fresh_sched(sched::ClusterSpec::summit(2),
                               sched::MatchPolicy::kFirstMatch, clock_);
  DirectBackend fresh_maestro(fresh_sched);
  WorkflowManager fresh(cfg, fresh_maestro, trackers_, patch_selector_,
                        frame_selector_);
  fresh.restore_carry_over(carry);
  EXPECT_EQ(fresh.cg_ready(), 4u);
  const int submitted = fresh.maintain(100);
  EXPECT_GE(submitted, 4);  // the ready sims launch immediately
  EXPECT_EQ(fresh.running("cg_sim"), 4);
}

TEST_F(WorkflowManagerTest, RequeueUnknownTypeRejected) {
  EXPECT_THROW(wm_->requeue_setup("cg_sim", 1), util::Error);
}

TEST_F(WorkflowManagerTest, FeedbackManagersRunInOrder) {
  struct FakeFeedback : fb::FeedbackManager {
    explicit FakeFeedback(int id, std::vector<int>& order)
        : id_(id), order_(order) {}
    fb::IterationStats iterate() override {
      order_.push_back(id_);
      fb::IterationStats s;
      s.frames = static_cast<std::size_t>(id_);
      return s;
    }
    [[nodiscard]] std::string name() const override { return "fake"; }
    int id_;
    std::vector<int>& order_;
  };
  std::vector<int> order;
  FakeFeedback f1(1, order), f2(2, order);
  wm_->add_feedback(&f1);
  wm_->add_feedback(&f2);
  const auto stats = wm_->run_feedback();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].frames, 1u);
  EXPECT_EQ(stats[1].frames, 2u);
}

}  // namespace
}  // namespace mummi::wm

namespace mummi::wm {
namespace {

TEST(JobTrackerBoundary, ExactlyMaxRestartsResubmissionsThenTerminal) {
  // max_restarts = N means exactly N resubmissions of a failing job; failure
  // N+1 is terminal and must surface through on_sim_finished.
  constexpr int kMaxRestarts = 3;
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::summit(2),
                             sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend maestro(scheduler);
  TrackerSet trackers;
  auto add = [&](const std::string& type, int cores, int gpus) {
    JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    cfg.max_restarts = kMaxRestarts;
    trackers.add(std::make_unique<JobTracker>(cfg));
  };
  add("cg_setup", 20, 0);
  add("cg_sim", 3, 1);
  add("aa_setup", 18, 0);
  add("aa_sim", 3, 1);
  PatchSelector patches(9, 5, 1000);
  FrameSelector frames(0.8, 3);
  WmConfig cfg;
  cfg.gpu_frac_cg = 0.75;
  WorkflowManager wm(cfg, maestro, trackers, patches, frames);

  ml::HDPoint p;
  p.id = 1;
  p.coords.assign(9, 0.5f);
  wm.ingest_patches(0, {p});
  wm.maintain(100);
  ASSERT_EQ(wm.running("cg_setup"), 1);
  for (const auto id : scheduler.active_jobs())
    if (scheduler.job(id).state == sched::JobState::kRunning)
      scheduler.complete(id, true);
  wm.maintain(100);
  ASSERT_EQ(wm.running("cg_sim"), 1);

  int terminal_failures = 0;
  wm.on_sim_finished([&](const sched::Job& job) {
    if (job.state == sched::JobState::kFailed) ++terminal_failures;
  });

  auto fail_running_sim = [&] {
    for (const auto id : scheduler.active_jobs()) {
      const auto& job = scheduler.job(id);
      if (job.state == sched::JobState::kRunning && job.spec.type == "cg_sim")
        scheduler.complete(id, false);
    }
  };
  const auto& counters = trackers.tracker("cg_sim").counters();
  for (int round = 1; round <= kMaxRestarts; ++round) {
    fail_running_sim();
    // Resubmitted, still in flight, one more restart consumed.
    EXPECT_EQ(wm.running("cg_sim") + wm.pending("cg_sim"), 1) << round;
    EXPECT_EQ(counters.restarted, static_cast<std::uint64_t>(round));
    EXPECT_EQ(terminal_failures, 0);
  }
  // Restarts exhausted: the next failure is terminal, nothing resubmitted.
  fail_running_sim();
  EXPECT_EQ(wm.running("cg_sim") + wm.pending("cg_sim"), 0);
  EXPECT_EQ(counters.restarted, static_cast<std::uint64_t>(kMaxRestarts));
  EXPECT_EQ(counters.failed, static_cast<std::uint64_t>(kMaxRestarts) + 1);
  EXPECT_EQ(terminal_failures, 1);
}

/// A tracker whose policy never retries, whatever the budget or the cause.
class NeverRetryTracker final : public JobTracker {
 public:
  using JobTracker::JobTracker;
  [[nodiscard]] bool should_resubmit(const sched::Job&, int) const override {
    return false;
  }
};

TEST(JobTrackerPolicy, OverrideDecidesWhatTheWorkflowManagerResubmits) {
  // Paper Sec. 4.3: trackers are customized by inheritance. The override,
  // not a copy of the default policy, governs the WM: neither a payload
  // failure (budget 5 unspent) nor a node kill is resubmitted.
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::summit(2),
                             sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend maestro(scheduler);
  TrackerSet trackers;
  auto config = [](const std::string& type, int cores, int gpus) {
    JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    cfg.max_restarts = 5;
    return cfg;
  };
  trackers.add(std::make_unique<NeverRetryTracker>(config("cg_setup", 20, 0)));
  trackers.add(std::make_unique<JobTracker>(config("cg_sim", 3, 1)));
  trackers.add(std::make_unique<JobTracker>(config("aa_setup", 18, 0)));
  trackers.add(std::make_unique<JobTracker>(config("aa_sim", 3, 1)));
  PatchSelector patches(9, 5, 1000);
  FrameSelector frames(0.8, 3);
  WmConfig cfg;
  cfg.cg_ready_target = 2;
  WorkflowManager wm(cfg, maestro, trackers, patches, frames);

  std::vector<ml::HDPoint> pts(2);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i].id = i + 1;
    pts[i].coords.assign(9, 0.1f * static_cast<float>(i));
  }
  wm.ingest_patches(0, pts);
  wm.maintain(100);
  const auto ids = scheduler.active_jobs();
  ASSERT_EQ(ids.size(), 2u);
  ASSERT_EQ(wm.running("cg_setup"), 2);

  scheduler.complete(ids[0], false);
  scheduler.fail_node(scheduler.job(ids[1]).alloc.slots.front().node);
  EXPECT_EQ(wm.running("cg_setup") + wm.pending("cg_setup"), 0);
  const auto& counters = trackers.tracker("cg_setup").counters();
  EXPECT_EQ(counters.restarted, 0u);
  EXPECT_EQ(counters.failed, 1u);
  EXPECT_EQ(counters.killed_by_fault, 1u);
}

TEST_F(WorkflowManagerTest, QuarantinedPayloadsAreNeverSubmitted) {
  // 777 is quarantined; 778 is clean. Only 778 reaches the scheduler.
  for (int i = 0; i < 3; ++i)
    wm_->quarantine().strike("cg_setup", 777, supervise::StrikeKind::kFailure,
                             static_cast<double>(i));
  ASSERT_TRUE(wm_->quarantine().quarantined("cg_setup", 777));
  wm_->requeue_setup("cg_setup", 777);
  wm_->requeue_setup("cg_setup", 778);
  wm_->maintain(100);
  ASSERT_EQ(wm_->running("cg_setup"), 1);
  for (const auto id : scheduler_.active_jobs()) {
    const auto& job = scheduler_.job(id);
    if (job.state == sched::JobState::kRunning) {
      EXPECT_EQ(job.spec.payload, 778u);
    }
  }
}

TEST_F(WorkflowManagerTest, QuarantineMakesFailuresTerminalDespiteBudget) {
  ingest_patches(1);
  wm_->maintain(100);
  ASSERT_EQ(wm_->running("cg_setup"), 1);
  std::uint64_t payload = 0;
  for (const auto id : scheduler_.active_jobs())
    if (scheduler_.job(id).state == sched::JobState::kRunning)
      payload = scheduler_.job(id).spec.payload;

  // The payload is quarantined while its job runs (e.g. its twin struck out
  // elsewhere). Its failure is terminal even with restart budget left.
  for (int i = 0; i < 3; ++i)
    wm_->quarantine().strike("cg_setup", payload,
                             supervise::StrikeKind::kHang,
                             static_cast<double>(i));
  complete_all("cg_setup", false);
  EXPECT_EQ(wm_->running("cg_setup") + wm_->pending("cg_setup"), 0);
  EXPECT_EQ(trackers_.tracker("cg_setup").counters().restarted, 0u);
}

TEST_F(WorkflowManagerTest, FullStateSerializeRestore) {
  ingest_patches(20);
  ingest_frames(10);
  wm_->maintain(100);
  complete_all("cg_setup");
  wm_->requeue_setup("aa_setup", 555);
  util::ByteWriter state;
  wm_->serialize(state);

  // A crash: brand-new WM over a fresh scheduler, restored from bytes.
  sched::Scheduler fresh_sched(sched::ClusterSpec::summit(2),
                               sched::MatchPolicy::kFirstMatch, clock_);
  DirectBackend fresh_maestro(fresh_sched);
  PatchSelector fresh_patches(9, 5, 1000);
  FrameSelector fresh_frames(0.8, 3);
  WmConfig cfg;
  cfg.gpu_frac_cg = 0.75;
  WorkflowManager restored(cfg, fresh_maestro, trackers_, fresh_patches,
                           fresh_frames);
  util::ByteReader r(state.data());
  restored.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.cg_ready(), wm_->cg_ready());
  EXPECT_EQ(fresh_patches.candidate_count(),
            patch_selector_.candidate_count());
  EXPECT_EQ(fresh_patches.selected_count(), patch_selector_.selected_count());
  EXPECT_EQ(fresh_frames.candidate_count(), frame_selector_.candidate_count());
  const auto carry = restored.carry_over();
  EXPECT_EQ(carry.requeued_aa_setup.front(), 555u);
  // The restored WM schedules work immediately.
  EXPECT_GT(restored.maintain(100), 0);
}

TEST_F(WorkflowManagerTest, TruncatedRestoreLeavesTheManagerUnchanged) {
  ingest_patches(20);
  ingest_frames(10);
  wm_->maintain(100);
  complete_all("cg_setup");
  wm_->requeue_setup("aa_setup", 555);
  wm_->quarantine().strike("cg_setup", 9, supervise::StrikeKind::kFailure,
                           1.0);
  util::ByteWriter state;
  wm_->serialize(state);
  const util::Bytes cut(state.data().begin(), state.data().end() - 4);

  // A second manager that holds other state.
  sched::Scheduler other_sched(sched::ClusterSpec::summit(2),
                               sched::MatchPolicy::kFirstMatch, clock_);
  DirectBackend other_maestro(other_sched);
  PatchSelector other_patches(9, 5, 1000);
  FrameSelector other_frames(0.8, 3);
  WorkflowManager other(WmConfig{}, other_maestro, trackers_, other_patches,
                        other_frames);
  other.requeue_setup("cg_setup", 77);
  other.ingest_frames(
      std::vector<ml::HDPoint>{{900, {10.0f, 50.0f, 2.0f}}});
  util::ByteWriter before;
  other.serialize(before);
  util::ByteReader r(cut);
  EXPECT_THROW(other.restore(r), util::FormatError);
  util::ByteWriter after;
  other.serialize(after);
  EXPECT_EQ(after.data(), before.data());
}

TEST_F(WorkflowManagerTest, RestoreRejectsRestartCountPastIntMax) {
  // A forged restart count of 0xFFFFFFFF would restore as -1 and grant the
  // payload about 2^31 more retries under `tries < max_restarts`.
  util::ByteWriter genuine;
  wm_->serialize(genuine);
  const util::Bytes& g = genuine.data();
  // Four empty queues, then the restart map: one entry instead of none.
  constexpr std::size_t kRestartsAt = 4 * 8;
  util::ByteWriter forged;
  forged.raw(g.data(), kRestartsAt);
  forged.u64(1);
  forged.u64(42);
  forged.u32(0xFFFFFFFFu);
  forged.raw(g.data() + kRestartsAt + 8, g.size() - kRestartsAt - 8);

  wm_->requeue_setup("cg_setup", 77);
  util::ByteWriter before;
  wm_->serialize(before);
  util::ByteReader r(forged.data());
  EXPECT_THROW(wm_->restore(r), util::FormatError);
  util::ByteWriter after;
  wm_->serialize(after);
  EXPECT_EQ(after.data(), before.data());
}

}  // namespace
}  // namespace mummi::wm
