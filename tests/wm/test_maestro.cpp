#include "wm/maestro.hpp"

#include <gtest/gtest.h>

namespace mummi::wm {
namespace {

TEST(DirectBackend, SubmitPlacesImmediately) {
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::laptop(),
                             sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend maestro(scheduler);
  maestro.submit(sched::JobSpec::gpu_sim("j", "cg_sim", 1));
  EXPECT_EQ(scheduler.running_count(), 1u);
  EXPECT_EQ(scheduler.pending_count(), 0u);
}

TEST(DirectBackend, MonitoringCallbacksThroughMaestro) {
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::laptop(),
                             sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend maestro(scheduler);
  std::vector<std::string> events;
  maestro.on_start([&](const sched::Job& j) { events.push_back("start:" + j.spec.name); });
  maestro.on_finish([&](const sched::Job& j) { events.push_back("end:" + j.spec.name); });
  maestro.submit(sched::JobSpec::gpu_sim("a", "cg_sim", 1));
  scheduler.complete(scheduler.active_jobs()[0], true);
  EXPECT_EQ(events, (std::vector<std::string>{"start:a", "end:a"}));
}

TEST(DirectBackend, PollPlacesBacklog) {
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::laptop(),
                             sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend maestro(scheduler);
  // Fill both GPUs, then a third job waits.
  maestro.submit(sched::JobSpec::gpu_sim("a", "cg_sim", 1));
  maestro.submit(sched::JobSpec::gpu_sim("b", "cg_sim", 1));
  maestro.submit(sched::JobSpec::gpu_sim("c", "cg_sim", 1));
  EXPECT_EQ(scheduler.pending_count(), 1u);
  for (const auto id : scheduler.active_jobs())
    if (scheduler.state(id) == sched::JobState::kRunning) {
      scheduler.complete(id, true);
      break;
    }
  maestro.poll();
  EXPECT_EQ(scheduler.running_count(), 2u);
  EXPECT_EQ(scheduler.pending_count(), 0u);
}

TEST(QueuedBackend, SubmitGoesThroughServiceTimes) {
  event::SimEngine engine;
  sched::Scheduler scheduler(sched::ClusterSpec::laptop(),
                             sched::MatchPolicy::kFirstMatch, engine.clock());
  sched::QueueConfig qcfg;
  qcfg.t_submit = 2.0;
  sched::QueueManager queue(engine, scheduler, qcfg);
  QueuedBackend maestro(scheduler, queue);
  maestro.submit(sched::JobSpec::gpu_sim("a", "cg_sim", 1));
  EXPECT_EQ(scheduler.running_count(), 0u);  // still in Q's service
  engine.run();
  EXPECT_EQ(scheduler.running_count(), 1u);
}

TEST(QueuedBackend, PollKicksMatcherAfterRelease) {
  event::SimEngine engine;
  sched::Scheduler scheduler(sched::ClusterSpec::laptop(),
                             sched::MatchPolicy::kFirstMatch, engine.clock());
  sched::QueueManager queue(engine, scheduler, {});
  QueuedBackend maestro(scheduler, queue);
  for (int i = 0; i < 3; ++i)  // 2 GPUs only
    maestro.submit(sched::JobSpec::gpu_sim("j", "cg_sim", 1));
  engine.run();
  EXPECT_EQ(scheduler.running_count(), 2u);
  for (const auto id : scheduler.active_jobs())
    if (scheduler.state(id) == sched::JobState::kRunning) {
      scheduler.complete(id, true);
      break;
    }
  maestro.poll();
  engine.run();
  EXPECT_EQ(scheduler.running_count(), 2u);
  EXPECT_EQ(scheduler.pending_count(), 0u);
}

TEST(Maestro, BothBackendsExposeScheduler) {
  util::ManualClock clock;
  sched::Scheduler s1(sched::ClusterSpec::laptop(),
                      sched::MatchPolicy::kFirstMatch, clock);
  DirectBackend direct(s1);
  EXPECT_EQ(&direct.scheduler(), &s1);

  event::SimEngine engine;
  sched::Scheduler s2(sched::ClusterSpec::laptop(),
                      sched::MatchPolicy::kFirstMatch, engine.clock());
  sched::QueueManager queue(engine, s2, {});
  QueuedBackend queued(s2, queue);
  EXPECT_EQ(&queued.scheduler(), &s2);
}

}  // namespace
}  // namespace mummi::wm
