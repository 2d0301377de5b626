#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi::sched {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : scheduler_(ClusterSpec::summit(2), MatchPolicy::kFirstMatch, clock_) {}

  JobSpec gpu_job(const std::string& name = "sim") {
    return JobSpec::gpu_sim(name, "cg_sim");
  }

  util::ManualClock clock_;
  Scheduler scheduler_;
};

TEST_F(SchedulerTest, SubmitThenPumpStarts) {
  const JobId id = scheduler_.submit(gpu_job());
  EXPECT_EQ(scheduler_.state(id), JobState::kPending);
  EXPECT_EQ(scheduler_.pending_count(), 1u);
  const auto started = scheduler_.pump();
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], id);
  EXPECT_EQ(scheduler_.state(id), JobState::kRunning);
  EXPECT_EQ(scheduler_.running_count(), 1u);
  EXPECT_EQ(scheduler_.graph().used_gpus(), 1);
}

TEST_F(SchedulerTest, FcfsOrderPreserved) {
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(scheduler_.submit(gpu_job()));
  const auto started = scheduler_.pump();
  EXPECT_EQ(started, ids);
}

TEST_F(SchedulerTest, NoBackfillBehindBlockedHead) {
  // Head asks for more nodes than exist; the small job behind it must wait
  // (FCFS with no backfilling).
  JobSpec big;
  big.type = "continuum";
  big.request.slot = Slot{24, 0};
  big.request.nslots = 10;
  big.request.one_slot_per_node = true;  // only 2 nodes exist
  scheduler_.submit(big);
  scheduler_.submit(gpu_job());
  const auto started = scheduler_.pump();
  EXPECT_TRUE(started.empty());
  EXPECT_EQ(scheduler_.pending_count(), 2u);
}

TEST_F(SchedulerTest, CompleteFreesResources) {
  const JobId id = scheduler_.submit(gpu_job());
  scheduler_.pump();
  clock_.advance(100.0);
  scheduler_.complete(id, true);
  EXPECT_EQ(scheduler_.state(id), JobState::kCompleted);
  EXPECT_EQ(scheduler_.graph().used_gpus(), 0);
  EXPECT_EQ(scheduler_.graph().used_cores(), 0);
  EXPECT_DOUBLE_EQ(scheduler_.job(id).end_time, 100.0);
}

TEST_F(SchedulerTest, FailureMarksFailed) {
  const JobId id = scheduler_.submit(gpu_job());
  scheduler_.pump();
  scheduler_.complete(id, false);
  EXPECT_EQ(scheduler_.state(id), JobState::kFailed);
}

TEST_F(SchedulerTest, CompleteOnNonRunningRejected) {
  const JobId id = scheduler_.submit(gpu_job());
  EXPECT_THROW(scheduler_.complete(id, true), util::Error);
  scheduler_.pump();
  scheduler_.complete(id, true);
  EXPECT_THROW(scheduler_.complete(id, true), util::Error);
}

TEST_F(SchedulerTest, CancelPendingJob) {
  scheduler_.submit(gpu_job());
  const JobId id = scheduler_.submit(gpu_job());
  EXPECT_TRUE(scheduler_.cancel(id));
  EXPECT_EQ(scheduler_.state(id), JobState::kCancelled);
  const auto started = scheduler_.pump();
  EXPECT_EQ(started.size(), 1u);  // tombstone skipped
  EXPECT_FALSE(scheduler_.cancel(id));
}

TEST_F(SchedulerTest, CancelRunningReleases) {
  const JobId id = scheduler_.submit(gpu_job());
  scheduler_.pump();
  EXPECT_TRUE(scheduler_.cancel(id));
  EXPECT_EQ(scheduler_.graph().used_gpus(), 0);
  EXPECT_EQ(scheduler_.running_count(), 0u);
}

TEST_F(SchedulerTest, ResourcesRecycleAfterCompletion) {
  // 12 GPUs; run 30 jobs through in waves.
  std::vector<JobId> ids;
  for (int i = 0; i < 30; ++i) ids.push_back(scheduler_.submit(gpu_job()));
  int completed = 0;
  while (completed < 30) {
    const auto started = scheduler_.pump();
    ASSERT_LE(scheduler_.running_count(), 12u);
    for (const JobId id : started) {
      scheduler_.complete(id, true);
      ++completed;
    }
    if (started.empty()) break;
  }
  EXPECT_EQ(completed, 30);
}

TEST_F(SchedulerTest, PumpOneReportsVisitsAndBlockage) {
  const auto empty = scheduler_.pump_one();
  EXPECT_FALSE(empty.attempted);
  scheduler_.submit(gpu_job());
  const auto one = scheduler_.pump_one();
  EXPECT_TRUE(one.attempted);
  EXPECT_NE(one.started, kInvalidJob);
  EXPECT_GT(one.visits, 0u);
}

TEST_F(SchedulerTest, CallbacksFireInOrder) {
  std::vector<std::string> events;
  scheduler_.on_start([&](const Job& job) {
    events.push_back("start:" + job.spec.name);
  });
  scheduler_.on_finish([&](const Job& job) {
    events.push_back("finish:" + job.spec.name);
  });
  const JobId id = scheduler_.submit(gpu_job("j1"));
  scheduler_.pump();
  scheduler_.complete(id, true);
  EXPECT_EQ(events,
            (std::vector<std::string>{"start:j1", "finish:j1"}));
}

TEST_F(SchedulerTest, TimesRecorded) {
  clock_.set(10.0);
  const JobId id = scheduler_.submit(gpu_job());
  clock_.set(20.0);
  scheduler_.pump();
  clock_.set(50.0);
  scheduler_.complete(id, true);
  const Job& job = scheduler_.job(id);
  EXPECT_DOUBLE_EQ(job.submit_time, 10.0);
  EXPECT_DOUBLE_EQ(job.start_time, 20.0);
  EXPECT_DOUBLE_EQ(job.end_time, 50.0);
}

TEST_F(SchedulerTest, DrainNodePreventsNewPlacement) {
  scheduler_.drain_node(0);
  std::vector<JobId> started;
  for (int i = 0; i < 6; ++i) scheduler_.submit(gpu_job());
  for (const JobId id : scheduler_.pump()) {
    EXPECT_EQ(scheduler_.job(id).alloc.slots[0].node, 1);
    started.push_back(id);
  }
  EXPECT_EQ(started.size(), 6u);
  // Node 1 full, node 0 drained: nothing else starts.
  scheduler_.submit(gpu_job());
  EXPECT_TRUE(scheduler_.pump().empty());
  scheduler_.undrain_node(0);
  EXPECT_EQ(scheduler_.pump().size(), 1u);
}

TEST_F(SchedulerTest, ActiveJobsListsPendingAndRunning) {
  const JobId a = scheduler_.submit(gpu_job());
  const JobId b = scheduler_.submit(gpu_job());
  scheduler_.pump_one();  // starts a
  const auto active = scheduler_.active_jobs();
  EXPECT_EQ(active.size(), 2u);
  scheduler_.complete(a, true);
  EXPECT_EQ(scheduler_.active_jobs().size(), 1u);
  EXPECT_EQ(scheduler_.active_jobs()[0], b);
}

TEST_F(SchedulerTest, CountsByType) {
  scheduler_.submit(JobSpec::gpu_sim("a", "cg_sim"));
  scheduler_.submit(JobSpec::gpu_sim("b", "aa_sim"));
  scheduler_.submit(JobSpec::cpu_setup("c", "cg_setup", 24));
  scheduler_.pump();
  const auto running = scheduler_.running_by_type();
  EXPECT_EQ(running.at("cg_sim"), 1);
  EXPECT_EQ(running.at("aa_sim"), 1);
  EXPECT_EQ(running.at("cg_setup"), 1);
}

TEST_F(SchedulerTest, UnknownJobIdThrows) {
  EXPECT_THROW((void)scheduler_.job(999), util::Error);
}

TEST_F(SchedulerTest, MaxMatchesLimitsPump) {
  for (int i = 0; i < 10; ++i) scheduler_.submit(gpu_job());
  EXPECT_EQ(scheduler_.pump(3).size(), 3u);
  EXPECT_EQ(scheduler_.pending_count(), 7u);
}

}  // namespace
}  // namespace mummi::sched
