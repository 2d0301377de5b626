#include "event/sim_engine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi::event {
namespace {

TEST(SimEngine, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngine, FifoWithinEqualTimes) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimEngine, ScheduleAfterUsesCurrentTime) {
  SimEngine engine;
  double fired_at = -1;
  engine.schedule_at(10.0, [&] {
    engine.schedule_after(5.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SimEngine, RunUntilStopsAtHorizon) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.schedule_at(10.0, [&] { ++fired; });
  const auto executed = engine.run_until(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);  // advanced to horizon
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimEngine, SelfReschedulingEventStopsAtHorizon) {
  SimEngine engine;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule_after(1.0, tick);
  };
  engine.schedule_after(1.0, tick);
  engine.run_until(10.5);
  EXPECT_EQ(ticks, 10);
}

TEST(SimEngine, PendingCount) {
  SimEngine engine;
  EXPECT_EQ(engine.pending(), 0u);
  engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(SimEngine, PastSchedulingRejected) {
  SimEngine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, [] {}), util::Error);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), util::Error);
}

TEST(SimEngine, StepExecutesOne) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(SimEngine, EventsScheduledDuringRunExecute) {
  SimEngine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(0.5, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 49.5);
}

TEST(SimEngine, EventsScheduledAtNowRunAfterQueuedPeersInOrder) {
  // The first event at t=1 schedules a burst at now() while two more t=1
  // events are queued. The burst is large enough to reallocate the heap
  // while the callback that fills it is still running.
  SimEngine engine;
  std::vector<int> order;
  constexpr int kBurst = 1000;
  engine.schedule_at(1.0, [&] {
    order.push_back(-1);
    for (int i = 0; i < kBurst; ++i)
      engine.schedule_at(engine.now(), [&order, i] { order.push_back(i); });
  });
  engine.schedule_at(1.0, [&] { order.push_back(-2); });
  engine.schedule_at(1.0, [&] { order.push_back(-3); });
  engine.schedule_at(2.0, [&] { order.push_back(-4); });
  EXPECT_EQ(engine.run(), static_cast<std::size_t>(kBurst + 4));

  std::vector<int> expected{-1, -2, -3};
  for (int i = 0; i < kBurst; ++i) expected.push_back(i);
  expected.push_back(-4);
  EXPECT_EQ(order, expected);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

}  // namespace
}  // namespace mummi::event
