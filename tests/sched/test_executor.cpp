#include "sched/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "util/error.hpp"

namespace mummi::sched {
namespace {

Job make_job(const std::string& type, double est = 1.0,
             std::uint64_t payload = 0) {
  Job job;
  job.id = 1;
  job.spec.type = type;
  job.spec.est_duration = est;
  job.spec.payload = payload;
  return job;
}

TEST(PayloadRegistry, RegisterAndLookup) {
  PayloadRegistry registry;
  registry.register_type("t", [](const Job&) { return true; });
  EXPECT_TRUE(registry.has("t"));
  EXPECT_FALSE(registry.has("u"));
  EXPECT_TRUE(registry.payload_for("t")(make_job("t")));
  EXPECT_THROW((void)registry.payload_for("u"), util::Error);
}

TEST(InlineExecutor, RunsSynchronously) {
  PayloadRegistry registry;
  int runs = 0;
  registry.register_type("t", [&](const Job&) {
    ++runs;
    return true;
  });
  InlineExecutor exec(std::move(registry));
  bool result = false;
  exec.launch(make_job("t"), [&](bool ok) { result = ok; });
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(result);
}

TEST(InlineExecutor, PayloadExceptionBecomesFailure) {
  PayloadRegistry registry;
  registry.register_type("t", [](const Job&) -> bool {
    throw std::runtime_error("sim crashed");
  });
  InlineExecutor exec(std::move(registry));
  bool result = true;
  exec.launch(make_job("t"), [&](bool ok) { result = ok; });
  EXPECT_FALSE(result);
}

TEST(InlineExecutor, PayloadReturningFalseFails) {
  PayloadRegistry registry;
  registry.register_type("t", [](const Job&) { return false; });
  InlineExecutor exec(std::move(registry));
  bool result = true;
  exec.launch(make_job("t"), [&](bool ok) { result = ok; });
  EXPECT_FALSE(result);
}

TEST(ThreadExecutor, RunsOnPoolAndCompletes) {
  util::ThreadPool pool(2);
  PayloadRegistry registry;
  registry.register_type("t", [](const Job& job) { return job.spec.payload == 7; });
  ThreadExecutor exec(pool, std::move(registry));
  std::atomic<int> completions{0};
  std::atomic<int> successes{0};
  for (int i = 0; i < 10; ++i)
    exec.launch(make_job("t", 1.0, static_cast<std::uint64_t>(i)),
                [&](bool ok) {
                  ++completions;
                  if (ok) ++successes;
                });
  pool.wait_idle();
  EXPECT_EQ(completions.load(), 10);
  EXPECT_EQ(successes.load(), 1);  // only payload==7
}

TEST(SimExecutor, CompletesAtModeledTime) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(1));
  double done_at = -1;
  exec.launch(make_job("t", 42.0), [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 42.0);
}

TEST(SimExecutor, DurationModelOverridesEstimate) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(1));
  exec.set_duration_model([](const Job& job) {
    return static_cast<double>(job.spec.payload) * 2.0;
  });
  double done_at = -1;
  exec.launch(make_job("t", 99.0, 5), [&](bool) { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST(SimExecutor, FailureProbabilityApplies) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(3), 0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i)
    exec.launch(make_job("t", 1.0), [&](bool ok) {
      if (!ok) ++failures;
    });
  engine.run();
  EXPECT_GT(failures, 60);
  EXPECT_LT(failures, 140);
}

TEST(SimExecutor, ZeroFailureProbAlwaysSucceeds) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(3), 0.0);
  int failures = 0;
  for (int i = 0; i < 50; ++i)
    exec.launch(make_job("t", 1.0), [&](bool ok) {
      if (!ok) ++failures;
    });
  engine.run();
  EXPECT_EQ(failures, 0);
}

TEST(SimExecutor, NegativeDurationRejected) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(1));
  exec.set_duration_model([](const Job&) { return -1.0; });
  EXPECT_THROW(exec.launch(make_job("t"), [](bool) {}), util::Error);
}

TEST(SimExecutor, InjectedHangsSwallowCompletions) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(5), 0.0);
  exec.inject_hangs(2);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    auto job = make_job("t", 1.0);
    job.id = static_cast<JobId>(i + 1);
    exec.launch(job, [&](bool) { ++done; });
  }
  engine.run();
  EXPECT_EQ(done, 3);  // first two launches hang forever
  EXPECT_EQ(exec.hangs_injected(), 2);
  EXPECT_TRUE(exec.is_hung(1));
  EXPECT_TRUE(exec.is_hung(2));
  EXPECT_FALSE(exec.is_hung(3));
  EXPECT_EQ(exec.hung_jobs().size(), 2u);
  exec.clear_hung(1);
  EXPECT_FALSE(exec.is_hung(1));
}

TEST(SimExecutor, HangsDrawNoRandomness) {
  // A hang must not consume RNG draws: the stream seen by later jobs is the
  // same with and without a leading hang, keeping fault runs replayable.
  auto durations_with = [](int hangs) {
    event::SimEngine engine;
    SimExecutor exec(engine, util::Rng(11), 0.0);
    exec.inject_hangs(hangs);
    std::vector<double> at;
    for (int i = 0; i < 4 + hangs; ++i) {
      auto job = make_job("t", 1.0);
      job.id = static_cast<JobId>(i + 1);
      exec.launch(job, [&, i](bool) { at.push_back(engine.now()); });
    }
    engine.run();
    return at;
  };
  EXPECT_EQ(durations_with(0), durations_with(1));
}

TEST(SimExecutor, StragglersStretchDuration) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(7), 0.0);
  exec.set_duration_model([](const Job&) { return 10.0; });
  exec.inject_stragglers(1, 4.0);
  std::vector<double> finished;
  for (int i = 0; i < 2; ++i) {
    auto job = make_job("t");
    job.id = static_cast<JobId>(i + 1);
    exec.launch(job, [&](bool) { finished.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_DOUBLE_EQ(finished[0], 10.0);  // second launch: normal
  EXPECT_DOUBLE_EQ(finished[1], 40.0);  // first launch: 4x straggler
  EXPECT_EQ(exec.stragglers_injected(), 1);
}

TEST(SimExecutor, PoisonPredicateForcesFailure) {
  event::SimEngine engine;
  SimExecutor exec(engine, util::Rng(9), 0.0);
  exec.set_poison(
      [](const Job& job) { return job.spec.payload % 2 == 0; });
  int failures = 0, successes = 0;
  for (int i = 0; i < 10; ++i) {
    auto job = make_job("t", 1.0, static_cast<std::uint64_t>(i));
    job.id = static_cast<JobId>(i + 1);
    exec.launch(job, [&](bool ok) { ok ? ++successes : ++failures; });
  }
  engine.run();
  EXPECT_EQ(failures, 5);
  EXPECT_EQ(successes, 5);
}

}  // namespace
}  // namespace mummi::sched
