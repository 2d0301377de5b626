// BackoffPolicy / retry_with_backoff / armored FsStore retries.
#include "util/backoff.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "datastore/fs_store.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"

namespace mummi {
namespace {

util::SleepFn recording_sleeper(std::vector<double>& out) {
  return [&out](double s) { out.push_back(s); };
}

TEST(Backoff, DelayGrowsExponentiallyAndCaps) {
  util::BackoffPolicy p;
  p.base_delay_s = 0.01;
  p.multiplier = 2.0;
  p.max_delay_s = 0.05;
  p.jitter_frac = 0.0;  // deterministic, jitter off
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.delay_s(0, rng), 0.01);
  EXPECT_DOUBLE_EQ(p.delay_s(1, rng), 0.02);
  EXPECT_DOUBLE_EQ(p.delay_s(2, rng), 0.04);
  EXPECT_DOUBLE_EQ(p.delay_s(3, rng), 0.05);   // capped
  EXPECT_DOUBLE_EQ(p.delay_s(10, rng), 0.05);  // stays capped
}

TEST(Backoff, JitterIsBoundedAndDeterministicForSeed) {
  util::BackoffPolicy p;
  p.base_delay_s = 0.1;
  p.max_delay_s = 10.0;
  p.jitter_frac = 0.25;
  util::Rng a(42), b(42), c(43);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const double da = p.delay_s(attempt, a);
    const double db = p.delay_s(attempt, b);
    const double base = 0.1 * std::pow(2.0, attempt);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same schedule
    EXPECT_GE(da, base * 0.75 - 1e-12);
    EXPECT_LE(da, base * 1.25 + 1e-12);
  }
  // A different stream decorrelates.
  util::Rng a2(42);
  bool any_differ = false;
  for (int attempt = 0; attempt < 5; ++attempt)
    if (p.delay_s(attempt, a2) != p.delay_s(attempt, c)) any_differ = true;
  EXPECT_TRUE(any_differ);
}

TEST(Backoff, ZeroBaseMeansNoWait) {
  util::BackoffPolicy p;
  p.base_delay_s = 0.0;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.delay_s(0, rng), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_s(7, rng), 0.0);
}

TEST(Backoff, RetryStopsAfterMaxAttempts) {
  util::BackoffPolicy p;
  p.max_attempts = 3;
  p.jitter_frac = 0.0;
  util::Rng rng(1);
  std::vector<double> slept;
  int calls = 0;
  const bool ok = util::retry_with_backoff(p, rng, recording_sleeper(slept),
                                           [&] {
                                             ++calls;
                                             return false;
                                           });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 3);
  // No sleep after the final, abandoned attempt.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], p.base_delay_s);
  EXPECT_DOUBLE_EQ(slept[1], p.base_delay_s * p.multiplier);
}

TEST(Backoff, ZeroMaxAttemptsStillRunsOnce) {
  // Contract: the operation always executes at least once; max_attempts <= 1
  // means "no retries", never "never try". The pre-fix loop returned false
  // without invoking the op at all for max_attempts <= 0, silently skipping
  // the I/O it was supposed to armor.
  util::BackoffPolicy p;
  p.max_attempts = 0;
  util::Rng rng(1);
  std::vector<double> slept;
  int calls = 0;
  const bool ok = util::retry_with_backoff(p, rng, recording_sleeper(slept),
                                           [&] {
                                             ++calls;
                                             return true;
                                           });
  EXPECT_TRUE(ok);  // the one execution succeeded, so the retry loop did
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());  // no retries, no waits
}

TEST(Backoff, NegativeMaxAttemptsRunsExactlyOnce) {
  util::BackoffPolicy p;
  p.max_attempts = -7;
  util::Rng rng(1);
  int calls = 0;
  const bool ok = util::retry_with_backoff(p, rng, util::SleepFn{},
                                           [&] {
                                             ++calls;
                                             return false;
                                           });
  EXPECT_FALSE(ok);  // the single attempt failed and nothing retried
  EXPECT_EQ(calls, 1);
}

TEST(Backoff, RetrySucceedsMidway) {
  util::BackoffPolicy p;
  p.max_attempts = 5;
  util::Rng rng(1);
  int calls = 0;
  const bool ok = util::retry_with_backoff(p, rng, util::SleepFn{},
                                           [&] { return ++calls == 3; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
}

TEST(Backoff, WriteFileRetriesUnderInjectedPolicyThenGivesUp) {
  // Unwritable destination: every attempt fails for real; the recording
  // sleeper proves the retry loop waited the policy's schedule.
  util::IoRetryPolicy retry;
  retry.backoff.max_attempts = 3;
  retry.backoff.jitter_frac = 0.0;
  std::vector<double> slept;
  retry.sleep = recording_sleeper(slept);
  EXPECT_THROW(util::write_file("/nonexistent-dir-mummi/x.bin",
                                util::to_bytes("payload"), retry),
               util::IoError);
  EXPECT_EQ(slept.size(), 2u);  // max_attempts - 1 waits
}

class FsStoreFaultTest : public ::testing::Test {
 protected:
  FsStoreFaultTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mummi_fsfault_" + std::to_string(::getpid())))
               .string();
  }
  ~FsStoreFaultTest() override { std::filesystem::remove_all(dir_); }

  util::IoRetryPolicy recorded_policy(int max_attempts) {
    util::IoRetryPolicy retry;
    retry.backoff.max_attempts = max_attempts;
    retry.backoff.jitter_frac = 0.0;
    retry.sleep = recording_sleeper(slept_);
    return retry;
  }

  std::string dir_;
  std::vector<double> slept_;
};

TEST_F(FsStoreFaultTest, InjectedFirstAttemptFailureIsRetriedAndSucceeds) {
  ds::FsStore store(dir_, recorded_policy(4));
  store.inject_failures(1);
  store.put("ns", "key", util::to_bytes("value"));  // survives the fault
  EXPECT_EQ(store.io_retries(), 1u);
  EXPECT_EQ(store.injected_remaining(), 0);
  ASSERT_EQ(slept_.size(), 1u);
  EXPECT_GT(slept_[0], 0.0);
  EXPECT_EQ(util::to_string(store.get("ns", "key")), "value");
}

TEST_F(FsStoreFaultTest, ExhaustedRetriesThrowUnavailable) {
  ds::FsStore store(dir_, recorded_policy(3));
  store.inject_failures(3);  // one per attempt: the armor gives up
  EXPECT_THROW(store.put("ns", "key", util::to_bytes("v")),
               util::UnavailableError);
  EXPECT_EQ(store.injected_remaining(), 0);
  EXPECT_FALSE(store.exists("ns", "key"));
  // Service resumes once the burst is consumed.
  store.put("ns", "key", util::to_bytes("v2"));
  EXPECT_EQ(util::to_string(store.get("ns", "key")), "v2");
}

TEST_F(FsStoreFaultTest, GetAndMoveAreArmoredToo) {
  ds::FsStore store(dir_, recorded_policy(4));
  store.put("src", "key", util::to_bytes("v"));
  store.inject_failures(2);
  EXPECT_EQ(util::to_string(store.get("src", "key")), "v");  // 2 retries
  store.inject_failures(1);
  store.move("src", "key", "dst");
  EXPECT_TRUE(store.exists("dst", "key"));
  EXPECT_FALSE(store.exists("src", "key"));
  EXPECT_GE(store.io_retries(), 3u);
}

TEST_F(FsStoreFaultTest, ZeroMaxAttemptsStillRunsTheOperationOnce) {
  // max_attempts <= 1 means "no retries", never "skip the operation".
  ds::FsStore store(dir_, recorded_policy(0));
  store.put("ns", "key", util::to_bytes("value"));
  EXPECT_EQ(util::to_string(store.get("ns", "key")), "value");
  EXPECT_EQ(store.io_retries(), 0u);
  EXPECT_TRUE(slept_.empty());
}

TEST_F(FsStoreFaultTest, MissingRecordIsNotRetried) {
  ds::FsStore store(dir_, recorded_policy(4));
  EXPECT_THROW(store.get("ns", "absent"), util::StoreError);
  EXPECT_EQ(store.io_retries(), 0u);  // a definitive miss, not a fault
}

}  // namespace
}  // namespace mummi
