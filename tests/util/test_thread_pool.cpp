#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

namespace mummi::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSmallRangeInline) {
  ThreadPool pool(4);
  int sum = 0;  // no atomics needed: tiny ranges run inline
  pool.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ParallelForBlocksCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_blocks(1000, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForBlocksBoundariesIndependentOfPoolSize) {
  // The determinism contract: the set of [lo, hi) blocks is a function of
  // (n, block) only, so any per-block reduction is identical on every pool.
  auto block_set = [](ThreadPool& pool, std::size_t n, std::size_t block) {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    pool.parallel_for_blocks(n, block, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard lock(m);
      blocks.emplace_back(lo, hi);
    });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  ThreadPool p1(1), p2(2), p4(4);
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 1000u, 4096u}) {
    const auto want = block_set(p1, n, 64);
    EXPECT_EQ(block_set(p2, n, 64), want) << "n=" << n;
    EXPECT_EQ(block_set(p4, n, 64), want) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForBlocksNestedInsideWorkerRunsInline) {
  // A worker task issuing its own parallel_for_blocks must not deadlock
  // waiting on the (occupied) pool — the nested call runs inline.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(pool.submit([&pool, &total] {
      pool.parallel_for_blocks(100, 10, [&](std::size_t lo, std::size_t hi) {
        total += static_cast<int>(hi - lo);
      });
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, ParallelForBlocksPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_blocks(1000, 16,
                               [&](std::size_t lo, std::size_t) {
                                 if (lo == 512) throw std::runtime_error("x");
                               }),
      std::runtime_error);
}

TEST(ThreadPool, WaitIdleUnderConcurrentEnqueue) {
  // wait_idle must drain everything enqueued before the call even while
  // another thread keeps feeding the pool.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    while (!stop.load()) {
      pool.submit([&done] { ++done; });
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 50; ++round) {
    const int before = done.load();
    pool.submit([&done] { ++done; });
    pool.wait_idle();
    EXPECT_GT(done.load(), before);
  }
  stop = true;
  feeder.join();
  pool.wait_idle();
}

TEST(ForBlocksOrdered, CoversRangeInOrderSerial) {
  std::vector<int> worked, consumed;
  for_blocks_ordered(
      nullptr, 10, 4,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          worked.push_back(static_cast<int>(i));
      },
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          consumed.push_back(static_cast<int>(i));
      });
  const std::vector<int> want{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(worked, want);
  EXPECT_EQ(consumed, want);
}

TEST(ForBlocksOrdered, ConsumeSeesFinishedWorkAndStaysOrdered) {
  // The contract: consume(b) starts only after work(b) finished, and consume
  // blocks run serially in ascending order on the caller thread.
  ThreadPool pool(4);
  const std::size_t n = 1000, block = 64;
  std::vector<int> staged(n, 0);
  std::vector<std::size_t> consume_los;
  const auto caller = std::this_thread::get_id();
  for_blocks_ordered(
      &pool, n, block,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) staged[i] = static_cast<int>(i);
      },
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        consume_los.push_back(lo);
        for (std::size_t i = lo; i < hi; ++i)
          EXPECT_EQ(staged[i], static_cast<int>(i));
      });
  ASSERT_EQ(consume_los.size(), (n + block - 1) / block);
  for (std::size_t b = 0; b < consume_los.size(); ++b)
    EXPECT_EQ(consume_los[b], b * block);
}

TEST(ForBlocksOrdered, SerialAndPooledTracesIdentical) {
  // Threads change wall time, never output: the consume-side fold sequence
  // is byte-identical with and without a pool, at any pool size.
  auto fold_trace = [](ThreadPool* pool) {
    std::vector<std::size_t> trace;
    for_blocks_ordered(
        pool, 337, 16, [](std::size_t, std::size_t) {},
        [&](std::size_t lo, std::size_t hi) {
          trace.push_back(lo);
          trace.push_back(hi);
        });
    return trace;
  };
  ThreadPool p1(1), p2(2), p8(8);
  const auto want = fold_trace(nullptr);
  ASSERT_EQ(want.size(), 2u * 22u);
  EXPECT_EQ(want.back(), 337u);
  EXPECT_EQ(fold_trace(&p1), want);
  EXPECT_EQ(fold_trace(&p2), want);
  EXPECT_EQ(fold_trace(&p8), want);
}

TEST(ForBlocksOrdered, EmptyAndSingleBlockEdges) {
  ThreadPool pool(2);
  int work_calls = 0, consume_calls = 0;
  for_blocks_ordered(
      &pool, 0, 8, [&](std::size_t, std::size_t) { ++work_calls; },
      [&](std::size_t, std::size_t) { ++consume_calls; });
  EXPECT_EQ(work_calls, 0);
  EXPECT_EQ(consume_calls, 0);
  // A single block runs inline on the caller: no synchronization needed.
  const auto caller = std::this_thread::get_id();
  for_blocks_ordered(
      &pool, 5, 8,
      [&](std::size_t lo, std::size_t hi) {
        ++work_calls;
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 5u);
      },
      [&](std::size_t, std::size_t) { ++consume_calls; });
  EXPECT_EQ(work_calls, 1);
  EXPECT_EQ(consume_calls, 1);
}

TEST(ForBlocksOrdered, ZeroBlockTreatedAsOne) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::size_t> los;
    for_blocks_ordered(
        p, 3, 0, [](std::size_t, std::size_t) {},
        [&](std::size_t lo, std::size_t hi) {
          EXPECT_EQ(hi, lo + 1);
          los.push_back(lo);
        });
    EXPECT_EQ(los, (std::vector<std::size_t>{0, 1, 2}));
  }
}

TEST(ForBlocksOrdered, WorkExceptionPropagates) {
  ThreadPool pool(4);
  std::vector<std::size_t> consumed;
  EXPECT_THROW(for_blocks_ordered(
                   &pool, 1000, 16,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 512) throw std::runtime_error("work");
                   },
                   [&](std::size_t lo, std::size_t) { consumed.push_back(lo); }),
               std::runtime_error);
  pool.wait_idle();  // no stranded tasks referencing dead stack frames
  // Every block before the failing one was consumed, none after it.
  ASSERT_EQ(consumed.size(), 512u / 16u);
  EXPECT_EQ(consumed.back(), 512u - 16u);
}

TEST(ForBlocksOrdered, ConsumeExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(for_blocks_ordered(
                   &pool, 1000, 16, [](std::size_t, std::size_t) {},
                   [](std::size_t lo, std::size_t) {
                     if (lo == 512) throw std::runtime_error("consume");
                   }),
               std::runtime_error);
  pool.wait_idle();
}

TEST(ForBlocksOrdered, NestedInsideWorkerRunsInline) {
  // Same no-deadlock guarantee as parallel_for_blocks: a worker task that
  // itself fans out must not wait on the occupied pool.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(pool.submit([&pool, &total] {
      const auto self = std::this_thread::get_id();
      for_blocks_ordered(
          &pool, 100, 10,
          [&](std::size_t, std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), self);
          },
          [&](std::size_t lo, std::size_t hi) {
            total += static_cast<int>(hi - lo);
          });
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace mummi::util
