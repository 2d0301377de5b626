#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
  for_blocks(&pool, 1000, 64, [&](std::size_t lo, std::size_t hi) {
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
    for_blocks(&pool, n, block, [&](std::size_t lo, std::size_t hi) {
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
  // A worker task issuing its own for_blocks must not deadlock waiting on
  // the (occupied) pool — the nested call runs inline.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(pool.submit([&pool, &total] {
      for_blocks(&pool, 100, 10, [&](std::size_t lo, std::size_t hi) {
        total += static_cast<int>(hi - lo);
      });
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, ParallelForBlocksPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(for_blocks(&pool, 1000, 16,
                          [&](std::size_t lo, std::size_t) {
                            if (lo == 512) throw std::runtime_error("x");
                          }),
               std::runtime_error);
}

TEST(ForBlocks, ThrowWaitsOutEveryStartedBlock) {
  // Blocks capture the caller's callable by reference, so none may still be
  // running when the exception reaches the caller. Block 0 throws once
  // another block has started; the others sleep, so a rethrow that does not
  // wait them out sees started blocks that have not finished.
  ThreadPool pool(4);
  std::atomic<int> started{0}, finished{0};
  int started_at_catch = -1, finished_at_catch = -1;
  try {
    for_blocks(&pool, 8, 1, [&](std::size_t lo, std::size_t) {
      if (lo == 0) {
        while (started.load() == 0) std::this_thread::yield();
        throw std::runtime_error("block 0");
      }
      ++started;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
    });
  } catch (const std::runtime_error&) {
    finished_at_catch = finished.load();
    started_at_catch = started.load();
  }
  pool.wait_idle();
  EXPECT_EQ(started_at_catch, 7);
  EXPECT_EQ(finished_at_catch, started_at_catch);
}

TEST(ForBlocks, LowestFailingBlockWins) {
  // Every block throws its own index; the caller sees block 0's, at any
  // pool size.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    try {
      for_blocks(p, 64, 4, [](std::size_t lo, std::size_t) {
        throw std::runtime_error(std::to_string(lo));
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0");
    }
  }
}

TEST(BlockSize, EngineConstantsPinned) {
  // Block seams decide the fold order of the MD forces, the continuum
  // footprints and the in-situ tick, so these pairs are part of the
  // bit-identity contract (and of the golden corpus).
  EXPECT_EQ(block_count(0, 512), 0u);
  EXPECT_EQ(block_count(5, 0), 5u);  // block 0 is treated as 1
  // MD kernels: 512 / 16.
  EXPECT_EQ(block_size(100, 512, 16), 512u);
  EXPECT_EQ(block_count(100, block_size(100, 512, 16)), 1u);
  EXPECT_EQ(block_size(100000, 512, 16), 6250u);
  EXPECT_EQ(block_count(100000, block_size(100000, 512, 16)), 16u);
  // Continuum rows: 8 / 16.
  EXPECT_EQ(block_size(24, 8, 16), 8u);
  EXPECT_EQ(block_count(24, block_size(24, 8, 16)), 3u);
  EXPECT_EQ(block_count(192, block_size(192, 8, 16)), 16u);
  // Continuum proteins: 16 / 8.
  EXPECT_EQ(block_size(30, 16, 8), 16u);
  EXPECT_EQ(block_count(30, block_size(30, 16, 8)), 2u);
  EXPECT_EQ(block_count(100000, block_size(100000, 16, 8)), 8u);
  // In-situ tick: 16 / 32.
  EXPECT_EQ(block_size(100, 16, 32), 16u);
  EXPECT_EQ(block_count(512, block_size(512, 16, 32)), 32u);
  EXPECT_EQ(block_size(2200, 16, 32), 69u);
  EXPECT_EQ(block_count(2200, block_size(2200, 16, 32)), 32u);
  // Snapshot synthesis: 128 / 16 (campaign_insitu's 20 proteins run inline,
  // campaign_resilient's 3,000 take 16 blocks).
  EXPECT_EQ(block_count(20, block_size(20, 128, 16)), 1u);
  EXPECT_EQ(block_size(1000, 128, 16), 128u);
  EXPECT_EQ(block_count(1000, block_size(1000, 128, 16)), 8u);
  EXPECT_EQ(block_size(3000, 128, 16), 188u);
  EXPECT_EQ(block_count(3000, block_size(3000, 128, 16)), 16u);
  // Footprint fold: 4096 / 16.
  EXPECT_EQ(block_size(16 * 16 * 4, 4096, 16), 4096u);
  EXPECT_EQ(block_size(192 * 192 * 4, 4096, 16), 9216u);
}

TEST(BlockScratch, FoldMatchesSerialAscendingSumBitwise) {
  // Magnitudes spread over 30 decades, so the per-element sum depends on
  // the order its terms are added in.
  const std::size_t n = 1000, nblocks = 6;
  std::vector<std::vector<double>> parts(nblocks, std::vector<double>(n));
  std::uint64_t x = 88172645463325252ULL;
  for (auto& part : parts)
    for (double& v : part) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = std::ldexp(static_cast<double>(x >> 11), -53) - 0.5;
      v *= std::pow(10.0, static_cast<double>(x % 31) - 15);
    }
  std::vector<double> base(n, 0.25), want = base, reversed = base;
  for (std::size_t b = 0; b < nblocks; ++b)
    for (std::size_t i = 0; i < n; ++i) want[i] += parts[b][i];
  for (std::size_t b = nblocks; b-- > 0;)
    for (std::size_t i = 0; i < n; ++i) reversed[i] += parts[b][i];
  ASSERT_NE(std::memcmp(want.data(), reversed.data(), n * sizeof(double)), 0)
      << "values do not exercise summation order";

  ThreadPool p2(2), p8(8);
  BlockScratch<double> scratch;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p2, &p8}) {
    scratch.reset(nblocks, n);
    for (std::size_t b = 0; b < nblocks; ++b)
      std::copy(parts[b].begin(), parts[b].end(), scratch.block(b));
    std::vector<double> out = base;
    scratch.fold(out.data(), pool, 64);
    EXPECT_EQ(std::memcmp(out.data(), want.data(), n * sizeof(double)), 0);
  }
}

TEST(BlockScratch, BuffersZeroAfterFold) {
  ThreadPool pool(4);
  BlockScratch<double> scratch;
  scratch.reset(3, 500);
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t i = 0; i < 500; ++i) scratch.block(b)[i] = 1.0 + b;
  std::vector<double> out(500, 0.0);
  scratch.fold(out.data(), &pool, 100);
  for (std::size_t i = 0; i < 500; ++i) ASSERT_EQ(out[i], 6.0);
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t i = 0; i < 500; ++i) ASSERT_EQ(scratch.block(b)[i], 0.0);
  // Same shape again: the buffers are reused, not reallocated.
  const double* first = scratch.block(0);
  scratch.reset(3, 500);
  EXPECT_EQ(scratch.block(0), first);
}

TEST(BlockScratch, ThrowBetweenResetAndFoldForcesReClear) {
  BlockScratch<double> scratch;
  auto scatter_then_throw = [&](std::size_t nblocks) {
    scratch.reset(nblocks, 16);
    try {
      for_blocks(nullptr, nblocks, 1, [&](std::size_t lo, std::size_t) {
        scratch.block(lo)[3] = 7.0;
        if (lo + 1 == nblocks) throw std::runtime_error("mid-scatter");
      });
    } catch (const std::runtime_error&) {
    }
  };
  auto all_zero = [&](std::size_t nblocks) {
    for (std::size_t b = 0; b < nblocks; ++b)
      for (std::size_t i = 0; i < 16; ++i)
        if (scratch.block(b)[i] != 0.0) return false;
    return true;
  };
  // Same shape: the unfolded writes must not leak into the next pass.
  scatter_then_throw(2);
  scratch.reset(2, 16);
  EXPECT_TRUE(all_zero(2));
  // Fewer blocks after the throw, then more: the buffers the short pass did
  // not use must not keep their stale writes either.
  scatter_then_throw(4);
  scratch.reset(1, 16);
  std::vector<double> out(16, 0.0);
  scratch.fold(out.data(), nullptr, 16);
  scratch.reset(4, 16);
  EXPECT_TRUE(all_zero(4));
}

TEST(EnvSharedPool, ResolvesFromPoolSizeEnv) {
  // A null pool is serial: every block runs on the caller's thread, in
  // order, and no environment variable conjures a pool (the former
  // MUMMI_POOL_SIZE switch is set here to prove it is inert).
  ::setenv("MUMMI_POOL_SIZE", "4", 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  for_blocks_ordered(
      nullptr, 100, 10,
      [&](std::size_t lo, std::size_t) {
        ran_on.push_back(std::this_thread::get_id());
        order.push_back(lo);
      },
      [](std::size_t, std::size_t) {});
  ::unsetenv("MUMMI_POOL_SIZE");
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t b = 0; b < order.size(); ++b) {
    EXPECT_EQ(order[b], b * 10);
    EXPECT_EQ(ran_on[b], caller);
  }
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
  // Same no-deadlock guarantee as for_blocks: a worker task that
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

TEST(ForBlocksOrdered, PrepareRunsOnCallerAscendingBeforeWork) {
  ThreadPool pool(4);
  const std::size_t n = 1000, block = 64, nblocks = (n + block - 1) / block;
  std::vector<std::size_t> prepared;  // written on the caller only
  std::vector<int> ready(nblocks, 0);  // published to work by submit()
  std::atomic<int> unprepared_work{0};
  const auto caller = std::this_thread::get_id();
  for_blocks_ordered(
      &pool, n, block,
      [&](std::size_t lo, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        prepared.push_back(lo);
        ready[lo / block] = 1;
      },
      [&](std::size_t lo, std::size_t) {
        if (ready[lo / block] != 1) ++unprepared_work;
      },
      [](std::size_t, std::size_t) {});
  EXPECT_EQ(unprepared_work.load(), 0);
  ASSERT_EQ(prepared.size(), nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) EXPECT_EQ(prepared[b], b * block);
}

// Draw / transform / route over [0, n): prepare draws each item's input from
// one sequential stream, work transforms it in place, consume appends it.
// Returns the prepare and consume sequences and the routed output.
struct PrepareTrace {
  std::vector<std::size_t> prepared, consumed;
  std::vector<double> out;
  bool operator==(const PrepareTrace&) const = default;
};
PrepareTrace prepare_trace(ThreadPool* pool, std::size_t n, std::size_t block,
                           std::size_t throw_at = ~std::size_t{0}) {
  PrepareTrace t;
  std::vector<double> staged(n);
  std::uint64_t x = 88172645463325252ULL;
  try {
    for_blocks_ordered(
        pool, n, block,
        [&](std::size_t lo, std::size_t hi) {
          if (lo == throw_at) throw std::runtime_error("prepare");
          t.prepared.push_back(lo);
          for (std::size_t i = lo; i < hi; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            staged[i] = static_cast<double>(x >> 11) * 0x1.0p-53;
          }
        },
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            staged[i] = std::sin(staged[i] + static_cast<double>(i));
        },
        [&](std::size_t lo, std::size_t hi) {
          t.consumed.push_back(lo);
          t.out.insert(t.out.end(), staged.begin() + static_cast<long>(lo),
                       staged.begin() + static_cast<long>(hi));
        });
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "prepare");
  }
  return t;
}

TEST(ForBlocksOrdered, PrepareSerialAndPooledTracesIdentical) {
  ThreadPool p1(1), p2(2), p3(3), p8(8);
  for (const std::size_t n : {1u, 16u, 17u, 337u, 1000u}) {
    const PrepareTrace want = prepare_trace(nullptr, n, 16);
    ASSERT_EQ(want.out.size(), n);
    for (ThreadPool* p : {&p1, &p2, &p3, &p8})
      EXPECT_TRUE(prepare_trace(p, n, 16) == want)
          << "n=" << n << " pool=" << p->size();
  }
}

TEST(ForBlocksOrdered, PrepareThrowWaitsOutEarlierBlocks) {
  // prepare(k) throws: blocks before k were submitted and must finish (and
  // be consumed, as on the serial path) before the exception reaches the
  // caller; no block from k on is worked.
  ThreadPool pool(4);
  const std::size_t block = 10, k = 5;
  std::atomic<int> worked{0}, finished{0};
  int finished_at_catch = -1;
  std::vector<std::size_t> consumed;
  try {
    for_blocks_ordered(
        &pool, 100, block,
        [&](std::size_t lo, std::size_t) {
          if (lo == k * block) throw std::runtime_error("prepare");
        },
        [&](std::size_t, std::size_t) {
          ++worked;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          ++finished;
        },
        [&](std::size_t lo, std::size_t) { consumed.push_back(lo); });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "prepare");
    finished_at_catch = finished.load();
  }
  pool.wait_idle();
  EXPECT_EQ(worked.load(), static_cast<int>(k));
  EXPECT_EQ(finished_at_catch, static_cast<int>(k));
  EXPECT_EQ(consumed, (std::vector<std::size_t>{0, 10, 20, 30, 40}));
  // The serial path stops at the same place.
  ThreadPool p2(2);
  EXPECT_TRUE(prepare_trace(&p2, 100, block, k * block) ==
              prepare_trace(nullptr, 100, block, k * block));
}

TEST(ForBlocksOrdered, PrepareThrowLosesToEarlierWorkFailure) {
  // work(2) fails before prepare(5) does on the serial path; the pooled path
  // reports the same, lowest failing block.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    try {
      for_blocks_ordered(
          p, 100, 10,
          [](std::size_t lo, std::size_t) {
            if (lo == 50) throw std::runtime_error("prepare");
          },
          [](std::size_t lo, std::size_t) {
            if (lo == 20) throw std::runtime_error("work");
          },
          [](std::size_t, std::size_t) {});
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "work");
    }
    pool.wait_idle();
  }
}

TEST(ForBlocksOrdered, PrepareNestedInsideWorkerRunsInline) {
  // A nested call inside a worker runs prepare, work and consume inline on
  // that worker, block by block.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(pool.submit([&pool, &total] {
      const auto self = std::this_thread::get_id();
      std::vector<char> steps;
      auto step = [&](char c) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        steps.push_back(c);
      };
      for_blocks_ordered(
          &pool, 30, 10, [&](std::size_t, std::size_t) { step('p'); },
          [&](std::size_t, std::size_t) { step('w'); },
          [&](std::size_t lo, std::size_t hi) {
            step('c');
            total += static_cast<int>(hi - lo);
          });
      EXPECT_EQ(std::string(steps.begin(), steps.end()), "pwcpwcpwc");
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 120);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  // There is no process-wide pool; an owner that wants one worker per
  // hardware thread constructs ThreadPool(0).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), hw);
  EXPECT_EQ(ThreadPool().size(), hw);
}

}  // namespace
}  // namespace mummi::util
