// Fixed-size worker pool with task futures and a blocked-range parallel_for.
//
// This is the process-pool analogue of the paper's "tailored multiprocessing
// pools" (Task 4) and also drives the thread-parallel force/field loops in
// the MD and DDFT engines.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mummi::util {

class ThreadPool {
 public:
  /// Pool of `nthreads` workers; 0 means std::thread::hardware_concurrency().
  /// Worker threads are spawned lazily on the first `submit` — a pool whose
  /// callers only ever take the inline paths (single worker, tiny ranges,
  /// nested calls) never creates a thread, which keeps single-threaded
  /// processes on the allocator's uncontended fast path.
  explicit ThreadPool(std::size_t nthreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return target_; }

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    std::call_once(spawned_, [this] { spawn_workers(); });
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(begin, end) over [0, n) split into roughly equal blocks, one per
  /// worker, and waits for completion. Executes inline when the pool has a
  /// single worker or the range is tiny.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Like parallel_for, but the block boundaries are a function of `n` and
  /// `block` only — NOT of the worker count. Any reduction whose result could
  /// depend on block boundaries (e.g. per-block argmax merged with a
  /// tie-break) is therefore identical on a 1-thread and a 64-thread pool.
  /// Blocks are executed in unspecified order; fn must only touch state owned
  /// by its [begin, end) range or merge results deterministically afterwards.
  /// Safe to call from inside a worker task (runs inline, same boundaries).
  void parallel_for_blocks(
      std::size_t n, std::size_t block,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Blocks until every queued and running task has finished.
  void wait_idle();

 private:
  void worker_loop();
  void spawn_workers();

  std::size_t target_ = 1;
  std::once_flag spawned_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Process-level singleton pool for library internals (MD forces, DDFT
/// stencils). Sized once from hardware concurrency.
ThreadPool& global_pool();

/// Runs fn(begin, end) over [0, n) in blocks of `block`: serial in ascending
/// block order when pool is null, pool->parallel_for_blocks otherwise. The
/// block boundaries are identical either way, so a kernel that only touches
/// state owned by its block (or folds per-block partials in ascending block
/// order afterwards) is thread-count independent by construction. Both the
/// MD force engine and the continuum stencil engine run through this.
void for_blocks(ThreadPool* pool, std::size_t n, std::size_t block,
                const std::function<void(std::size_t, std::size_t)>& fn);

/// Ordered fan-out over [0, n) in blocks of `block` (0 is treated as 1):
/// `work(lo, hi)` runs for every block as a pool task, concurrently across
/// blocks, while the caller runs `consume(lo, hi)` for block b in ascending
/// block order as soon as work(b) has finished — so the serial consume
/// overlaps the blocks still in flight. Block boundaries are a function of
/// (n, block) only and consume sees every block exactly once in ascending
/// order on both paths, so a caller whose work writes only its own items and
/// whose consume folds them gets bit-identical results at any pool size.
/// Runs serially (work(b) then consume(b), block by block) when pool is null
/// or has one worker, when there is a single block, or inside a worker. If
/// either callable throws, every in-flight block is waited out before the
/// exception propagates, so no task outlives the caller's frame.
void for_blocks_ordered(ThreadPool* pool, std::size_t n, std::size_t block,
                        const std::function<void(std::size_t, std::size_t)>& work,
                        const std::function<void(std::size_t, std::size_t)>& consume);

/// Pool resolution for engine configs whose `pool` field is null: the shared
/// global_pool() when MUMMI_POOL_SIZE requests more than one worker, nullptr
/// (serial) otherwise. Read on every call (cheap, per-engine not per-step)
/// so tests and tools can flip the env var. Output is bit-identical either
/// way — the env var only trades wall time.
ThreadPool* env_shared_pool();

}  // namespace mummi::util
