// Fixed-size worker pool plus the one deterministic blocked-parallel layer
// every engine runs through.
//
// The pool is the process-pool analogue of the paper's "tailored
// multiprocessing pools" (Task 4). On top of it sit three pieces, shared by
// the MD force engine, the continuum (DDFT) stencils, the in-situ campaign
// tick and the farthest-point selector's rank refresh:
//   - block_size / block_count: the one rule that turns a problem size into
//     block boundaries. Boundaries depend on (n, min_block, target_blocks)
//     only, never on the worker count.
//   - for_blocks / for_blocks_ordered: a blocked map over [0, n), optionally
//     with a serial prepare step on the caller before each block is
//     submitted and an ordered consume step on the caller after it finishes.
//     One body serves all three forms.
//   - BlockScratch<T>: per-block scatter buffers folded into an output in
//     ascending block order.
// A caller that writes only its own block's items, or scatters into its own
// BlockScratch buffer and folds, is bit-identical at any pool size.
//
// One rule for where work runs: a layer runs on the pool its owner passes;
// null is serial. No layer reaches for a pool nobody passed it.
#pragma once

#include <algorithm>
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

using BlockFn = std::function<void(std::size_t, std::size_t)>;

/// Block size for n items: ceil(n / target_blocks) items, never below
/// min_block so small inputs do not pay fan-out overhead. A function of its
/// arguments only, so block seams never depend on the pool.
inline std::size_t block_size(std::size_t n, std::size_t min_block,
                              std::size_t target_blocks) {
  return std::max(min_block, (n + target_blocks - 1) / target_blocks);
}

/// Number of blocks of `block` items over [0, n) (0 is treated as 1, as in
/// for_blocks).
inline std::size_t block_count(std::size_t n, std::size_t block) {
  return block == 0 ? n : (n + block - 1) / block;
}

/// Ordered fan-out over [0, n) in blocks of `block` (0 is treated as 1):
/// `work(lo, hi)` runs for every block as a pool task, concurrently across
/// blocks, while the caller runs `consume(lo, hi)` for block b in ascending
/// block order as soon as work(b) has finished — so the serial consume
/// overlaps the blocks still in flight. Block boundaries are a function of
/// (n, block) only and consume sees every block exactly once in ascending
/// order on both paths, so a caller whose work writes only its own items and
/// whose consume folds them gets bit-identical results at any pool size.
/// Runs serially (work(b) then consume(b), block by block) when pool is null
/// or has one worker, when there is a single block, or inside a worker (so a
/// nested call cannot deadlock on its own busy pool). If either callable
/// throws, every in-flight block is waited out before the exception
/// propagates, so no task outlives the caller's frame; the exception is the
/// one from the lowest failing block.
void for_blocks_ordered(ThreadPool* pool, std::size_t n, std::size_t block,
                        const BlockFn& work, const BlockFn& consume);

/// for_blocks_ordered with a serial `prepare(lo, hi)` step before each
/// block's work: the caller runs it in ascending block order just before it
/// submits that block, so preparing block b + 1 overlaps work(b) — a caller
/// can draw block b + 1's inputs from one sequential stream while the pool
/// transforms block b's. The serial path runs prepare(b), work(b),
/// consume(b) block by block. If prepare(k) throws, the blocks before k are
/// waited out and consumed, as the serial path would have, and then its
/// exception propagates (unless a work before k failed first: the lowest
/// failing block still wins).
void for_blocks_ordered(ThreadPool* pool, std::size_t n, std::size_t block,
                        const BlockFn& prepare, const BlockFn& work,
                        const BlockFn& consume);

/// for_blocks_ordered with no consume step: runs fn(lo, hi) over every block
/// and returns once all blocks have finished.
void for_blocks(ThreadPool* pool, std::size_t n, std::size_t block,
                const BlockFn& fn);

/// Per-block scatter buffers with a fixed-order fold.
///
/// Block b writes freely into block(b), n zeroed elements. fold() adds the
/// buffers into an output array per element in ascending block order —
/// bit-identical for any worker count — and re-zeroes them on the way out,
/// so the next reset() on the same shape skips the O(nblocks * n) clear.
/// Buffers persist across calls; steady-state cost is the fold, not
/// allocation or clearing.
template <typename T>
class BlockScratch {
 public:
  /// Ensures `nblocks` zeroed buffers of `n` elements each.
  void reset(std::size_t nblocks, std::size_t n) {
    // Buffers a completed fold left behind are already zero. Writes that
    // were never folded (an exception between reset and fold) force a
    // re-clear of every buffer, including ones this shape does not use.
    if (dirty_)
      for (auto& buf : buf_) std::fill(buf.begin(), buf.end(), T{});
    if (buf_.size() < nblocks) buf_.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b)
      if (buf_[b].size() != n) buf_[b].assign(n, T{});
    nblocks_ = nblocks;
    n_ = n;
    dirty_ = true;
  }

  [[nodiscard]] T* block(std::size_t b) { return buf_[b].data(); }

  /// out[i] += block(b)[i] for b ascending, over [0, n) in element blocks of
  /// `block` on the pool; then re-zeroes the buffers. Each element folds
  /// independently, so `block` only trades wall time.
  void fold(T* out, ThreadPool* pool, std::size_t block) {
    if (nblocks_ > 0)
      for_blocks(pool, n_, block, [this, out](std::size_t lo, std::size_t hi) {
        for (std::size_t b = 0; b < nblocks_; ++b) {
          T* f = buf_[b].data();
          for (std::size_t i = lo; i < hi; ++i) {
            out[i] += f[i];
            f[i] = T{};
          }
        }
      });
    dirty_ = false;
  }

 private:
  std::size_t nblocks_ = 0;
  std::size_t n_ = 0;
  bool dirty_ = false;  // writes pending that fold has not cleared
  std::vector<std::vector<T>> buf_;
};

}  // namespace mummi::util
