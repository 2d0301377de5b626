#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace mummi::util {

namespace {
// Set while a pool worker is executing a task; lets for_blocks_ordered run
// nested calls inline instead of deadlocking on its own (possibly busy) pool.
thread_local bool t_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) nthreads = std::max(1u, std::thread::hardware_concurrency());
  target_ = nthreads;
}

void ThreadPool::spawn_workers() {
  workers_.reserve(target_);
  for (std::size_t i = 0; i < target_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    t_in_worker = true;
    task();
    t_in_worker = false;
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void for_blocks_ordered(ThreadPool* pool, std::size_t n, std::size_t block,
                        const BlockFn& prepare, const BlockFn& work,
                        const BlockFn& consume) {
  if (n == 0) return;
  if (block == 0) block = 1;
  const std::size_t nblocks = block_count(n, block);
  auto lo = [block](std::size_t b) { return b * block; };
  auto hi = [block, n](std::size_t b) { return std::min((b + 1) * block, n); };
  if (pool == nullptr || pool->size() <= 1 || nblocks <= 1 || t_in_worker) {
    for (std::size_t b = 0; b < nblocks; ++b) {
      prepare(lo(b), hi(b));
      work(lo(b), hi(b));
      consume(lo(b), hi(b));
    }
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(nblocks);
  std::exception_ptr prepare_failed;
  try {
    for (std::size_t b = 0; b < nblocks; ++b) {
      try {
        prepare(lo(b), hi(b));
      } catch (...) {
        // The serial path consumed every block before this one; so does
        // this path, unless one of their works failed first.
        prepare_failed = std::current_exception();
        break;
      }
      done.push_back(pool->submit([&work, lo, hi, b] { work(lo(b), hi(b)); }));
    }
    for (std::size_t b = 0; b < done.size(); ++b) {
      done[b].get();  // rethrows a work failure for block b
      consume(lo(b), hi(b));
    }
  } catch (...) {
    // In-flight tasks capture locals by reference; none may outlive this
    // frame, whichever callable threw.
    for (auto& f : done)
      if (f.valid()) f.wait();
    throw;
  }
  if (prepare_failed) std::rethrow_exception(prepare_failed);
}

void for_blocks_ordered(ThreadPool* pool, std::size_t n, std::size_t block,
                        const BlockFn& work, const BlockFn& consume) {
  for_blocks_ordered(pool, n, block, [](std::size_t, std::size_t) {}, work,
                     consume);
}

void for_blocks(ThreadPool* pool, std::size_t n, std::size_t block,
                const BlockFn& fn) {
  for_blocks_ordered(pool, n, block, fn, [](std::size_t, std::size_t) {});
}

}  // namespace mummi::util
