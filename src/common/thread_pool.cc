#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/cpu_timer.h"

namespace flexpath {

namespace {

/// -1 off-pool; the worker's index inside its pool otherwise. A plain
/// thread_local int (not per-pool) deliberately: nested-fan-out detection
/// must work across pools, and one thread never serves two pools.
thread_local int t_worker_id = -1;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i] { WorkerLoop(static_cast<int>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
#ifndef NDEBUG
  {
    MutexLock lock(mu_);
    assert(queue_.empty() && "workers drain the queue before exiting");
  }
#endif
}

void ThreadPool::Submit(std::function<void()> task) {
  assert(task != nullptr);
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

bool ThreadPool::OnWorkerThread() { return t_worker_id >= 0; }

int ThreadPool::CurrentWorkerId() { return t_worker_id; }

size_t ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::WorkerLoop(int worker_id) {
  t_worker_id = worker_id;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // An explicit wait loop (not the predicate overload) keeps the
      // guarded reads in this scope, where the analysis sees mu_ held.
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      // Drain-before-exit: stop_ alone is not enough to leave while
      // queued tasks remain (a finishing task may have submitted more).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool),
      inline_only_(pool == nullptr || pool->size() <= 1 ||
                   ThreadPool::OnWorkerThread()) {}

TaskGroup::~TaskGroup() {
#ifndef NDEBUG
  // A group abandoned mid-flight would leave tasks writing into a dead
  // object; Wait() is part of the contract, so enforce it.
  MutexLock lock(mu_);
  assert(scheduled_ == finished_ && "TaskGroup destroyed before Wait()");
#endif
}

void TaskGroup::Run(std::function<void()> fn) {
  ++scheduled_;
  // The deque never moves elements on push_back, so the slot pointer a
  // task carries stays valid while later Run() calls append.
  errors_.push_back(nullptr);
  std::exception_ptr* slot = &errors_.back();
  if (inline_only_) {
    try {
      fn();
    } catch (...) {
      *slot = std::current_exception();
    }
    MutexLock lock(mu_);
    ++finished_;
    return;
  }
  pool_->Submit([this, slot, fn = std::move(fn)] {
    const ThreadCpuTimer cpu;
    try {
      fn();
    } catch (...) {
      *slot = std::current_exception();
    }
    MutexLock lock(mu_);
    worker_cpu_ms_ += cpu.ElapsedMs();
    ++finished_;
    done_cv_.NotifyAll();
  });
}

double TaskGroup::WorkerCpuMs() const {
  MutexLock lock(mu_);
  return worker_cpu_ms_;
}

void TaskGroup::Wait() {
  if (!inline_only_) {
    MutexLock lock(mu_);
    while (finished_ != scheduled_) done_cv_.Wait(lock);
  }
  for (std::exception_ptr& e : errors_) {
    if (e != nullptr) {
      std::exception_ptr first = std::move(e);
      e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

std::vector<std::pair<size_t, size_t>> ChunkRanges(const ThreadPool* pool,
                                                   size_t n, size_t grain) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (n == 0) return ranges;
  grain = std::max<size_t>(1, grain);
  if (pool == nullptr || pool->size() <= 1 || n <= grain ||
      ThreadPool::OnWorkerThread()) {
    ranges.emplace_back(0, n);
    return ranges;
  }
  // More chunks than workers (4x) so an uneven chunk cannot serialize
  // the tail; the cap keeps per-chunk overhead negligible.
  const size_t max_chunks = pool->size() * 4;
  const size_t chunks = std::min(max_chunks, (n + grain - 1) / grain);
  const size_t per_chunk = (n + chunks - 1) / chunks;
  for (size_t begin = 0; begin < n; begin += per_chunk) {
    ranges.emplace_back(begin, std::min(n, begin + per_chunk));
  }
  return ranges;
}

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  const std::vector<std::pair<size_t, size_t>> ranges =
      ChunkRanges(pool, n, grain);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    body(ranges[0].first, ranges[0].second);
    return;
  }
  TaskGroup group(pool);
  for (const auto& [begin, end] : ranges) {
    group.Run([&body, begin = begin, end = end] { body(begin, end); });
  }
  group.Wait();
}

}  // namespace flexpath
