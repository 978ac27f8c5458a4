#ifndef FLEXPATH_COMMON_THREAD_POOL_H_
#define FLEXPATH_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace flexpath {

/// A fixed-size worker pool with one shared FIFO work queue. Built for
/// the query pipeline's fan-out points (relaxation rounds, per-step tuple
/// chunks): tasks are small closures over shared *immutable* state, so
/// the pool provides scheduling only — no per-task results, no futures.
/// Use TaskGroup on top for joining and exception propagation.
///
/// Threads are started in the constructor and joined in the destructor;
/// destruction drains every task already queued (tasks submitted by
/// running tasks included) before the workers exit, so a pool going out
/// of scope never strands work.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then stops and joins every worker.
  ~ThreadPool();

  size_t size() const { return threads_.size(); }

  /// Enqueues one task. Safe to call from any thread, including pool
  /// workers (a task may submit follow-up tasks). Tasks must not throw —
  /// an escaping exception terminates the process, as from any thread;
  /// route fallible work through TaskGroup, which catches and re-throws
  /// on the joining thread.
  void Submit(std::function<void()> task);

  /// True when the calling thread is a worker of *any* ThreadPool. Used
  /// to run nested fan-outs inline: a task that itself fans out must not
  /// block on sub-tasks queued behind it (deadlock when every worker
  /// waits this way), and the outer fan-out already owns the parallelism.
  static bool OnWorkerThread();

  /// Index of the calling worker within its pool, or -1 off-pool. Stable
  /// for a worker's lifetime; used to attribute trace spans and per-worker
  /// scratch space.
  static int CurrentWorkerId();

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows 0 for "unknown").
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop(int worker_id);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// Joins a batch of tasks and re-throws the first exception any of them
/// raised ("first" by submission order, so which exception wins never
/// depends on thread scheduling):
///
///   TaskGroup group(pool);
///   for (auto& item : items) group.Run([&item] { Process(item); });
///   group.Wait();  // re-throws here, on the calling thread
///
/// With a null pool (or from inside a pool worker — see
/// ThreadPool::OnWorkerThread) tasks run inline on the calling thread at
/// Run(), preserving the sequential order; Wait() is then a no-op check.
class TaskGroup {
 public:
  /// `pool` may be null: every task then runs inline.
  explicit TaskGroup(ThreadPool* pool);

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Wait() must have returned (or never-Run) before destruction.
  ~TaskGroup();

  /// Schedules `fn`. Must not be called concurrently with itself or with
  /// Wait() (one thread drives a group).
  void Run(std::function<void()> fn);

  /// Blocks until every task scheduled so far has finished, then
  /// re-throws the first (by submission order) captured exception.
  void Wait();

  /// Thread-CPU milliseconds the group's tasks burned *on pool workers*
  /// (measured per task with CLOCK_THREAD_CPUTIME_ID at the task
  /// boundary). Inline-run tasks contribute nothing — their CPU already
  /// belongs to the calling thread, which the caller times itself; the
  /// split lets resource accounting sum caller + worker CPU without
  /// double counting. Call after Wait().
  double WorkerCpuMs() const;

 private:
  ThreadPool* pool_;
  bool inline_only_;
  mutable Mutex mu_;
  CondVar done_cv_;
  size_t scheduled_ = 0;  ///< Only the driving thread writes/reads.
  size_t finished_ GUARDED_BY(mu_) = 0;
  double worker_cpu_ms_ GUARDED_BY(mu_) = 0.0;
  /// Captured exceptions in submission order; first non-null wins. A
  /// deque so slots stay at stable addresses while Run() keeps appending
  /// — in-flight tasks hold pointers to their own slot. Deliberately not
  /// GUARDED_BY(mu_): each task writes only its own slot, and Wait()'s
  /// finished_ == scheduled_ read under mu_ publishes every slot before
  /// the driving thread scans them.
  std::deque<std::exception_ptr> errors_;
};

/// Splits [0, n) into contiguous chunks for a pool fan-out. The split is
/// a pure function of (n, grain, pool size): at most 4 chunks per worker,
/// none smaller than `grain` (except the last), one single chunk when the
/// fan-out would be pointless (null pool, single worker, n <= grain, or
/// the caller is itself a pool worker — nested fan-outs run inline).
/// Callers that keep per-chunk outputs and merge them by chunk index get
/// results independent of thread count and scheduling.
std::vector<std::pair<size_t, size_t>> ChunkRanges(const ThreadPool* pool,
                                                   size_t n, size_t grain);

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_THREAD_POOL_H_
