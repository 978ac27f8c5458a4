#ifndef FLEXPATH_COMMON_MUTEX_H_
#define FLEXPATH_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace flexpath {

/// A std::mutex wrapper that carries the Clang capability annotation so
/// the thread-safety analysis can check GUARDED_BY/REQUIRES contracts at
/// compile time (std::mutex itself is unannotated under libstdc++).
/// Zero-cost: the wrapper is exactly a std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a Mutex, annotated as a scoped capability so the
/// analysis tracks its acquire/release. Use instead of std::lock_guard /
/// std::unique_lock for flexpath::Mutex (the std guards carry no
/// annotations under libstdc++ and would leave the analysis blind).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to flexpath::Mutex via MutexLock. Wait()
/// unlocks and relocks underneath — invisible to the static analysis,
/// which (correctly) sees the capability held whenever the predicate
/// runs.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Pred>
  void Wait(MutexLock& lock, Pred&& pred) {
    cv_.wait(lock.lock_, std::forward<Pred>(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_MUTEX_H_
