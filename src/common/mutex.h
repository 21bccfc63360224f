#ifndef BCCS_COMMON_MUTEX_H_
#define BCCS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace bccs {

/// std::mutex wrapped as an annotated capability. Clang's thread-safety
/// analysis only tracks locks taken through annotated functions, so every
/// mutex in the concurrent layers (changelog commit lock, epoch head,
/// admission queue, worker pool, pair table) is a bccs::Mutex: a lock taken
/// through any other path is a compile error under -Wthread-safety, not a
/// latent race.
///
/// The lowercase lock()/unlock() spelling keeps the type BasicLockable, so
/// CondVar (std::condition_variable_any underneath) waits on it directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII guard over Mutex — the annotated std::lock_guard. Scope-bound only;
/// there is deliberately no unlock()/release() escape: a region that needs
/// finer control should restructure, not juggle the guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait/WaitFor take the *mutex*
/// (which the caller must hold), not a guard object, so the REQUIRES
/// contract is visible to the analysis: the wait atomically releases and
/// reacquires `mu`, leaving the caller's lockset unchanged across the call.
///
/// Deliberately no predicate overloads: a predicate lambda is analyzed as
/// its own function and would read guarded state without a visible lockset.
/// Callers write the explicit loop — `while (!cond) cv.Wait(mu);` — inside
/// the function that holds the lock, which the analysis checks end to end.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Waits at most `dur` (or a spurious wakeup / notify, whichever first).
  /// Callers re-check their condition in the surrounding loop.
  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& dur) REQUIRES(mu) {
    cv_.wait_for(mu, dur);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace bccs

#endif  // BCCS_COMMON_MUTEX_H_
