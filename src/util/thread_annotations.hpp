// Clang thread-safety analysis: capability macros and annotated sync
// primitives (see docs/ANALYSIS.md, "Static concurrency analysis").
//
// Every lock in the tree is a cbde::Mutex acquired through cbde::LockGuard
// (scoped) or waited on through cbde::CondVar; the raw std primitives are
// banned outside this header by tools/lint/cbde_lint.py. In exchange, a
// Clang build with -Wthread-safety -Wthread-safety-beta (the clang-tsa
// preset; errors, not warnings) proves at compile time that every
// GUARDED_BY field is only touched under its mutex and every REQUIRES
// helper is only called with the lock held. GCC and other compilers see
// ordinary std::mutex behavior: the macros expand to nothing.
//
// Annotation conventions:
//   * shared fields:      util::Bytes buf_ GUARDED_BY(mu_);
//   * locked helpers:     void commit() REQUIRES(mu_);  // caller holds mu_
//   * public entry points: void serve() EXCLUDES(mu_);  // not reentrant
//   * NO_THREAD_SAFETY_ANALYSIS is reserved for the primitives in this
//     header; it is forbidden in src/core (the negative-compile fixture and
//     ci.sh keep it that way).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/lock_wait.hpp"

// Expand to Clang's capability attributes when the compiler understands
// them; to nothing otherwise (GCC compiles the tree unannotated).
#if defined(__clang__)
#define CBDE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define CBDE_THREAD_ANNOTATION__(x)
#endif

#define CAPABILITY(x) CBDE_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY CBDE_THREAD_ANNOTATION__(scoped_lockable)
#define GUARDED_BY(x) CBDE_THREAD_ANNOTATION__(guarded_by(x))
#define PT_GUARDED_BY(x) CBDE_THREAD_ANNOTATION__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CBDE_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CBDE_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) CBDE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  CBDE_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) CBDE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  CBDE_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) CBDE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  CBDE_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  CBDE_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) CBDE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  CBDE_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) CBDE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CBDE_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  CBDE_THREAD_ANNOTATION__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) CBDE_THREAD_ANNOTATION__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS CBDE_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace cbde {

/// Annotated exclusive mutex. Same cost and semantics as the std mutex it
/// wraps, but the analysis can track it as a capability.
///
/// Opt-in lock-wait profiling (docs/OBSERVABILITY.md): attach_wait_profile()
/// points the mutex at a util::LockWaitCell; subsequent lock() calls take a
/// timed path that times contended waits and feeds every acquisition's wait
/// to the cell's observe callback. Unprofiled mutexes pay one acquire load
/// per lock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    util::LockWaitCell* cell = profile_.load(std::memory_order_acquire);
    if (cell != nullptr) {
      lock_profiled(*cell);
      return;
    }
    mu_.lock();
  }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Attach (or detach with nullptr) a profiling cell. Wire-up only: call
  /// while the mutex is not yet contended (construction time); the cell must
  /// outlive the mutex.
  void attach_wait_profile(util::LockWaitCell* cell) noexcept {
    profile_.store(cell, std::memory_order_release);
  }

 private:
  void lock_profiled(util::LockWaitCell& cell) {
    // Fast path: an uncontended acquisition costs one try_lock and no clock
    // read. Only a failed try pays for two steady_clock calls.
    std::uint64_t wait_us = 0;
    if (!mu_.try_lock()) {
      const auto t0 = std::chrono::steady_clock::now();
      mu_.lock();
      wait_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (cell.observe != nullptr) cell.observe(cell.target, wait_us);
  }

  /// Profiling cell; null = unprofiled. Written once during wiring
  /// (release), read on every lock (acquire) so the attaching thread's cell
  /// initialization is visible to lockers.
  std::atomic<util::LockWaitCell*> profile_{nullptr};
  std::mutex mu_;
};

/// RAII lock for Mutex; the analysis tracks the capability for the guard's
/// scope. Deliberately minimal: no deferred/adopted modes, no early unlock —
/// structure the critical section with block scope instead.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with Mutex. wait() atomically releases and
/// reacquires the mutex, so callers keep the capability across the call —
/// REQUIRES expresses exactly that contract. Spurious wakeups happen; always
/// wait in a `while (!predicate) cv.wait(mu);` loop written out in the
/// caller (a predicate lambda would be opaque to the analysis).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The body hands the mutex to the std primitive, which unlocks/relocks it
  // outside the analysis's view; suppressing analysis *inside* this wrapper
  // is the only sanctioned NO_THREAD_SAFETY_ANALYSIS use in the tree.
  void wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cbde
