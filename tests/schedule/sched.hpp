// Deterministic interleaving explorer (docs/ANALYSIS.md, "The interleaving
// explorer"): a cooperative scheduler that runs N task bodies on real
// threads but lets exactly one run at a time, switching only at explicit
// scheduling points (lock acquire, condvar wait/notify, point(); unlock is
// deliberately not one — put a point() after it where the gap matters).
// Every switch consults a decision vector, so a run is a pure function of
// its decisions: re-running with the same vector replays the exact
// interleaving. Explorer enumerates decision vectors depth-first with a
// CHESS-style preemption bound and an iteration budget, reporting the first
// schedule that fails a model assertion or deadlocks.
//
// This harness drives *models* of the tree's concurrency protocols
// (tests/schedule/pool_model.hpp), not the production classes themselves:
// the models use SchedMutex/SchedCondVar where production code uses
// cbde::Mutex/CondVar, keeping the state space tiny and the exploration
// exhaustive within budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace cbde::sched {

class SchedMutex;
class SchedCondVar;

/// Thrown into task bodies when the scheduler aborts a run (assertion
/// failure or deadlock) so they unwind promptly instead of spinning on
/// predicates that will never become true.
struct TaskAborted {};

class Scheduler {
 public:
  /// `decisions` replays a previously recorded schedule prefix; indices
  /// beyond it default to choice 0 and are appended, so decisions() after
  /// run() always describes the complete schedule. `preemption_bound` caps
  /// how many times a still-runnable task may be switched away from.
  explicit Scheduler(std::vector<int> decisions, int preemption_bound);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a task body. All spawns must happen before run().
  void spawn(std::function<void()> body);

  /// Runs every spawned task to completion under the schedule. Returns
  /// true when the run finished without assertion failure or deadlock.
  bool run();

  // --- called from inside task bodies -----------------------------------
  /// Explicit scheduling point: models call this between a read and the
  /// action taken on it, where production code would simply be preemptible.
  void point();
  /// Model assertion. On failure records the message, aborts the run, and
  /// unwinds the calling task.
  void check(bool ok, const std::string& what);

  // --- results ----------------------------------------------------------
  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  // The two result accessors below hand out references to guarded state:
  // callers read them after run() returns, when the scheduler is quiescent.
  /// Complete decision vector of the run just executed (replayable).
  const std::vector<int>& decisions() const {
    LockGuard lock(mu_);
    return decisions_;
  }
  /// Number of allowed choices at each decision depth (for DFS advance).
  const std::vector<int>& arities() const {
    LockGuard lock(mu_);
    return arities_;
  }

 private:
  friend class SchedMutex;
  friend class SchedCondVar;

  static constexpr int kSchedulerTurn = -1;
  static constexpr std::size_t kMaxSteps = 200000;

  enum class TaskState { kReady, kBlocked, kDone };
  enum class WaitKind { kNone, kMutex, kCondVar };

  struct Task {
    std::function<void()> body;
    TaskState state = TaskState::kReady;
    WaitKind wait_kind = WaitKind::kNone;
    const void* wait_on = nullptr;
  };

  struct MutexState {
    bool held = false;
    int owner = kSchedulerTurn;
  };

  // Primitive hooks (SchedMutex / SchedCondVar bodies).
  void acquire(const SchedMutex* m) EXCLUDES(mu_);
  void release(const SchedMutex* m) EXCLUDES(mu_);
  void cv_wait(const SchedCondVar* cv, const SchedMutex* m) EXCLUDES(mu_);
  void cv_notify_all(const SchedCondVar* cv) EXCLUDES(mu_);

  void task_main(int id) EXCLUDES(mu_);
  /// Hand the turn to the scheduler and wait until it comes back.
  void yield_to_scheduler(int id) REQUIRES(mu_);
  /// Mark `id` blocked on `on` and wait until scheduled again.
  void block_on(int id, WaitKind kind, const void* on) REQUIRES(mu_);
  void wake_waiters(WaitKind kind, const void* on) REQUIRES(mu_);
  /// Throws TaskAborted when the run is being torn down.
  void throw_if_aborted() REQUIRES(mu_);
  /// Pick the next ready task per the decision vector + preemption bound.
  int pick(const std::vector<int>& ready) REQUIRES(mu_);
  void fail(const std::string& what) REQUIRES(mu_);
  int current_id() const;

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<Task> tasks_ GUARDED_BY(mu_);
  std::map<const void*, MutexState> mutexes_ GUARDED_BY(mu_);
  int turn_ GUARDED_BY(mu_) = kSchedulerTurn;
  int last_active_ GUARDED_BY(mu_) = kSchedulerTurn;
  int preemptions_ GUARDED_BY(mu_) = 0;
  std::size_t depth_ GUARDED_BY(mu_) = 0;
  std::size_t steps_ GUARDED_BY(mu_) = 0;
  bool abort_ GUARDED_BY(mu_) = false;
  bool failed_ = false;      ///< written under mu_, read after run()
  std::string failure_;      ///< written under mu_, read after run()
  std::vector<int> decisions_ GUARDED_BY(mu_);
  std::vector<int> arities_ GUARDED_BY(mu_);
  const int preemption_bound_;
  bool started_ = false;
};

/// Mutex for scheduler-driven models. Same lock/unlock shape as
/// cbde::Mutex so model code reads like the production code it mirrors.
class SchedMutex {
 public:
  explicit SchedMutex(Scheduler& sched) : sched_(sched) {}
  SchedMutex(const SchedMutex&) = delete;
  SchedMutex& operator=(const SchedMutex&) = delete;

  void lock() { sched_.acquire(this); }
  void unlock() { sched_.release(this); }

 private:
  Scheduler& sched_;
};

/// RAII guard mirroring cbde::LockGuard. unlock() is plain bookkeeping
/// (never a scheduling point), so the destructor never blocks or throws —
/// safe during an abort unwind.
class SchedLockGuard {
 public:
  explicit SchedLockGuard(SchedMutex& mu) : mu_(mu) { mu_.lock(); }
  ~SchedLockGuard() { mu_.unlock(); }

  SchedLockGuard(const SchedLockGuard&) = delete;
  SchedLockGuard& operator=(const SchedLockGuard&) = delete;

 private:
  SchedMutex& mu_;
};

/// Condition variable for scheduler-driven models. No spurious wakeups are
/// modeled, but callers must still use the `while (!pred) wait;` shape —
/// notify_all wakes every waiter and only one reacquires first.
class SchedCondVar {
 public:
  explicit SchedCondVar(Scheduler& sched) : sched_(sched) {}
  SchedCondVar(const SchedCondVar&) = delete;
  SchedCondVar& operator=(const SchedCondVar&) = delete;

  void wait(SchedMutex& mu) { sched_.cv_wait(this, &mu); }
  void notify_all() { sched_.cv_notify_all(this); }

 private:
  Scheduler& sched_;
};

/// Outcome of exploring one model over schedules.
struct ExploreResult {
  std::size_t schedules_run = 0;
  /// True when the bounded schedule space was fully enumerated (the budget
  /// did not cut exploration short).
  bool exhausted = false;
  bool failure_found = false;
  std::string failure;
  /// Decision vector of the failing schedule; replay it through a fresh
  /// Scheduler to reproduce the bug deterministically.
  std::vector<int> failing_decisions;
};

/// Depth-first enumeration of schedules. `setup` spawns the model's tasks
/// into the given scheduler; `finalize` (optional) runs after a clean run
/// and returns a non-empty message to fail the schedule on a post-state
/// invariant. Stops at the first failure or when `budget` runs out.
ExploreResult explore(const std::function<void(Scheduler&)>& setup,
                      const std::function<std::string()>& finalize,
                      std::size_t budget, int preemption_bound = 3);

/// Replay one schedule. Returns the scheduler's failure message (empty on
/// a clean run).
std::string replay(const std::function<void(Scheduler&)>& setup,
                   const std::vector<int>& decisions, int preemption_bound = 3);

}  // namespace cbde::sched
