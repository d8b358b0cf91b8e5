// Scheduler-driven models of the tree's two delicate concurrency
// protocols, used by tests/schedule/schedule_test.cpp:
//
//  * MiniPool — DeltaWorkerPool's submit/shutdown protocol. kFixedJoin
//    selects between the current tree's single-joiner handshake
//    (join_done_ + join_done_cv_, PR 3) and the pre-fix behavior where a
//    second concurrent shutdown() returned as soon as it saw stopping_
//    already set — before the first caller had joined the workers. The
//    explorer must re-find that race on the reverted fixture and run clean
//    on the fixed one.
//
//  * SnapshotModel — DeltaServer's publish/rebase vs. reader protocol.
//    kKeepalive selects between PublishedBase's shared_ptr keepalive (the
//    current tree) and a raw-pointer snapshot that dangles when a rebase
//    retires the encoder after the reader drops the lock. Refcounts are
//    modeled explicitly so "use after free" is an assertable flag instead
//    of actual UB.
//
// Models mirror protocol *shape*, not the production classes: one worker,
// hand-rolled refcounts, and SchedMutex/SchedCondVar where the real code
// uses threads and cbde primitives, keeping exploration exhaustive.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched.hpp"

namespace cbde::sched {

/// Worker-pool shutdown model. Spawn worker() as one task and shutdown()
/// from two tasks; every shutdown() caller asserts the pool's contract:
/// when shutdown() returns, no worker is still running.
template <bool kFixedJoin>
class MiniPool {
 public:
  explicit MiniPool(Scheduler& sched)
      : sched_(sched), mu_(sched), work_cv_(sched), exit_cv_(sched),
        join_done_cv_(sched) {}

  void submit() {
    SchedLockGuard lock(mu_);
    if (stopping_) return;  // model: submit after stop is rejected
    ++pending_;
    work_cv_.notify_all();
  }

  void worker() {
    for (;;) {
      bool work = false;
      {
        SchedLockGuard lock(mu_);
        while (!stopping_ && pending_ == 0) work_cv_.wait(mu_);
        if (pending_ > 0) {
          --pending_;
          work = true;
        } else if (stopping_) {
          worker_running_ = false;
          exit_cv_.notify_all();
          return;
        }
      }
      if (work) sched_.point();  // the drained item is "served" unlocked
    }
  }

  void shutdown() {
    mu_.lock();
    if (stopping_) {
      if (kFixedJoin) {
        // Current tree: late callers wait for the joiner's handshake.
        while (!join_done_) join_done_cv_.wait(mu_);
        mu_.unlock();
      } else {
        // Reverted fix: return immediately — the first caller may not have
        // joined the worker yet, so the contract below can be violated.
        mu_.unlock();
      }
      sched_.check(!worker_running_, "shutdown returned while a worker was still running");
      return;
    }
    stopping_ = true;
    work_cv_.notify_all();
    mu_.unlock();

    // join(): the single joiner waits for the worker to exit.
    {
      SchedLockGuard lock(mu_);
      while (worker_running_) exit_cv_.wait(mu_);
      join_done_ = true;
      join_done_cv_.notify_all();
    }
    sched_.check(!worker_running_, "shutdown returned while a worker was still running");
  }

  bool worker_running() const { return worker_running_; }

 private:
  Scheduler& sched_;
  SchedMutex mu_;
  SchedCondVar work_cv_;
  SchedCondVar exit_cv_;
  SchedCondVar join_done_cv_;
  int pending_ = 0;
  bool stopping_ = false;
  bool join_done_ = false;
  bool worker_running_ = true;
};

/// Publish/rebase snapshot model with explicit refcounts. The server owns
/// one reference to the current transmit encoder; rebase() retires it and
/// a reader's snapshot either pins it (keepalive) or dangles.
template <bool kKeepalive>
class SnapshotModel {
 public:
  explicit SnapshotModel(Scheduler& sched) : sched_(sched), mu_(sched) {
    slots_.reserve(kMaxVersions);
    slots_.push_back(Slot{});
    slots_[0].refs = 1;  // the server's reference
  }

  void rebase() {
    mu_.lock();
    if (slots_.size() >= kMaxVersions) {
      mu_.unlock();
      return;
    }
    const std::size_t old = current_;
    slots_.push_back(Slot{});
    current_ = slots_.size() - 1;
    slots_[current_].refs = 1;
    mu_.unlock();
    sched_.point();
    drop_ref(old);  // the server's reference to the retired encoder
  }

  /// DeltaServer::published_base: snapshot the current encoder under the
  /// lock, then read it after the lock is dropped (as any caller does).
  void read_published() {
    mu_.lock();
    const std::size_t snap = current_;
    if (kKeepalive) ++slots_[snap].refs;  // PublishedBase::keepalive
    mu_.unlock();
    sched_.point();  // caller code runs; rebases may land here
    sched_.check(!slots_[snap].destroyed,
                 "reader used a dangling base snapshot after a rebase");
    if (kKeepalive) drop_ref(snap);
  }

 private:
  struct Slot {
    int refs = 0;
    bool destroyed = false;
  };

  void drop_ref(std::size_t index) {
    SchedLockGuard lock(mu_);
    if (--slots_[index].refs == 0) slots_[index].destroyed = true;
  }

  static constexpr std::size_t kMaxVersions = 4;

  Scheduler& sched_;
  SchedMutex mu_;
  std::vector<Slot> slots_;
  std::size_t current_ = 0;
};

}  // namespace cbde::sched
