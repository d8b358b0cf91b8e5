// Fixed-size worker pool driving DeltaServer::serve() concurrently.
//
// The paper's capacity experiment (§VI-C) measures the delta-server as a
// CPU-bound stage; on a multi-core host the natural deployment is a small
// pool of encode workers behind the accept loop. serve() is internally
// synchronized (three-phase: locked bookkeeping, unlocked encode+compress
// against an encoder snapshot, locked commit), so the pool needs no
// per-class knowledge — it just bounds concurrency and queue depth:
//   * `workers` threads pop submitted requests in FIFO order;
//   * the queue holds at most `queue_capacity` pending requests; submit()
//     blocks the producer when full (backpressure instead of unbounded
//     memory growth);
//   * each request's ServedResponse (or exception) is delivered through a
//     std::future.
//
// Shutdown contract: shutdown() is idempotent and safe to race from any
// number of threads (exactly one joins the workers; the rest block until
// the join completes). Requests already queued are still served, so every
// future handed out by submit() becomes ready — with a value, an exception
// from serve(), or (if a worker dies) std::future_error/broken_promise.
// Nothing is leaked.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "core/delta_server.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::core {

class DeltaWorkerPool {
 public:
  /// `server` must outlive the pool. `queue_capacity` >= 1. `workers` == 0
  /// picks one worker per core (max(hardware_concurrency, 1)), so phase-2
  /// encodes overlap on every core; otherwise the exact count is used.
  DeltaWorkerPool(DeltaServer& server, std::size_t workers,
                  std::size_t queue_capacity = 128);

  /// Joins the workers; pending requests are still served first.
  ~DeltaWorkerPool();

  DeltaWorkerPool(const DeltaWorkerPool&) = delete;
  DeltaWorkerPool& operator=(const DeltaWorkerPool&) = delete;

  /// Enqueue one request. The document is copied into the job (the caller's
  /// buffer need not outlive the call). Blocks while the queue is full;
  /// throws std::runtime_error after shutdown().
  std::future<ServedResponse> submit(std::uint64_t user_id, http::Url url,
                                     util::Bytes doc, util::SimTime now) EXCLUDES(mu_);

  /// Stop accepting work, serve what is queued, join the threads.
  /// Idempotent and safe to call concurrently; every caller returns only
  /// after the workers are joined. Also run by the destructor.
  void shutdown() EXCLUDES(mu_);

  std::size_t workers() const { return worker_count_; }

 private:
  struct Job {
    std::uint64_t user_id = 0;
    http::Url url;
    util::Bytes doc;
    util::SimTime now = 0;
    std::promise<ServedResponse> promise;
    /// Sampled at submit time so queue wait lands in the same trace as the
    /// serve stages. The queue mutex orders the submitter's span-begin
    /// before the worker's span-end.
    std::shared_ptr<obs::TraceContext> trace;
    obs::SpanId queue_span = 0;
    std::uint64_t enqueue_us = 0;
  };

  /// Registry handles (into server.obs()); set once in the constructor.
  struct Instruments {
    obs::Counter* jobs = nullptr;
    obs::Counter* saturation = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_wait = nullptr;
  };

  void worker_loop() EXCLUDES(mu_);

  /// Stop path, split out so the lock requirement is explicit: flags the
  /// pool stopping and hands the worker threads to the (single) caller that
  /// owns the join.
  std::vector<std::thread> take_threads_for_join() REQUIRES(mu_);

  DeltaServer& server_;
  const std::size_t capacity_;
  const std::size_t worker_count_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CondVar join_done_cv_;
  Instruments instr_;  // immutable after construction
  std::deque<Job> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// True while the queue is running at capacity; drives one kPoolSaturated
  /// event per saturation episode instead of one per blocked submit.
  bool saturated_ GUARDED_BY(mu_) = false;
  bool join_done_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

}  // namespace cbde::core
