#include "core/delta_worker_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace cbde::core {
namespace {

std::size_t worker_count_for(std::size_t workers) {
  if (workers != 0) return workers;
  // One worker per core; hardware_concurrency() reports 0 when unknown.
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

}  // namespace

DeltaWorkerPool::DeltaWorkerPool(DeltaServer& server, std::size_t workers,
                                 std::size_t queue_capacity)
    : server_(server),
      capacity_(queue_capacity),
      worker_count_(worker_count_for(workers)) {
  CBDE_EXPECT(queue_capacity >= 1);
  auto& reg = server_.obs().registry();
  instr_.jobs = &reg.counter("cbde_pool_jobs_total", "Requests accepted by the pool");
  instr_.saturation =
      &reg.counter("cbde_pool_saturation_total",
                   "Submits that blocked on a full queue (backpressure)");
  instr_.queue_depth = &reg.gauge("cbde_pool_queue_depth", "Jobs waiting in the queue");
  instr_.queue_wait =
      &server_.obs().histogram("cbde_pool_queue_wait_microseconds",
                               "Wall time a job spent queued before a worker took it");
  if (server_.obs().config().lock_profile) {
    // Wired before the workers spawn, so no locker can miss the cell.
    mu_.attach_wait_profile(&server_.obs().lock_wait_profile(
        "cbde_lock_wait_seconds_pool_queue",
        "Wait to acquire the worker pool's queue mutex"));
  }
  threads_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

DeltaWorkerPool::~DeltaWorkerPool() { shutdown(); }

std::future<ServedResponse> DeltaWorkerPool::submit(std::uint64_t user_id,
                                                    http::Url url, util::Bytes doc,
                                                    util::SimTime now) {
  Job job;
  job.user_id = user_id;
  job.url = std::move(url);
  job.doc = std::move(doc);
  job.now = now;
  job.trace = server_.obs().maybe_trace();
  if (job.trace != nullptr) job.queue_span = job.trace->begin("queue");
  std::future<ServedResponse> result = job.promise.get_future();
  {
    const LockGuard lock(mu_);
    if (queue_.size() >= capacity_ && !stopping_) {
      instr_.saturation->inc();
      if (!saturated_) {
        saturated_ = true;
        server_.obs().emit(obs::EventKind::kPoolSaturated, now, 0,
                           {{"queue_capacity", std::to_string(capacity_)},
                            {"workers", std::to_string(worker_count_)}});
      }
      while (queue_.size() >= capacity_ && !stopping_) not_full_.wait(mu_);
    } else {
      saturated_ = false;
    }
    if (stopping_) throw std::runtime_error("DeltaWorkerPool: submit after shutdown");
    job.enqueue_us = obs::now_us();
    queue_.push_back(std::move(job));
    CBDE_ASSERT_INVARIANT(queue_.size() <= capacity_);
    instr_.jobs->inc();
    instr_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  not_empty_.notify_one();
  return result;
}

void DeltaWorkerPool::worker_loop() {
  for (;;) {
    Job job;
    {
      const LockGuard lock(mu_);
      while (queue_.empty() && !stopping_) not_empty_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      instr_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    }
    not_full_.notify_one();
    instr_.queue_wait->observe(obs::now_us() - job.enqueue_us);
    if (job.trace != nullptr) job.trace->end(job.queue_span);
    try {
      job.promise.set_value(server_.serve(job.user_id, job.url, util::as_view(job.doc),
                                          job.now, std::move(job.trace)));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
  }
}

std::vector<std::thread> DeltaWorkerPool::take_threads_for_join() {
  stopping_ = true;
  std::vector<std::thread> taken;
  taken.swap(threads_);
  return taken;
}

void DeltaWorkerPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    const LockGuard lock(mu_);
    if (stopping_) {
      // Another caller owns the join (or already finished it). Wait it out
      // so that *every* shutdown() return means the workers are gone —
      // returning early here was a double-join race before PR 3.
      while (!join_done_) join_done_cv_.wait(mu_);
      return;
    }
    to_join = take_threads_for_join();
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  {
    const LockGuard lock(mu_);
    join_done_ = true;
  }
  join_done_cv_.notify_all();
}

}  // namespace cbde::core
