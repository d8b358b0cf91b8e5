// Lock-wait profiling cell: the dependency-free half of the opt-in timed
// mutex acquisition path (docs/OBSERVABILITY.md, "Lock-wait profiling").
//
// cbde::Mutex lives in src/util and must not depend on cbde::obs, so the
// mutex only knows about this plain struct. The obs layer allocates one
// cell per *mutex site* (all shard mutexes of one server share a cell, the
// worker pool's queue mutex gets its own), wires `observe`/`target` at a
// histogram, and attaches the cell to each Mutex before any profiled thread
// starts. The counters are monotonic relaxed atomics read by snapshots.
//
// Compiled out together with the rest of the timed path under CBDE_OBS_OFF
// (the attach call becomes a no-op, so the cell never receives a write).
#pragma once

#include <atomic>
#include <cstdint>

namespace cbde::util {

struct LockWaitCell {
  /// Called once per profiled acquisition with the wait in microseconds
  /// (0 when the fast-path try_lock succeeded). Set during single-threaded
  /// wiring, before the first profiled thread starts, and never changed.
  using ObserveFn = void (*)(void* target, std::uint64_t wait_us);

  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> wait_ns{0};

  ObserveFn observe = nullptr;
  void* target = nullptr;
};

}  // namespace cbde::util
