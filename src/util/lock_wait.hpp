// Lock-wait profiling cell: the dependency-free half of the opt-in timed
// mutex acquisition path (docs/OBSERVABILITY.md, "Lock-wait profiling").
//
// cbde::Mutex lives in src/util and must not depend on cbde::obs, so the
// mutex only knows about this plain struct. The obs layer allocates one
// cell per *mutex site* (the delta-server's mutex has one, the worker
// pool's queue mutex another), wires `observe`/`target` at a
// histogram, and attaches the cell to each Mutex before any profiled thread
// starts. The histogram is the cell's only record: it counts acquisitions
// and sums their waits.
#pragma once

#include <cstdint>

namespace cbde::util {

struct LockWaitCell {
  /// Called once per profiled acquisition with the wait in microseconds
  /// (0 when the fast-path try_lock succeeded). Set during single-threaded
  /// wiring, before the first profiled thread starts, and never changed.
  using ObserveFn = void (*)(void* target, std::uint64_t wait_us);

  ObserveFn observe = nullptr;
  void* target = nullptr;
};

}  // namespace cbde::util
