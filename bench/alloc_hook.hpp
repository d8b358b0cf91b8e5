// Counting global operator new hook (bench/alloc_hook.cpp).
//
// Link alloc_hook.cpp into a binary and every operator new (scalar, array,
// nothrow, aligned) bumps one process-wide counter before delegating to
// malloc. Snapshot alloc_count() around a request loop and divide to get
// a measured allocations-per-request figure.
//
// Linked only into alloc_budget_test and perfbench: the hook replaces the
// global allocator, which the regular test binary and the bench binaries
// have no reason to pay for.
#pragma once

#include <cstdint>

namespace cbde::bench {

/// Number of operator-new calls in this process so far. Monotonic;
/// meaningful as a delta around a quiesced region of interest.
std::uint64_t alloc_count();

/// True when the counting hook is linked in (alloc_hook.cpp defines this to
/// return true; there is no counterfeit default — a binary that does not
/// link the hook fails to link alloc_count() instead of silently measuring
/// zero).
bool alloc_hook_active();

}  // namespace cbde::bench
