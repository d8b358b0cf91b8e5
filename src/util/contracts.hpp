// Enforced contracts: preconditions, postconditions, and invariants.
//
// Every public entry point of the decoder and serving subsystems states its
// contract with these macros; tools/lint/cbde_lint.py (`entry-contract`)
// checks that the entry points it lists do so.
//
// Two check levels, selected by CBDE_CONTRACTS_LEVEL (CMake cache variable
// CBDE_CONTRACTS = default | audit; see docs/ANALYSIS.md):
//
//   level 1 (`default`)  CBDE_EXPECT and CBDE_ASSERT are live checks (the
//                        historical behavior of util/expect.hpp — this
//                        library is a research artifact and silent corruption
//                        is worse than a few branches). CBDE_ENSURE and
//                        CBDE_ASSERT_INVARIANT compile to assume hints:
//                        `if (!(cond)) __builtin_unreachable()`.
//   level 2 (`audit`)    everything is a live check. The `contracts` CMake
//                        preset builds this flavor; ci.sh runs the full test
//                        suite under it.
//
// Macro roles:
//   CBDE_EXPECT(cond)            caller-facing precondition; violation throws
//                                std::invalid_argument.
//   CBDE_ENSURE(cond)            postcondition on the value a function is
//                                about to return / the state it leaves
//                                behind; violation throws std::logic_error.
//   CBDE_ASSERT(cond)            internal sanity check mid-function;
//                                violation throws std::logic_error.
//   CBDE_ASSERT_INVARIANT(cond)  object/loop invariant, typically asserted at
//                                the end of a mutating member function;
//                                violation throws std::logic_error.
//
// Keep contract conditions side-effect free. The assume form is still an
// `if`, so both levels evaluate a condition and run any effect in it alike.
#pragma once

#include <stdexcept>
#include <string>

// Default matches the historical always-on precondition behavior.
#ifndef CBDE_CONTRACTS_LEVEL
#define CBDE_CONTRACTS_LEVEL 1
#endif

namespace cbde::util {

[[noreturn]] inline void fail_expect(const char* cond, const char* file, int line) {
  throw std::invalid_argument(std::string("precondition failed: ") + cond + " at " + file + ":" +
                              std::to_string(line));
}

[[noreturn]] inline void fail_assert(const char* cond, const char* file, int line) {
  throw std::logic_error(std::string("invariant violated: ") + cond + " at " + file + ":" +
                         std::to_string(line));
}

[[noreturn]] inline void fail_ensure(const char* cond, const char* file, int line) {
  throw std::logic_error(std::string("postcondition failed: ") + cond + " at " + file + ":" +
                         std::to_string(line));
}

}  // namespace cbde::util

// Assume-style elision: the optimizer may treat `cond` as established.
#define CBDE_CONTRACT_ASSUME__(cond) \
  do {                               \
    if (!(cond)) __builtin_unreachable(); \
  } while (false)

#define CBDE_CONTRACT_CHECK__(cond, handler) \
  do {                                       \
    if (!(cond)) ::cbde::util::handler(#cond, __FILE__, __LINE__); \
  } while (false)

#define CBDE_EXPECT(cond) CBDE_CONTRACT_CHECK__(cond, fail_expect)
#define CBDE_ASSERT(cond) CBDE_CONTRACT_CHECK__(cond, fail_assert)

#if CBDE_CONTRACTS_LEVEL >= 2
#define CBDE_ENSURE(cond) CBDE_CONTRACT_CHECK__(cond, fail_ensure)
#define CBDE_ASSERT_INVARIANT(cond) CBDE_CONTRACT_CHECK__(cond, fail_assert)
#else
#define CBDE_ENSURE(cond) CBDE_CONTRACT_ASSUME__(cond)
#define CBDE_ASSERT_INVARIANT(cond) CBDE_CONTRACT_ASSUME__(cond)
#endif
