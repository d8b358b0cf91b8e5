#!/usr/bin/env sh
# CI gate: sanitizer build + full test suite (the repo lint runs in it as
# the lint.cbde ctests, the allocation budgets as the AllocBudget tests) +
# cbde_tests under TSan + perf bands + perfbench smoke tests +
# contracts-audit test suite + Clang thread-safety analysis + clang-tidy
# over src/. Each property is checked by one gate; docs/ANALYSIS.md maps
# each property to its gate.
#
#   ./ci.sh          full run
#   ./ci.sh --fast   skip the Clang-only stages (thread-safety, clang-tidy)
#
# Fails on: any compiler warning (CBDE_WERROR), any test failure (lint
# findings and fuzz verdicts included), any sanitizer report
# (-fno-sanitize-recover promotes them to test failures), a bench_capacity
# replay whose Table II bytes differ across worker counts, any perf_gate
# band violation, any perfbench smoke
# test failure, any contracts-audit violation, any thread-safety or
# clang-tidy diagnostic. Stages whose tool is absent skip LOUDLY — a skip
# is printed, never silently green.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if ! command -v python3 >/dev/null 2>&1; then
  # CMake only prints a STATUS line when it cannot register the lint.
  echo "== SKIPPED: python3 not installed — the lint.cbde ctests are NOT registered ==" >&2
fi

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$JOBS"

echo "== ctest under ASan+UBSan (unit + property + fuzz + lint + interleaving explorer) =="
ctest --preset asan-ubsan -j "$JOBS"

echo "== cbde_tests under TSan (whole suite) =="
# Every cbde_tests case runs under ThreadSanitizer, so a data race wherever
# a test starts threads (worker pool, concurrent serves, concurrent writers)
# fails CI. This stage is the race gate: no static pass checks guarded-state
# escapes or memory orders.
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS" --target cbde_tests
ctest --preset tsan -L cbde_tests -j "$JOBS"

echo "== perf harness smoke (bench_perf_report --smoke) =="
cmake --build --preset asan-ubsan -j "$JOBS" --target bench_perf_report
BENCH_JSON="build/asan-ubsan/BENCH_delta.json"
./build/asan-ubsan/bench/bench_perf_report --smoke --out "$BENCH_JSON"
# Keys no later gate reads (perf_gate fails on a missing obs.overhead_pct).
for key in encode_cached_cross encode_rotating_cross estimate_rotating_cross \
           compress_cross decompress_cross hardware_concurrency \
           page_under_64k page_over_64k page_over_512k \
           estimator_index_bytes encoder_index_bytes probe_accept probe_reject; do
  grep -q "\"$key\"" "$BENCH_JSON" ||
    { echo "ci.sh: $BENCH_JSON missing key $key" >&2; exit 1; }
done

echo "== bench-capacity smoke (worker-pool replay, byte parity across workers 1,2) =="
# The replay binary exits nonzero if any replay's Table II byte accounting
# differs from the first one's. The worker scaling curve is reported, not
# gated: a sanitized smoke run on a shared host cannot separate a speedup
# from noise.
cmake --build --preset asan-ubsan -j "$JOBS" --target bench_capacity
CAP_JSON="build/asan-ubsan/BENCH_capacity.json"
./build/asan-ubsan/bench/bench_capacity --workers 1,2 --smoke --out "$CAP_JSON"

echo "== obs catalog + telemetry schema + perf-regression gate =="
# The metric catalog must list exactly the registered metrics. The capacity
# smoke above wrote its window records next to the JSON; every window must
# carry the full schema with ordered quantiles. Then band the derived
# statistics (populated windows, lock-wait share, p99/p50 per worker count;
# obs overhead) against the checked-in baselines.
CAP_TS="${CAP_JSON%.json}_timeseries.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/obs/validate_metrics.py --catalog docs/OBSERVABILITY.md --sources src bench
  python3 tools/obs/validate_metrics.py --timeseries "$CAP_TS"
  python3 tools/obs/perf_gate.py --baseline tools/obs/perf_baseline.json \
    --capacity "$CAP_JSON" --delta "$BENCH_JSON"
else
  echo "== SKIPPED: python3 not installed — obs catalog, telemetry schema + perf gate NOT run ==" >&2
fi

echo "== perfbench smoke tests (the benchmark's own tests) =="
# perfbench/ compiles its own copy of src/ and checks byte-exact
# reconstruction on every workload, so a src/ change that breaks its build
# or its correctness check fails here. The tests only read perfbench/.
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/test_bench.py
else
  echo "== SKIPPED: python3 not installed — perfbench smoke tests NOT run ==" >&2
fi

echo "== contracts audit build (CBDE_CONTRACTS=audit) + full ctest =="
# Audit level turns every CBDE_ENSURE / CBDE_ASSERT_INVARIANT into a live
# throwing check; the whole suite must stay green with postconditions and
# invariants armed.
cmake --preset contracts
cmake --build --preset contracts -j "$JOBS"
ctest --preset contracts -j "$JOBS"

if [ "${1:-}" = "--fast" ]; then
  echo "== Clang stages skipped (--fast): thread-safety analysis, clang-tidy =="
  exit 0
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "== Clang thread-safety analysis (clang-tsa preset, -Werror) =="
  cmake --preset clang-tsa
  cmake --build --preset clang-tsa -j "$JOBS"
  ctest --preset clang-tsa -R 'thread_safety' --output-on-failure
else
  echo "== SKIPPED: clang++ not installed — thread-safety analysis gate NOT run ==" >&2
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "== SKIPPED: clang-tidy not installed — tidy gate NOT run (install LLVM) ==" >&2
  exit 0
fi

echo "== clang-tidy over src/ =="
# compile_commands.json is exported by every configure; lint only our
# sources (headers are covered via HeaderFilterRegex in .clang-tidy).
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p build/asan-ubsan -quiet "$(pwd)/src/.*"
else
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 1 clang-tidy -p build/asan-ubsan --quiet
fi
echo "== ci.sh: all gates passed =="
