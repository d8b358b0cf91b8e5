#!/usr/bin/env sh
# CI gate: repo lint + semantic analysis (cbde_sema) + sanitizer build +
# full test suite + cbde_tests under TSan + perf/allocation bands +
# perfbench smoke tests + contracts-audit test suite + Clang thread-safety
# analysis + clang-tidy over src/.
#
#   ./ci.sh          full run
#   ./ci.sh --fast   skip the Clang-only stages (thread-safety, clang-tidy)
#
# Fails on: any cbde_lint or cbde_sema finding, any compiler warning
# (CBDE_WERROR), any test failure, any sanitizer report
# (-fno-sanitize-recover promotes them to test failures), any perf_gate
# band violation (allocations per request included), any perfbench smoke
# test failure, any contracts-audit violation, any thread-safety or
# clang-tidy diagnostic. Clang-only stages
# skip LOUDLY when LLVM is absent — a skip is printed, never silently
# green. See docs/ANALYSIS.md.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if command -v python3 >/dev/null 2>&1; then
  echo "== cbde lint (self-test, then src/ tests/ bench/) =="
  python3 tools/lint/cbde_lint.py --self-test
  python3 tools/lint/cbde_lint.py src tests bench
else
  echo "== SKIPPED: python3 not installed — cbde lint NOT run ==" >&2
fi

if command -v python3 >/dev/null 2>&1; then
  echo "== cbde sema (self-test, then src/) =="
  # Taint, lock-order and contracts; every finding fails the stage.
  python3 tools/analyze/cbde_sema.py --self-test
  python3 tools/analyze/cbde_sema.py
else
  echo "== SKIPPED: python3 not installed — cbde sema NOT run ==" >&2
fi

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$JOBS"

echo "== ctest under ASan+UBSan (unit + property + fuzz) =="
ctest --preset asan-ubsan -j "$JOBS"

echo "== deterministic interleaving explorer (tests/schedule, fixed budget) =="
# The explorer must re-find the seeded double-join race on the reverted-fix
# fixture and exhaust the fixed protocols' schedule spaces clean; the
# pinned budget keeps the run reproducible across machines.
CBDE_SCHED_BUDGET=20000 ctest --preset asan-ubsan \
  -R 'Scheduler\.|ScheduleExplorer\.' --output-on-failure

echo "== cbde_tests under TSan (whole suite) =="
# Every cbde_tests case runs under ThreadSanitizer, so a data race wherever
# a test starts threads (worker pool, sharded server, concurrent writers)
# fails CI. This stage is the race gate: no static pass checks guarded-state
# escapes or memory orders.
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS" --target cbde_tests
ctest --preset tsan -L cbde_tests -j "$JOBS"

echo "== perf harness smoke (bench_perf_report --smoke) =="
cmake --build --preset asan-ubsan -j "$JOBS" --target bench_perf_report
BENCH_JSON="build/asan-ubsan/BENCH_delta.json"
PROM_OUT="build/asan-ubsan/metrics.prom"
./build/asan-ubsan/bench/bench_perf_report --smoke --out "$BENCH_JSON" \
  --metrics-out "$PROM_OUT" --metrics-json "build/asan-ubsan/metrics.json"
for key in encode_cached_cross compress_cross decompress_cross speedup_4v1 \
           hardware_concurrency overhead_pct allocs_per_request; do
  grep -q "\"$key\"" "$BENCH_JSON" ||
    { echo "ci.sh: $BENCH_JSON missing key $key" >&2; exit 1; }
done

echo "== bench-capacity smoke (sharded replay, byte parity across shards 1,2) =="
# The replay binary itself exits nonzero if Table II byte accounting
# diverges across shard counts; the python gate re-checks parity from the
# JSON. The shard scaling curve is reported, not gated: DeltaWorkerPool
# sizes itself at max(shards, cores), so shards=1 already saturates the
# cores and shards=2 measures lock relief only.
cmake --build --preset asan-ubsan -j "$JOBS" --target bench_capacity
CAP_JSON="build/asan-ubsan/BENCH_capacity.json"
./build/asan-ubsan/bench/bench_capacity --shards 1,2 --smoke --out "$CAP_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CAP_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cap = json.load(f)
if cap["byte_parity"] != 1:
    sys.exit("ci.sh: Table II byte accounting diverged across shard counts")
s1, s2 = cap["shards_1"], cap["shards_2"]
for key in ("wire_bytes", "base_wire_bytes", "direct_bytes", "storage_bytes",
            "delta_responses", "direct_responses", "num_classes"):
    if s1[key] != s2[key]:
        sys.exit(f"ci.sh: {key} differs between shards=1 and shards=2")
cores = cap["config"]["hardware_concurrency"]
print(f"byte parity verified; shards=2 speedup {s2['speedup_vs_shards_1']:.2f}x "
      f"on {cores} core(s) (reported, not gated)")
EOF
else
  echo "== SKIPPED: python3 not installed — bench-capacity parity gate NOT run ==" >&2
fi

echo "== obs: exposition validity + metric catalog + overhead gate =="
# The smoke run above replayed the end-to-end workload with obs enabled and
# dumped its registry; the snapshot must parse and carry populated
# histograms (encode latency, queue wait, delta size at minimum).
if command -v promtool >/dev/null 2>&1; then
  promtool check metrics < "$PROM_OUT"
else
  echo "== NOTE: promtool not installed — falling back to tools/obs/validate_metrics.py ==" >&2
fi
if command -v python3 >/dev/null 2>&1; then
  python3 tools/obs/validate_metrics.py --prom "$PROM_OUT" --min-histograms 3 \
    --catalog docs/OBSERVABILITY.md --sources src bench
  python3 - "$BENCH_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    obs = json.load(f)["obs"]
pct = obs["overhead_pct"]
if pct >= 3.0:
    sys.exit(f"ci.sh: obs overhead {pct:.2f}% >= 3% budget")
print(f"obs overhead {pct:.2f}% (< 3% budget)")
EOF
else
  echo "== SKIPPED: python3 not installed — obs exposition/catalog gate NOT run ==" >&2
fi

echo "== telemetry: time-series schema + span profiles + perf-regression gate =="
# The capacity smoke above wrote its full window records and flame profiles
# next to the JSON; validate both exports structurally, then band the
# derived statistics (imbalance, lock-wait share, p99/p50, obs overhead,
# allocations per request) against the checked-in baselines. Regressions
# fail here, loudly.
CAP_TS="${CAP_JSON%.json}_timeseries.jsonl"
CAP_PROFILE="${CAP_JSON%.json}_profile.json"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/obs/validate_metrics.py --timeseries "$CAP_TS" --min-windows 16 \
    --speedscope "$CAP_PROFILE"
  python3 tools/obs/perf_gate.py --baseline tools/obs/perf_baseline.json \
    --capacity "$CAP_JSON" --delta "$BENCH_JSON"
else
  echo "== SKIPPED: python3 not installed — telemetry schema + perf gate NOT run ==" >&2
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
