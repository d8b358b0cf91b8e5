#!/usr/bin/env sh
# CI gate: repo lint + semantic analysis (cbde_sema) + sanitizer build +
# full test suite + contracts-audit test suite + Clang thread-safety
# analysis + clang-tidy over src/.
#
#   ./ci.sh          full run
#   ./ci.sh --fast   skip the Clang-only stages (thread-safety, clang-tidy)
#
# Fails on: any cbde_lint finding, any NEW cbde_sema finding (vs the
# checked-in baseline), any compiler warning (CBDE_WERROR), any test
# failure, any sanitizer report (-fno-sanitize-recover promotes them to
# test failures), any contracts-audit violation, any thread-safety or
# clang-tidy diagnostic. Clang-only stages skip LOUDLY when LLVM is absent
# — a skip is printed, never silently green. See docs/ANALYSIS.md.
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
  echo "== cbde sema (self-test, then full tree vs baseline) =="
  # Runs all eight passes — taint, lock-order, contracts, the
  # shard-readiness trio (escape, atomics, blocking), and the allocation
  # pair (sema-alloc, sema-copy) — against the empty baseline, and emits
  # the lock-hotspot ranking and allocation inventory read below.
  python3 tools/analyze/cbde_sema.py --self-test
  python3 tools/analyze/cbde_sema.py --hotspots build/sema_hotspots.json \
    --allocs build/sema_allocs.json

  echo "== allocation budget: static inventory vs tools/analyze/alloc_budget.json =="
  python3 - <<'EOF'
import json
with open("build/sema_allocs.json") as f:
    totals = json.load(f)["totals"]
with open("tools/analyze/alloc_budget.json") as f:
    budget = json.load(f)["static"]
failed = False
for key in ("hot_sites", "hot_flagged"):
    have, allowed = totals[key], budget[key]
    if have > allowed:
        print(f"ci.sh: sema-alloc {key} grew to {have} (budget {allowed}) — "
              f"eliminate the new hot-path allocation or ratchet "
              f"tools/analyze/alloc_budget.json with justification")
        failed = True
    elif have < allowed:
        print(f"notice: sema-alloc {key} is {have}, under the {allowed} budget "
              f"— ratchet tools/analyze/alloc_budget.json down")
    else:
        print(f"sema-alloc {key}: {have} (== budget)")
if failed:
    raise SystemExit(1)
EOF
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

echo "== threaded stress under TSan (DeltaServerPool) =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS" --target cbde_tests
ctest --preset tsan -R 'DeltaServerPool|ObsConcurrency' --output-on-failure

echo "== perf harness smoke (bench_perf_report --smoke) =="
cmake --build --preset asan-ubsan -j "$JOBS" --target bench_perf_report
BENCH_JSON="build/asan-ubsan/BENCH_delta.json"
PROM_OUT="build/asan-ubsan/metrics.prom"
./build/asan-ubsan/bench/bench_perf_report --smoke --out "$BENCH_JSON" \
  --metrics-out "$PROM_OUT" --metrics-json "build/asan-ubsan/metrics.json"
for key in encode_cached_cross speedup_4v1 hardware_concurrency overhead_pct \
           allocs_per_request; do
  grep -q "\"$key\"" "$BENCH_JSON" ||
    { echo "ci.sh: $BENCH_JSON missing key $key" >&2; exit 1; }
done

echo "== allocation budget: measured allocs/request vs static inventory =="
# Cross-check the counting-operator-new measurement against the static
# sema-alloc inventory and the checked-in measured budget: a hot-path
# allocation regression shows up on both sides, a counting bug on one.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BENCH_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    allocs = json.load(f)["allocs"]
with open("tools/analyze/alloc_budget.json") as f:
    budget = json.load(f)["measured"]
with open("build/sema_allocs.json") as f:
    static_hot = json.load(f)["totals"]["hot_sites"]
if not allocs["hook_active"]:
    sys.exit("ci.sh: bench_perf_report ran without the counting alloc hook")
for key in ("per_request_workers_1", "per_request_workers_4"):
    measured = allocs[key]
    if measured <= 0:
        sys.exit(f"ci.sh: {key} is {measured} — the alloc hook counted nothing")
    if measured > budget["bench_per_request"]:
        sys.exit(f"ci.sh: {key} = {measured:.1f} allocs/request exceeds the "
                 f"{budget['bench_per_request']} budget "
                 f"(static hot inventory: {static_hot} sites) — check "
                 f"build/sema_allocs.json for the new site")
    print(f"{key}: {measured:.1f} allocs/request "
          f"(budget {budget['bench_per_request']}, static hot sites {static_hot})")
EOF
else
  echo "== SKIPPED: python3 not installed — measured allocation gate NOT run ==" >&2
fi

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
if not obs.get("compiled_out") and pct >= 3.0:
    sys.exit(f"ci.sh: obs overhead {pct:.2f}% >= 3% budget")
print(f"obs overhead {pct:.2f}% (< 3% budget, measured with the recorder live: "
      f"{obs.get('recorder_windows', 0)} windows closed during the loop)")
EOF
else
  echo "== SKIPPED: python3 not installed — obs exposition/catalog gate NOT run ==" >&2
fi

echo "== telemetry: time-series schema + span profiles + perf-regression gate =="
# The capacity smoke above wrote its full window records and flame profiles
# next to the JSON; validate both exports structurally, then band the
# derived statistics (imbalance, lock-wait share, p99/p50, obs overhead)
# against the checked-in baselines. Regressions fail here, loudly.
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

echo "== contracts audit build (CBDE_CONTRACTS=audit) + full ctest =="
# Audit level turns every CBDE_ENSURE / CBDE_ASSERT_INVARIANT into a live
# throwing check; the whole suite must stay green with postconditions and
# invariants armed.
cmake --preset contracts
cmake --build --preset contracts -j "$JOBS"
ctest --preset contracts -j "$JOBS"

# Surface the lock-hotspot ranking (the evidence that picks the shard
# boundaries for ROADMAP item 1) where CI logs are easy to grab.
if [ -f build/sema_hotspots.json ] && command -v python3 >/dev/null 2>&1; then
  echo "== lock-hotspot report (build/sema_hotspots.json, top 5) =="
  python3 - <<'EOF'
import json
with open("build/sema_hotspots.json") as f:
    report = json.load(f)
for section in report["sections"][:5]:
    print(f"  #{section['rank']:<2} weight {section['weight']:>5}  "
          f"{section['function']} [{section['mutex']}] "
          f"{section['file']}:{section['line']}")
EOF
else
  echo "== NOTE: build/sema_hotspots.json not generated (python3 missing?) ==" >&2
fi

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
