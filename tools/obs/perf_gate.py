#!/usr/bin/env python3
"""perf_gate: CI perf-regression gate over the bench telemetry sections.

Reads the `time_series` sections the bench binaries embed in their JSON
artifacts (BENCH_delta.json, BENCH_capacity.json) and compares the derived
statistics against the checked-in tolerance bands in perf_baseline.json.
The bands are deliberately host-independent — ratios and shares, not
absolute nanoseconds — so the gate catches structural regressions (lock
waits eating the serve time, a serve tail blowing up, instrumentation
overhead creeping past its budget) without flaking on slower CI hosts:

  capacity (per workers_N run):
    min_windows_per_run   populated windows (serve_requests > 0) required;
                          the replay closes one window per request chunk, so
                          fewer means the recorder or the serve histogram
                          broke
    lock_wait_share_max   mean fraction of serve time spent waiting on the
                          profiled mutex sites
    p99_over_p50_max      median per-window serve p99/p50 ratio — the
                          host-independent tail-latency band
    byte_parity           must be 1 (bit-exact Table II accounting)

  delta (BENCH_delta.json):
    overhead_pct_max      instrumented-vs-bare encode overhead; this is the
                          <3% observability budget
    min_windows           populated end-to-end time-series windows
    lock_wait_share_max   mean share over the end-to-end windows
    allocs_per_request_max
                          operator-new calls per request at 1 and 4 workers
                          (serve plus the pool's submit/future machinery),
                          counted by the bench's alloc hook, which must be
                          linked and must count something; a per-request
                          count does not depend on host speed

    The end-to-end 4-worker vs 1-worker speedup is printed, not banded: with
    encode cheap the server lock's share of serve time grows, and a 32-request
    smoke run cannot separate that from host noise.

Usage:
  perf_gate.py --baseline FILE [--capacity BENCH_capacity.json]
               [--delta BENCH_delta.json]

Exit status: 0 within bands, 1 regression findings, 2 usage/parse error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def populated(windows: list[dict]) -> list[dict]:
    return [w for w in windows if w.get("serve_requests", 0) > 0]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def gate_capacity(doc: dict, bands: dict, findings: list[str]) -> None:
    runs = {k: v for k, v in doc.items()
            if k.startswith("workers_") and isinstance(v, dict)}
    if not runs:
        findings.append("capacity: no workers_N sections in the artifact")
        return
    if doc.get("byte_parity") != 1:
        findings.append("capacity: byte_parity != 1 (Table II accounting diverged)")
    for key in sorted(runs, key=lambda k: int(k.split("_")[1])):
        windows = runs[key].get("time_series")
        if not isinstance(windows, list):
            findings.append(f"capacity {key}: missing time_series section")
            continue
        pop = populated(windows)
        need = int(bands["min_windows_per_run"])
        if len(pop) < need:
            findings.append(
                f"capacity {key}: {len(pop)} populated window(s), need >= {need}")
        share = mean([w.get("lock_wait_share", 0.0) for w in pop])
        if share > bands["lock_wait_share_max"]:
            findings.append(
                f"capacity {key}: mean lock_wait_share {share:.3f} > band "
                f"{bands['lock_wait_share_max']}")
        ratios = [w["serve_p99_us"] / w["serve_p50_us"]
                  for w in pop if w.get("serve_p50_us", 0) > 0]
        if ratios and median(ratios) > bands["p99_over_p50_max"]:
            findings.append(
                f"capacity {key}: median p99/p50 {median(ratios):.1f} > band "
                f"{bands['p99_over_p50_max']} (serve tail regressed)")


def gate_delta(doc: dict, bands: dict, findings: list[str]) -> None:
    overhead = doc.get("obs", {}).get("overhead_pct")
    if overhead is None:
        findings.append("delta: obs.overhead_pct missing")
    elif overhead > bands["overhead_pct_max"]:
        findings.append(
            f"delta: obs overhead {overhead:.2f}% > band "
            f"{bands['overhead_pct_max']}%")
    speedup = doc.get("end_to_end", {}).get("speedup_4v1")
    if speedup is not None:
        cores = int(doc.get("config", {}).get("hardware_concurrency", 0))
        print(f"perf_gate: delta speedup_4v1 {speedup:.2f}x on {cores} core(s) "
              "(reported, not gated)")
    gate_allocs(doc.get("allocs", {}), bands["allocs_per_request_max"], findings)
    windows = doc.get("time_series")
    if not isinstance(windows, list):
        findings.append("delta: missing time_series section")
        return
    pop = populated(windows)
    if len(pop) < bands["min_windows"]:
        findings.append(
            f"delta: {len(pop)} populated end-to-end window(s), need >= "
            f"{bands['min_windows']}")
    share = mean([w.get("lock_wait_share", 0.0) for w in pop])
    if share > bands["lock_wait_share_max"]:
        findings.append(
            f"delta: mean end-to-end lock_wait_share {share:.3f} > band "
            f"{bands['lock_wait_share_max']}")


def gate_allocs(allocs: dict, band: float, findings: list[str]) -> None:
    if allocs.get("hook_active") != 1:
        findings.append("delta: bench ran without the counting alloc hook")
        return
    for key in ("per_request_workers_1", "per_request_workers_4"):
        measured = allocs.get(key, 0.0)
        if measured <= 0:
            findings.append(f"delta: allocs {key} is {measured} -- the alloc "
                            "hook counted nothing")
        elif measured > band:
            findings.append(
                f"delta: allocs {key} {measured:.1f}/request > band {band}")
        else:
            print(f"perf_gate: allocs {key} {measured:.1f}/request "
                  f"(band {band})")


def main(argv: list[str]) -> int:
    baseline: Path | None = None
    capacity: Path | None = None
    delta: Path | None = None
    i = 1
    while i < len(argv):
        if argv[i] == "--baseline" and i + 1 < len(argv):
            baseline = Path(argv[i + 1]); i += 2
        elif argv[i] == "--capacity" and i + 1 < len(argv):
            capacity = Path(argv[i + 1]); i += 2
        elif argv[i] == "--delta" and i + 1 < len(argv):
            delta = Path(argv[i + 1]); i += 2
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if baseline is None or (capacity is None and delta is None):
        print(__doc__, file=sys.stderr)
        return 2

    bands = load(baseline)
    findings: list[str] = []
    if capacity is not None:
        gate_capacity(load(capacity), bands["capacity"], findings)
    if delta is not None:
        gate_delta(load(delta), bands["delta"], findings)

    for f in findings:
        print(f"PERF REGRESSION: {f}")
    if findings:
        print(f"perf_gate: {len(findings)} band violation(s) vs {baseline}")
        return 1
    checked = [s for s in (capacity and "capacity", delta and "delta") if s]
    print(f"perf_gate: {' + '.join(checked)} within baseline bands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
