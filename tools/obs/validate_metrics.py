#!/usr/bin/env python3
"""validate_metrics: CI gate for the observability surface.

Two independent checks, either or both selected by flags:

  --catalog DOC          diff the metric catalog in DOC (markdown table rows
  --sources DIR...       whose first cell is a backticked `cbde_*` name)
                         against every registration site found under the
                         given source dirs — extraction is shared with
                         tools/lint/cbde_lint.py, so the catalog, the lint,
                         and the code cannot drift apart silently.
  --timeseries FILE      validate a TimeSeriesRecorder JSONL export: every
                         line a JSON object with the full window schema
                         (tick, wall_us, span_seconds, reset, counter_delta,
                         counter_rate, gauge, histogram, serve stats,
                         lock_wait_share), counter deltas non-negative,
                         quantiles ordered. (perf_gate.py counts the
                         populated windows of each run.)

Exit status: 0 valid, 1 findings, 2 usage error.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TOOLS_DIR / "lint"))

import cbde_lint  # noqa: E402  (shared registration-site extraction)

CATALOG_ROW = re.compile(r"^\|\s*`(cbde_[a-z0-9_]+)`\s*\|")


def registered_names(source_dirs: list[Path]) -> dict[str, list[str]]:
    """Every literal metric name registered under the dirs, via the same
    extraction the lint uses -> name -> list of 'file:line' sites."""
    sites: cbde_lint.ObsSites = {}
    for d in source_dirs:
        files = [d] if d.is_file() else [
            p for p in sorted(d.rglob("*"))
            if p.suffix in cbde_lint.SOURCE_SUFFIXES and p.is_file()]
        for path in files:
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
            cbde_lint.collect_obs_registrations(path, lines, sites)
    return {name: [f"{cbde_lint.rel_posix(p)}:{ln}" for p, ln, _ in regs]
            for name, regs in sites.items()}


def diff_catalog(doc: Path, source_dirs: list[Path]) -> list[str]:
    errors: list[str] = []
    documented: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        m = CATALOG_ROW.match(line.strip())
        if m:
            documented.add(m.group(1))
    registered = registered_names(source_dirs)
    for name in sorted(set(registered) - documented):
        errors.append(
            f"{doc}: metric {name} (registered at {registered[name][0]}) "
            "missing from the catalog")
    for name in sorted(documented - set(registered)):
        errors.append(
            f"{doc}: catalog lists {name} but no source registers it")
    return errors


# Window schema for the TimeSeriesRecorder JSONL export: key -> required
# type(s). Nested histogram entries carry their own fixed shape.
WINDOW_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "tick": int,
    "wall_us": int,
    "span_seconds": (int, float),
    "reset": bool,
    "counter_delta": dict,
    "counter_rate": dict,
    "gauge": dict,
    "histogram": dict,
    "serve_requests": int,
    "serve_p50_us": (int, float),
    "serve_p95_us": (int, float),
    "serve_p99_us": (int, float),
    "lock_wait_share": (int, float),
}
HISTOGRAM_KEYS = {"count", "sum", "p50", "p95", "p99", "reset"}


def validate_timeseries(path: Path) -> list[str]:
    errors: list[str] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]
    if not lines:
        return [f"{path}: empty time-series export"]

    for i, line in enumerate(lines, 1):
        if not line.strip():
            errors.append(f"{path}:{i}: blank line in JSONL export")
            continue
        try:
            w = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{path}:{i}: not valid JSON: {e}")
            continue
        if not isinstance(w, dict):
            errors.append(f"{path}:{i}: window is not a JSON object")
            continue
        bad = False
        for key, expected in WINDOW_SCHEMA.items():
            if key not in w:
                errors.append(f"{path}:{i}: window missing key '{key}'")
                bad = True
            elif not isinstance(w[key], expected) or (
                    # bool is an int subclass; keep tick/serve_requests honest
                    expected is int and isinstance(w[key], bool)):
                errors.append(
                    f"{path}:{i}: key '{key}' has type "
                    f"{type(w[key]).__name__}")
                bad = True
        if bad:
            continue
        for name, delta in w["counter_delta"].items():
            if not isinstance(delta, (int, float)) or delta < 0:
                errors.append(
                    f"{path}:{i}: counter_delta[{name}] negative or non-numeric "
                    "(reset windows must re-baseline, not go negative)")
        for name, h in w["histogram"].items():
            if not isinstance(h, dict) or set(h) != HISTOGRAM_KEYS:
                errors.append(
                    f"{path}:{i}: histogram[{name}] must carry exactly "
                    f"{sorted(HISTOGRAM_KEYS)}")
                continue
            if not h["reset"] and not (h["p50"] <= h["p95"] <= h["p99"]):
                errors.append(
                    f"{path}:{i}: histogram[{name}] quantiles out of order")
    return errors


def main(argv: list[str]) -> int:
    catalog: Path | None = None
    timeseries: Path | None = None
    sources: list[Path] = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--catalog" and i + 1 < len(argv):
            catalog = Path(argv[i + 1]); i += 2
        elif arg == "--timeseries" and i + 1 < len(argv):
            timeseries = Path(argv[i + 1]); i += 2
        elif arg == "--sources":
            sources = [Path(a) for a in argv[i + 1:]]; i = len(argv)
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if catalog is None and timeseries is None:
        print(__doc__, file=sys.stderr)
        return 2

    errors: list[str] = []
    if catalog is not None:
        if not sources:
            print("validate_metrics: --catalog requires --sources", file=sys.stderr)
            return 2
        errors += diff_catalog(catalog, sources)
    if timeseries is not None:
        errors += validate_timeseries(timeseries)
    for e in errors:
        print(e)
    if errors:
        print(f"validate_metrics: {len(errors)} finding(s)")
        return 1
    checked = [s for s in (catalog and "catalog", timeseries and "time-series") if s]
    print(f"validate_metrics: {' + '.join(checked)} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
