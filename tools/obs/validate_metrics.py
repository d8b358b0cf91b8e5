#!/usr/bin/env python3
"""validate_metrics: CI gate for the observability surface.

Two independent checks, either or both selected by flags:

  --prom FILE            validate a Prometheus text exposition (v0.0.4)
                         snapshot: HELP/TYPE framing, sample syntax,
                         cumulative non-decreasing histogram buckets ending
                         in the mandatory +Inf bucket, _count == +Inf, _sum
                         present. This is the fallback validator ci.sh uses
                         when promtool is not installed; it accepts exactly
                         what obs::MetricsRegistry::prometheus() emits plus
                         any conforming superset (labels on plain samples,
                         scientific notation).
  --min-histograms N     with --prom: require at least N histogram families
                         with a non-zero _count (the smoke-workload
                         acceptance bar).
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
                         quantiles ordered.
  --min-windows N        with --timeseries: require at least N populated
                         windows (serve_requests > 0) — the bench-replay
                         acceptance bar.
  --speedscope FILE      validate a speedscope document produced by
                         obs::SpanProfile: frame-table indices in range,
                         weights aligned with samples, endValue consistent.

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

METRIC_NAME = r"[A-Za-z_:][A-Za-z0-9_:]*"
VALUE = r"[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf|NaN)"
HELP_RE = re.compile(rf"^# HELP ({METRIC_NAME}) (.*)$")
TYPE_RE = re.compile(rf"^# TYPE ({METRIC_NAME}) (counter|gauge|histogram|summary|untyped)$")
SAMPLE_RE = re.compile(rf"^({METRIC_NAME})(\{{[^}}]*\}})? ({VALUE})$")
LE_RE = re.compile(r'le="([^"]*)"')

CATALOG_ROW = re.compile(r"^\|\s*`(cbde_[a-z0-9_]+)`\s*\|")


def parse_value(text: str) -> float:
    if text.endswith("Inf"):
        return float("-inf") if text.startswith("-") else float("inf")
    return float(text)


def validate_prometheus(path: Path, min_histograms: int) -> list[str]:
    errors: list[str] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]
    if not lines:
        return [f"{path}: empty exposition"]

    # family name -> declared type; histogram family -> list of (le, value)
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    sums: dict[str, float] = {}
    current: str | None = None

    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if HELP_RE.match(line):
                continue
            m = TYPE_RE.match(line)
            if m:
                name, kind = m.group(1), m.group(2)
                if name in types:
                    errors.append(f"{path}:{i}: duplicate TYPE for {name}")
                types[name] = kind
                current = name
                continue
            errors.append(f"{path}:{i}: malformed comment line: {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"{path}:{i}: malformed sample line: {line!r}")
            continue
        name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        value = parse_value(value_text)
        # Resolve the family: histogram samples use _bucket/_sum/_count.
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name.removesuffix(suffix)
            if name.endswith(suffix) and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            errors.append(f"{path}:{i}: sample {name} precedes its # TYPE line")
            continue
        if family != current:
            errors.append(f"{path}:{i}: sample {name} outside its family block")
        kind = types[family]
        if kind == "histogram":
            if name.endswith("_bucket"):
                le = LE_RE.search(labels)
                if not le:
                    errors.append(f"{path}:{i}: histogram bucket without le label")
                    continue
                bound = parse_value(le.group(1)) if le.group(1) != "+Inf" else float("inf")
                buckets.setdefault(family, []).append((bound, value))
            elif name.endswith("_sum"):
                sums[family] = value
            elif name.endswith("_count"):
                counts[family] = value
            else:
                errors.append(f"{path}:{i}: bare sample {name} in histogram family")
        else:
            if value < 0 and kind == "counter":
                errors.append(f"{path}:{i}: counter {name} is negative")

    populated_histograms = 0
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series = buckets.get(family, [])
        if not series:
            errors.append(f"{path}: histogram {family} has no _bucket samples")
            continue
        bounds = [b for b, _ in series]
        values = [v for _, v in series]
        if bounds != sorted(bounds):
            errors.append(f"{path}: histogram {family} le bounds not increasing")
        if values != sorted(values):
            errors.append(f"{path}: histogram {family} buckets not cumulative")
        if bounds[-1] != float("inf"):
            errors.append(f"{path}: histogram {family} missing +Inf bucket")
        if family not in counts:
            errors.append(f"{path}: histogram {family} missing _count")
        elif counts[family] != values[-1]:
            errors.append(
                f"{path}: histogram {family} _count {counts[family]:g} != "
                f"+Inf bucket {values[-1]:g}")
        if family not in sums:
            errors.append(f"{path}: histogram {family} missing _sum")
        if counts.get(family, 0) > 0:
            populated_histograms += 1

    if populated_histograms < min_histograms:
        errors.append(
            f"{path}: only {populated_histograms} histogram(s) with samples; "
            f"need >= {min_histograms}")
    return errors


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


def validate_timeseries(path: Path, min_windows: int) -> list[str]:
    errors: list[str] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]
    if not lines:
        return [f"{path}: empty time-series export"]

    populated = 0
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
        if w["serve_requests"] > 0:
            populated += 1

    if populated < min_windows:
        errors.append(
            f"{path}: only {populated} populated window(s) "
            f"(serve_requests > 0); need >= {min_windows}")
    return errors


def validate_speedscope(path: Path) -> list[str]:
    errors: list[str] = []
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or not JSON: {e}"]
    if doc.get("$schema") != "https://www.speedscope.app/file-format-schema.json":
        errors.append(f"{path}: missing/wrong $schema")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list) or not all(
            isinstance(f, dict) and isinstance(f.get("name"), str) for f in frames):
        errors.append(f"{path}: shared.frames must be a list of {{name}} objects")
        frames = []
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        errors.append(f"{path}: profiles must be a non-empty list")
        profiles = []
    for p_idx, p in enumerate(profiles):
        where = f"{path}: profiles[{p_idx}]"
        if p.get("type") != "sampled" or p.get("unit") != "microseconds":
            errors.append(f"{where}: expected type 'sampled', unit 'microseconds'")
        samples = p.get("samples", [])
        weights = p.get("weights", [])
        if len(samples) != len(weights):
            errors.append(f"{where}: {len(samples)} samples vs "
                          f"{len(weights)} weights")
        for s in samples:
            if not isinstance(s, list) or not s or not all(
                    isinstance(f, int) and 0 <= f < len(frames) for f in s):
                errors.append(f"{where}: sample stack with out-of-range "
                              "frame index")
                break
        if not all(isinstance(wt, int) and wt >= 0 for wt in weights):
            errors.append(f"{where}: weights must be non-negative integers")
        elif p.get("endValue") != sum(weights) or p.get("startValue") != 0:
            errors.append(f"{where}: startValue/endValue inconsistent with "
                          "the weight sum")
    active = doc.get("activeProfileIndex")
    if profiles and not (isinstance(active, int) and 0 <= active < len(profiles)):
        errors.append(f"{path}: activeProfileIndex out of range")
    return errors


def main(argv: list[str]) -> int:
    prom: Path | None = None
    catalog: Path | None = None
    timeseries: Path | None = None
    speedscope: Path | None = None
    sources: list[Path] = []
    min_histograms = 0
    min_windows = 0
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--prom" and i + 1 < len(argv):
            prom = Path(argv[i + 1]); i += 2
        elif arg == "--min-histograms" and i + 1 < len(argv):
            min_histograms = int(argv[i + 1]); i += 2
        elif arg == "--catalog" and i + 1 < len(argv):
            catalog = Path(argv[i + 1]); i += 2
        elif arg == "--timeseries" and i + 1 < len(argv):
            timeseries = Path(argv[i + 1]); i += 2
        elif arg == "--min-windows" and i + 1 < len(argv):
            min_windows = int(argv[i + 1]); i += 2
        elif arg == "--speedscope" and i + 1 < len(argv):
            speedscope = Path(argv[i + 1]); i += 2
        elif arg == "--sources":
            sources = [Path(a) for a in argv[i + 1:]]; i = len(argv)
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if prom is None and catalog is None and timeseries is None and speedscope is None:
        print(__doc__, file=sys.stderr)
        return 2

    errors: list[str] = []
    if prom is not None:
        errors += validate_prometheus(prom, min_histograms)
    if catalog is not None:
        if not sources:
            print("validate_metrics: --catalog requires --sources", file=sys.stderr)
            return 2
        errors += diff_catalog(catalog, sources)
    if timeseries is not None:
        errors += validate_timeseries(timeseries, min_windows)
    if speedscope is not None:
        errors += validate_speedscope(speedscope)
    for e in errors:
        print(e)
    if errors:
        print(f"validate_metrics: {len(errors)} finding(s)")
        return 1
    checked = [s for s in (prom and "exposition", catalog and "catalog",
                           timeseries and "time-series",
                           speedscope and "speedscope") if s]
    print(f"validate_metrics: {' + '.join(checked)} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
