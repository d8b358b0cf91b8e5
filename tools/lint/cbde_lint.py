#!/usr/bin/env python3
"""cbde_lint: repo-specific static checks clang-tidy cannot express.

Registered as ctest `lint.cbde` (and `lint.cbde_selftest`); also run by
ci.sh over src/ tests/ bench/. Checks, each with a stable id:

  raw-sync        std synchronization primitives (std mutexes, lock guards,
                  condition variables and their headers) are banned outside
                  src/util/thread_annotations.hpp — everything else must use
                  the annotated cbde::Mutex / LockGuard / CondVar wrappers so
                  Clang's -Wthread-safety can prove the lock discipline.
  nolint-form     every NOLINT / NOLINTNEXTLINE must name its check,
                  NOLINT(check-name), and carry a justification on the same
                  line; blanket NOLINTBEGIN/END regions are banned.
  banned-fn       rand / strcpy / sprintf / atoi calls (std:: or global).
                  Use util::Rng, bounded copies, snprintf/format, strto*.
  catch-swallow   `catch (...)` blocks must rethrow, forward the exception
                  (set_exception), or visibly report (log/fprintf/abort);
                  silent swallowing hides decoder-contract violations.
  fuzz-coverage   every public decoder entry point must be exercised by a
                  registered fuzz target: the target name must appear in
                  tests/fuzz/CMakeLists.txt and the entry-point symbol in
                  tests/fuzz/fuzz_main.cpp.
  contracts-form  CBDE_EXPECT / CBDE_ENSURE / CBDE_ASSERT /
                  CBDE_ASSERT_INVARIANT conditions must be pure — no ++/--,
                  assignment, container mutation, or new/delete — so the
                  configured contract level (see src/util/contracts.hpp)
                  can never change program behavior. Bare assert() is
                  banned outside tests/ and bench/: use CBDE_ASSERT so the
                  check participates in the contract-level scheme.
  obs-metric      every metric registered against the obs registry
                  (counter/gauge/histogram with a literal name) must
                  follow the cbde_<layer>_<name>[_unit] naming
                  convention (lowercase snake_case, >= 3 segments) and be
                  registered at exactly one source location — one site per
                  name keeps the catalog in docs/OBSERVABILITY.md
                  unambiguous. Components share handles, they do not
                  re-register. Per-shard series registered through
                  obs::shard_metric_name("cbde_shard_...", i) are collected
                  under the catalog spelling cbde_shard_<k>_..., and the
                  timed-mutex instrument Obs::lock_wait_profile("...") is a
                  histogram registration — both obey the same naming and
                  one-site rules. Tests that exercise registry validation
                  itself annotate the line `// lint: obs-ok <reason>`.

Usage:
  cbde_lint.py DIR [DIR...]    lint *.cpp/*.hpp/*.h under the dirs
  cbde_lint.py --self-test     prove each check still fires on seeded
                               violations (exits non-zero otherwise)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}

# The one file allowed to touch the raw std primitives: the annotated
# wrapper layer itself.
RAW_SYNC_ALLOWED = ("src/util/thread_annotations.hpp",)

RAW_SYNC_TOKENS = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

BANNED_FN = re.compile(r"(?<![\w.>])(?:std::)?(rand|strcpy|sprintf|atoi)\s*\(")

NOLINT_FORM = re.compile(r"NOLINT(?:NEXTLINE)?\(([A-Za-z0-9.,*-]+)\)(.*)$")

# What a catch (...) body must contain to count as "not swallowing":
# rethrow, forwarding into a promise, or a visible report. `lint:
# swallow-ok` is the explicit, greppable escape hatch.
CATCH_OK = re.compile(
    r"\bthrow\b|set_exception|\blog\b|log_|_log|fprintf|abort\(|FAIL\(|"
    r"ADD_FAILURE|lint:\s*swallow-ok"
)

# decoder entry point -> fuzz target that must cover it. The symbol must
# appear in fuzz_main.cpp; the target name must be registered in the
# tests/fuzz CMake foreach list so ctest actually runs it.
FUZZ_REQUIRED = {
    "delta::apply": "cbd1",
    "delta::apply_into": "cbd1",
    "delta::inspect": "cbd1",
    "compress::decompress": "compress",
    "compress::decompress_into": "compress",
    "http::HttpRequest::parse": "http",
    "http::HttpResponse::parse": "http",
    "trace::parse_clf": "access_log",
    "trace::read_access_log": "access_log",
    "core::load_config": "config",
}

# Unreserved growth in the byte-pipeline layers: push_back / emplace_back /
# append inside a loop in src/delta or src/compress without a preceding
# reserve() on the same receiver re-allocates O(log n) times per call — on
# the per-request encode/decode path that shows up in the measured
# allocations per request (tests/alloc_budget_test.cpp). The lint check is
# the fast, always-on guard for those two directories;
# `// lint: growth-ok <reason>` is the escape hatch.
GROWTH_DIRS = ("src/delta/", "src/compress/")
GROWTH_CALL = re.compile(
    r"\b(?P<recv>[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(?P<op>push_back|emplace_back|append)\s*\(")
GROWTH_OK = re.compile(r"lint:\s*growth-ok")
LOOP_HEAD = re.compile(r"\b(?:for|while)\s*\(")

# Side effects that must never appear inside a contract condition: the
# lookbehind/lookahead on `=` spare the comparison operators.
CONTRACT_MACRO = re.compile(r"\bCBDE_(?:EXPECT|ENSURE|ASSERT|ASSERT_INVARIANT)\s*\(")
CONTRACT_SIDE_EFFECT = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?!=)|\bnew\b|\bdelete\b|"
    r"\.(?:push_back|pop_back|emplace|emplace_back|insert|erase|clear|"
    r"reset|release|resize|reserve|assign)\s*\(")
BARE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")


# A registration call with a literal metric name: .counter("..."),
# .gauge("..."), .histogram("..."). The [^\w] look-behind keeps
# `find_counter(` from matching the bare `counter` alternative.
OBS_REGISTRATION = re.compile(
    r"(?:^|[^\w])(counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"")

# A per-shard registration through the name helper: the literal is the base
# name ("cbde_shard_requests_total"); the helper splices the shard index in
# at runtime, so the catalog (and the one-site rule) track the family under
# the `<k>` placeholder spelling (cbde_shard_<k>_requests_total).
OBS_SHARD_REGISTRATION = re.compile(
    r"(?:^|[^\w])(counter|gauge|histogram)\s*\(\s*"
    r"(?:\w+::)*shard_metric_name\s*\(\s*\"([^\"]+)\"")

# The timed-mutex instrument: Obs::lock_wait_profile registers (and owns)
# a lock-wait histogram per site name; one source site per name keeps the
# "which mutex is this" question answerable from the catalog alone.
OBS_LOCK_WAIT_REGISTRATION = re.compile(
    r"\block_wait_profile\s*\(\s*\"([^\"]+)\"")

# cbde_<layer>_<name>[_unit]: lowercase snake_case, at least three segments
# (the cbde prefix, a layer, and a name). Shard families are validated with
# their `<k>` placeholder removed.
OBS_METRIC_NAME = re.compile(r"^cbde_[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")


class Finding:
    def __init__(self, check: str, path: Path, line: int, message: str):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_code_noise(line: str) -> str:
    """Remove string/char literals and // comments so token checks do not
    fire on prose. Crude (no multi-line awareness) but right for this tree's
    style, and the self-test pins the behavior."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in ("\"", "'"):
            quote = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def rel_posix(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def check_raw_sync(path: Path, lines: list[str], findings: list[Finding]) -> None:
    if rel_posix(path).endswith(RAW_SYNC_ALLOWED):
        return
    for i, line in enumerate(lines, 1):
        m = RAW_SYNC_TOKENS.search(strip_code_noise(line))
        if m:
            findings.append(Finding(
                "raw-sync", path, i,
                f"raw std synchronization `{m.group(0).strip()}`; use the annotated "
                "wrappers from util/thread_annotations.hpp"))


def check_nolint_form(path: Path, lines: list[str], findings: list[Finding]) -> None:
    for i, line in enumerate(lines, 1):
        if "NOLINT" not in line:
            continue
        if "NOLINTBEGIN" in line or "NOLINTEND" in line:
            findings.append(Finding(
                "nolint-form", path, i,
                "blanket NOLINTBEGIN/NOLINTEND region; suppress single lines "
                "with NOLINT(check-name) + justification"))
            continue
        at = line.find("NOLINT")
        m = NOLINT_FORM.match(line[at:])
        if not m:
            findings.append(Finding(
                "nolint-form", path, i,
                "bare NOLINT; use NOLINT(check-name) and say why"))
            continue
        justification = m.group(2).strip(" \t-—:")
        if len(justification) < 10:
            findings.append(Finding(
                "nolint-form", path, i,
                f"NOLINT({m.group(1)}) without a justification on the line"))


def check_banned_fn(path: Path, lines: list[str], findings: list[Finding]) -> None:
    for i, line in enumerate(lines, 1):
        for m in BANNED_FN.finditer(strip_code_noise(line)):
            findings.append(Finding(
                "banned-fn", path, i,
                f"banned function `{m.group(1)}` (use util::Rng / bounded "
                "copies / snprintf / strto*)"))


def check_catch_swallow(path: Path, text: str, findings: list[Finding]) -> None:
    for m in re.finditer(r"catch\s*\(\s*\.\.\.\s*\)\s*\{", text):
        # Walk the balanced braces of the handler block.
        depth, j = 1, m.end()
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        body = text[m.end():j - 1]
        if not CATCH_OK.search(body):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                "catch-swallow", path, line,
                "catch (...) swallows the exception; rethrow, set_exception, "
                "or log (or annotate `// lint: swallow-ok <reason>`)"))


def check_contracts_form(path: Path, lines: list[str], findings: list[Finding]) -> None:
    stripped = "\n".join(strip_code_noise(line) for line in lines)
    for m in CONTRACT_MACRO.finditer(stripped):
        depth, j = 1, stripped.index("(", m.end() - 1) + 1
        start = j
        while j < len(stripped) and depth:
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
            j += 1
        cond = stripped[start:j - 1]
        se = CONTRACT_SIDE_EFFECT.search(cond)
        if se:
            line_no = stripped.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                "contracts-form", path, line_no,
                f"contract condition contains a side effect (`{se.group(0).strip()}`); "
                "conditions must be pure so the contract level cannot change "
                "program behavior"))
    rel = rel_posix(path)
    if rel.startswith(("tests/", "bench/")):
        return
    for i, line in enumerate(lines, 1):
        if BARE_ASSERT.search(strip_code_noise(line)):
            findings.append(Finding(
                "contracts-form", path, i,
                "bare assert(); use CBDE_ASSERT from util/contracts.hpp so the "
                "check participates in the contract-level scheme"))


def strip_comment(line: str) -> str:
    """Drop a trailing // comment but KEEP string literals intact — the
    obs-metric check reads names out of the literals strip_code_noise would
    erase."""
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in ("\"", "'"):
            quote = c
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        i += 1
    return line


# metric name -> list of (path, line, registration kind)
ObsSites = dict[str, list[tuple[Path, int, str]]]


def collect_obs_registrations(path: Path, lines: list[str], sites: ObsSites) -> None:
    # Join comment-stripped lines so a call wrapped after the '(' still
    # matches (\s* in OBS_REGISTRATION crosses the newline). Lines carrying
    # the explicit escape hatch are blanked (line numbering is preserved).
    stripped = "\n".join(
        "" if "lint: obs-ok" in line else strip_comment(line) for line in lines)
    for m in OBS_REGISTRATION.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        sites.setdefault(m.group(2), []).append((path, line_no, m.group(1)))
    for m in OBS_SHARD_REGISTRATION.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        name = m.group(2).replace("cbde_shard_", "cbde_shard_<k>_", 1)
        sites.setdefault(name, []).append((path, line_no, m.group(1)))
    for m in OBS_LOCK_WAIT_REGISTRATION.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        sites.setdefault(m.group(1), []).append((path, line_no, "histogram"))


def check_obs_metrics(sites: ObsSites, findings: list[Finding]) -> None:
    for name, regs in sorted(sites.items()):
        path, line, _kind = regs[0]
        if not OBS_METRIC_NAME.match(name.replace("<k>_", "")):
            findings.append(Finding(
                "obs-metric", path, line,
                f"metric name '{name}' violates cbde_<layer>_<name>[_unit] "
                "(lowercase snake_case, >= 3 segments)"))
        if len(regs) > 1:
            where = ", ".join(f"{rel_posix(p)}:{ln}" for p, ln, _ in regs[1:])
            findings.append(Finding(
                "obs-metric", path, line,
                f"metric '{name}' registered at {len(regs)} sites (also "
                f"{where}); register once and share the handle"))
        for p, ln, kind in regs:
            is_counter = kind == "counter"
            if is_counter and not name.endswith("_total"):
                findings.append(Finding(
                    "obs-metric", p, ln,
                    f"counter '{name}' must carry the _total suffix"))
            elif not is_counter and name.endswith("_total"):
                findings.append(Finding(
                    "obs-metric", p, ln,
                    f"{kind} '{name}' must not carry the counter-only "
                    "_total suffix"))


def check_hot_path_growth(path: Path, lines: list[str],
                          findings: list[Finding]) -> None:
    posix = path.resolve().as_posix()
    if not any(d in posix for d in GROWTH_DIRS):
        return
    text = "\n".join(strip_code_noise(line) for line in lines)
    reported: set[int] = set()
    for head in LOOP_HEAD.finditer(text):
        # Walk the loop-head parens, then the braced body (or the single
        # statement up to ';').
        j = text.index("(", head.start())
        depth = 0
        while j < len(text):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        k = j + 1
        while k < len(text) and text[k] in " \t\n":
            k += 1
        if k < len(text) and text[k] == "{":
            depth, end = 1, k + 1
            while end < len(text) and depth:
                if text[end] == "{":
                    depth += 1
                elif text[end] == "}":
                    depth -= 1
                end += 1
            body_start, body_end = k + 1, end - 1
        else:
            semi = text.find(";", k)
            if semi < 0:
                continue
            body_start, body_end = k, semi
        for g in GROWTH_CALL.finditer(text, body_start, body_end):
            recv = g.group("recv")
            # A reserve on the same receiver anywhere before the loop head
            # (i.e. earlier in the file) sizes the container up front.
            if re.search(rf"\b{re.escape(recv)}\s*(?:\.|->)\s*reserve\s*\(",
                         text[:head.start()]):
                continue
            line_no = text.count("\n", 0, g.start()) + 1
            if line_no in reported:
                continue  # nested loops see the same call twice
            if GROWTH_OK.search(lines[line_no - 1]) or (
                    line_no >= 2 and GROWTH_OK.search(lines[line_no - 2])):
                continue
            reported.add(line_no)
            findings.append(Finding(
                "hot-path-growth", path, line_no,
                f"{recv}.{g.group('op')} grows inside a loop with no "
                f"preceding {recv}.reserve(); size the container up front "
                "or annotate `// lint: growth-ok <reason>`"))


def check_fuzz_coverage(root: Path, findings: list[Finding]) -> None:
    cmake = root / "tests/fuzz/CMakeLists.txt"
    main = root / "tests/fuzz/fuzz_main.cpp"
    if not cmake.is_file() or not main.is_file():
        findings.append(Finding(
            "fuzz-coverage", cmake, 1, "fuzz harness missing (tests/fuzz/)"))
        return
    cmake_text = cmake.read_text(encoding="utf-8")
    targets: set[str] = set()
    m = re.search(r"foreach\s*\(\s*fuzz_target\s+([^)]*)\)", cmake_text)
    if m:
        targets = set(m.group(1).split())
    main_text = main.read_text(encoding="utf-8")
    for symbol, target in sorted(FUZZ_REQUIRED.items()):
        if target not in targets:
            findings.append(Finding(
                "fuzz-coverage", cmake, 1,
                f"decoder entry point {symbol} requires fuzz target "
                f"'{target}' in the ctest foreach list"))
        if symbol not in main_text:
            findings.append(Finding(
                "fuzz-coverage", main, 1,
                f"decoder entry point {symbol} is not exercised by "
                "fuzz_main.cpp"))


def lint_paths(dirs: list[Path], root: Path) -> list[Finding]:
    findings: list[Finding] = []
    files: list[Path] = []
    for d in dirs:
        if d.is_file():
            files.append(d)
        else:
            files.extend(p for p in sorted(d.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    obs_sites: ObsSites = {}
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        check_raw_sync(path, lines, findings)
        check_nolint_form(path, lines, findings)
        check_banned_fn(path, lines, findings)
        check_catch_swallow(path, text, findings)
        check_contracts_form(path, lines, findings)
        check_hot_path_growth(path, lines, findings)
        collect_obs_registrations(path, lines, obs_sites)
    check_obs_metrics(obs_sites, findings)
    check_fuzz_coverage(root, findings)
    return findings


# ----------------------------------------------------------------- self-test

SEEDED_VIOLATIONS = {
    "raw-sync": "#include <mutex>\nstd::mutex naked_mu;\n",
    "nolint-form": "int x = get();  // NOLINT\n"
                   "int y = get();  // NOLINT(cert-err34-c)\n"
                   "// NOLINTBEGIN(bugprone-*)\n",
    "banned-fn": "int pick() { return rand() % 6; }\n"
                 "void copy(char* d, const char* s) { strcpy(d, s); }\n",
    "catch-swallow": "void f() { try { g(); } catch (...) { } }\n",
    # Three distinct contracts-form violations: mutation inside a contract
    # condition (two flavors) and a bare assert outside tests/.
    "contracts-form": "void f(std::vector<int>& v, int counter) {\n"
                      "  CBDE_EXPECT(!v.empty() && ++counter > 0);\n"
                      "  CBDE_ENSURE(v.erase(v.begin()) != v.end());\n"
                      "  assert(!v.empty());\n"
                      "}\n",
    # Five distinct obs-metric violations: bad casing, duplicate
    # registration, a counter without the _total suffix, a shard family
    # with bad casing (checked with the <k> placeholder stripped), and a
    # timed-mutex instrument registered at two sites.
    "obs-metric": "void wire(cbde::obs::MetricsRegistry& reg, cbde::obs::Obs& obs) {\n"
                  '  reg.counter("BadName_total", "not snake_case");\n'
                  '  reg.counter("cbde_seed_dup_total", "first site");\n'
                  '  reg.counter("cbde_seed_dup_total", "second site");\n'
                  '  reg.counter("cbde_seed_requests", "missing _total");\n'
                  '  reg.counter(obs::shard_metric_name("cbde_shard_BadSeed_total", i),\n'
                  '              "shard family, bad casing");\n'
                  '  obs.lock_wait_profile("cbde_seed_dupwait_seconds", "first site");\n'
                  '  obs.lock_wait_profile("cbde_seed_dupwait_seconds", "second site");\n'
                  "}\n",
    # Unreserved growth in a loop (the check is gated to src/delta and
    # src/compress paths; SEEDED_SUBDIRS places this fixture accordingly).
    "hot-path-growth": "void tokenize(util::Bytes& out, util::BytesView in) {\n"
                       "  for (std::size_t i = 0; i < in.size(); ++i) {\n"
                       "    out.push_back(in[i]);\n"
                       "  }\n"
                       "}\n",
}

# Checks whose seeded fixture must live under a specific repo-relative
# subdirectory to be in scope.
SEEDED_SUBDIRS = {
    "hot-path-growth": "src/delta",
}

SEEDED_CLEAN = (
    '#include "util/thread_annotations.hpp"\n'
    "// a comment mentioning strcpy( is fine, as is this string:\n"
    'const char* s = "sprintf(";\n'
    "int z = get();  // NOLINT(cert-err34-c) value range pre-checked above\n"
    "void f() { try { g(); } catch (...) { std::fprintf(stderr, \"x\\n\"); } }\n"
    "void h() { try { g(); } catch (...) { throw; } }\n"
    "void k(std::size_t version, const Doc& doc) {\n"
    "  CBDE_EXPECT(version > 0 && !doc.empty());\n"
    "  CBDE_ENSURE(doc.size() <= kMaxDoc);  // comparisons are not mutations\n"
    "  CBDE_ASSERT_INVARIANT(doc.ok() == true);\n"
    "}\n"
    "void wire(cbde::obs::MetricsRegistry& reg, cbde::obs::Obs& obs) {\n"
    '  reg.counter("cbde_seed_requests_total", "well-formed, one site");\n'
    '  reg.gauge(\n      "cbde_seed_queue_depth", "wrapped call still collected");\n'
    '  auto* c = reg.find_counter("cbde_seed_requests_total");  // lookup, not a site\n'
    '  reg.counter(obs::shard_metric_name("cbde_shard_seed_total", i),\n'
    '              "per-shard family, one site, catalogued as cbde_shard_<k>_seed_total");\n'
    '  obs.lock_wait_profile("cbde_seed_wait_seconds", "timed-mutex site, once");\n'
    "}\n"
)


GROWTH_CLEAN = (
    "void pack(util::Bytes& out, util::BytesView in) {\n"
    "  out.reserve(in.size());\n"
    "  for (std::size_t i = 0; i < in.size(); ++i) {\n"
    "    out.push_back(in[i]);  // reserved above\n"
    "  }\n"
    "  util::Bytes header;\n"
    "  for (int i = 0; i < 4; ++i) {\n"
    "    // lint: growth-ok bounded four-byte header\n"
    "    header.push_back(0);\n"
    "  }\n"
    "  util::Bytes tail;\n"
    "  while (tail.size() < 4) {\n"
    "    tail.push_back(0);  // lint: growth-ok bounded pushes\n"
    "  }\n"
    "}\n"
)


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="cbde_lint_selftest") as tmp:
        tmpdir = Path(tmp)
        # Each violation class, alone in a file, must be caught — i.e. a
        # lint run over that file exits non-zero for that check.
        for check, source in SEEDED_VIOLATIONS.items():
            subdir = tmpdir / SEEDED_SUBDIRS.get(check, ".")
            subdir.mkdir(parents=True, exist_ok=True)
            f = subdir / f"{check.replace('-', '_')}.cpp"
            f.write_text(source, encoding="utf-8")
            found = [x for x in lint_paths([f], REPO_ROOT) if x.check == check]
            if not found:
                print(f"self-test FAIL: seeded {check} violation not detected")
                failures += 1
            f.unlink()
        # The clean file must produce no findings (fuzz-coverage runs against
        # the real repo and must also be clean).
        clean = tmpdir / "clean.cpp"
        clean.write_text(SEEDED_CLEAN, encoding="utf-8")
        extra = lint_paths([clean], REPO_ROOT)
        # The growth clean twin must sit in a gated directory to be in scope:
        # reserve-preceded loops and the escape hatch on the line or the line
        # above stay silent.
        growth_clean = tmpdir / "src/compress/clean_growth.cpp"
        growth_clean.parent.mkdir(parents=True, exist_ok=True)
        growth_clean.write_text(GROWTH_CLEAN, encoding="utf-8")
        extra += lint_paths([growth_clean], REPO_ROOT)
        for x in extra:
            print(f"self-test FAIL: false positive: {x}")
            failures += 1
        # fuzz-coverage must fire when a target is missing from the list.
        fake = tmpdir / "tests/fuzz"
        fake.mkdir(parents=True)
        (fake / "CMakeLists.txt").write_text(
            "foreach(fuzz_target cbd1 compress)\nendforeach()\n", encoding="utf-8")
        (fake / "fuzz_main.cpp").write_text(
            "// calls delta::apply only\n", encoding="utf-8")
        cov: list[Finding] = []
        check_fuzz_coverage(tmpdir, cov)
        if not any(x.check == "fuzz-coverage" for x in cov):
            print("self-test FAIL: seeded fuzz-coverage gap not detected")
            failures += 1
    if failures:
        print(f"cbde_lint self-test: {failures} failure(s)")
        return 1
    print("cbde_lint self-test: all violation classes detected, no false positives")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        return self_test()
    dirs = [Path(a) for a in argv[1:]]
    for d in dirs:
        if not d.exists():
            print(f"cbde_lint: no such path: {d}", file=sys.stderr)
            return 2
    findings = lint_paths(dirs, REPO_ROOT)
    for f in findings:
        print(f)
    if findings:
        print(f"cbde_lint: {len(findings)} finding(s)")
        return 1
    print("cbde_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
