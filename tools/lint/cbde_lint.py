#!/usr/bin/env python3
"""cbde_lint: repo-specific static checks clang-tidy cannot express.

Registered as ctest `lint.cbde` (and `lint.cbde_selftest`) over src/ tests/
bench/. Each check guards a property no other gate in this repo fails on
(docs/ANALYSIS.md lists the seeded fault behind each). Checks, each with a
stable id:

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
  entry-contract  every entry point in ENTRY_POINTS must state at least one
                  contract: a CBDE_EXPECT/CBDE_ENSURE/CBDE_ASSERT macro, or
                  an early validated reject (`if (...) throw` / `return
                  std::nullopt`), directly or in a same-file callee.
  fuzz-coverage   every decoder in ENTRY_POINTS must be exercised by its
                  registered fuzz target: the target name must appear in
                  tests/fuzz/CMakeLists.txt and the entry-point symbol in
                  the code of tests/fuzz/fuzz_main.cpp (not in a comment or
                  a string).
  bare-assert     assert() is banned outside tests/ and bench/: every
                  build CI runs is RelWithDebInfo, which defines NDEBUG,
                  so it would check nothing there; use CBDE_ASSERT from
                  util/contracts.hpp.
  obs-metric      every metric registered against the obs registry
                  (counter/gauge/histogram with a literal name) must
                  follow the cbde_<layer>_<name>[_unit] naming
                  convention (lowercase snake_case, >= 3 segments) and be
                  registered at exactly one source location — one site per
                  name keeps the catalog in docs/OBSERVABILITY.md
                  unambiguous. Components share handles, they do not
                  re-register. The timed-mutex instrument
                  Obs::lock_wait_profile("...") is a histogram registration
                  and obeys the same naming and one-site rules. Tests that exercise registry validation
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

# The entry points that take bytes or requests from outside the process:
# (defining file, symbol as callers name it, fuzz target or None). Each
# must state a contract (entry-contract). Each decoder names the fuzz
# target that must cover it: the symbol must appear in fuzz_main.cpp and
# the target in the tests/fuzz CMake foreach list (fuzz-coverage).
ENTRY_POINTS = [
    ("src/delta/delta.cpp", "delta::apply", "cbd1"),
    ("src/delta/delta.cpp", "delta::inspect", "cbd1"),
    ("src/compress/compressor.cpp", "compress::compress", None),
    ("src/compress/compressor.cpp", "compress::decompress", "compress"),
    ("src/http/message.cpp", "http::HttpRequest::parse", "http"),
    ("src/http/message.cpp", "http::HttpRequest::serialize", None),
    ("src/http/message.cpp", "http::HttpResponse::parse", "http"),
    ("src/http/message.cpp", "http::HttpResponse::serialize", None),
    ("src/http/url.cpp", "http::parse_url", None),
    ("src/http/url.cpp", "http::percent_decode", None),
    ("src/http/partition.cpp", "http::RuleBook::partition", None),
    ("src/trace/access_log.cpp", "trace::parse_clf", "access_log"),
    ("src/trace/access_log.cpp", "trace::read_access_log", "access_log"),
    ("src/core/config_loader.cpp", "core::load_config", "config"),
    ("src/core/delta_server.cpp", "core::DeltaServer::serve", None),
    # Class and version come straight from the /.cbde/base?class=&v= query.
    ("src/core/delta_server.cpp", "core::DeltaServer::fetch_base", None),
    ("src/core/delta_worker_pool.cpp", "core::DeltaWorkerPool::submit", None),
]

# Unreserved growth in the byte-pipeline layers: push_back / emplace_back /
# append inside a loop in src/delta or src/compress without a reserve() on
# the same receiver earlier in the same function re-allocates O(log n) times
# per call — on the per-request encode/decode path that shows up in the measured
# allocations per request (tests/alloc_budget_test.cpp). The lint check is
# the fast, always-on guard for those two directories;
# `// lint: growth-ok <reason>` is the escape hatch.
GROWTH_DIRS = ("src/delta/", "src/compress/")
GROWTH_CALL = re.compile(
    r"\b(?P<recv>[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(?P<op>push_back|emplace_back|append)\s*\(")
GROWTH_OK = re.compile(r"lint:\s*growth-ok")
LOOP_HEAD = re.compile(r"\b(?:for|while)\s*\(")

BARE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")

# What counts as a stated contract in an entry point's body: a contract
# macro, or an `if` that throws or rejects within a few lines.
CONTRACT_EVIDENCE = re.compile(
    r"\bCBDE_(?:EXPECT|ENSURE|ASSERT|ASSERT_INVARIANT)\s*\("
    r"|\bif\s*\(.{0,240}?(?:\bthrow\b|return\s+std::nullopt)", re.S)

# A function definition header: (qualified) name, balanced-enough params,
# trailing qualifiers / initializers, then the opening brace.
FUNC_DEF = re.compile(
    r"(?P<name>(?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)"
    r"\s*\((?P<params>[^;{}]*?)\)"
    r"(?:[^;{}()]|\([^()]*\))*?\{")
NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "constexpr", "static_assert", "do", "else",
    "new", "delete", "throw", "case", "default", "assert",
}
CALL = re.compile(r"(?:(?<![\w.>:])|(?:\.|->)\s*)([A-Za-z_]\w*)\s*\(")


# A registration call with a literal metric name: .counter("..."),
# .gauge("..."), .histogram("..."). The [^\w] look-behind keeps
# `find_counter(` from matching the bare `counter` alternative.
OBS_REGISTRATION = re.compile(
    r"(?:^|[^\w])(counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"")

# The timed-mutex instrument: Obs::lock_wait_profile registers (and owns)
# a lock-wait histogram per site name; one source site per name keeps the
# "which mutex is this" question answerable from the catalog alone.
OBS_LOCK_WAIT_REGISTRATION = re.compile(
    r"\block_wait_profile\s*\(\s*\"([^\"]+)\"")

# cbde_<layer>_<name>[_unit]: lowercase snake_case, at least three segments
# (the cbde prefix, a layer, and a name).
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


def check_bare_assert(path: Path, lines: list[str], findings: list[Finding]) -> None:
    if rel_posix(path).startswith(("tests/", "bench/")):
        return
    for i, line in enumerate(lines, 1):
        if BARE_ASSERT.search(strip_code_noise(line)):
            findings.append(Finding(
                "bare-assert", path, i,
                "bare assert() checks nothing under NDEBUG; use CBDE_ASSERT "
                "from util/contracts.hpp"))


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
    for m in OBS_LOCK_WAIT_REGISTRATION.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        sites.setdefault(m.group(1), []).append((path, line_no, "histogram"))


def check_obs_metrics(sites: ObsSites, findings: list[Finding]) -> None:
    for name, regs in sorted(sites.items()):
        path, line, _kind = regs[0]
        if not OBS_METRIC_NAME.match(name):
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
    text = code_text("\n".join(lines))
    spans = function_spans(text)
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
        # Only a reserve in the function that holds the loop sizes its
        # container: the innermost definition around the loop head.
        func_start = max((start for _, _, start, end in spans
                          if start <= head.start() < end), default=0)
        for g in GROWTH_CALL.finditer(text, body_start, body_end):
            recv = g.group("recv")
            # A reserve on the same receiver earlier in the function, before
            # the loop head, sizes the container up front.
            if re.search(rf"\b{re.escape(recv)}\s*(?:\.|->)\s*reserve\s*\(",
                         text[func_start:head.start()]):
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
                f"{recv}.reserve() before it in the same function; size the "
                "container up front or annotate `// lint: growth-ok <reason>`"))


def code_text(text: str) -> str:
    """The file with comments, string contents and preprocessor lines
    blanked, line for line, so neither braces in literals nor `#if
    defined(...)` read as code."""
    return "\n".join(
        "" if line.lstrip().startswith("#") else strip_code_noise(line)
        for line in text.splitlines())


def function_spans(stripped: str) -> list[tuple[str, int, int, int]]:
    """(name as written, header line, body start, body end) of every
    function definition in code_text() output, nested ones included."""
    out = []
    pos = 0
    while m := FUNC_DEF.search(stripped, pos):
        pos = m.start() + 1
        name = m.group("name")
        params = m.group("params")
        before = stripped[:m.start()].rstrip()
        if (name.rsplit("::", 1)[-1] in NOT_FUNCTIONS
                or (m.start() > 0 and not stripped[m.start() - 1].isspace())
                or params.count("(") != params.count(")")
                or before.endswith(("=", "(", ",", "!", "&&", "||", "return"))):
            continue
        depth, end = 0, m.end() - 1
        while end < len(stripped):
            depth += {"{": 1, "}": -1}.get(stripped[end], 0)
            if depth == 0:
                break
            end += 1
        out.append((name, stripped.count("\n", 0, m.start()) + 1, m.end(), end))
        pos = m.end()
    return out


def function_bodies(text: str) -> list[tuple[str, int, str]]:
    """(name as written, header line, body) of every function definition,
    nested ones included."""
    stripped = code_text(text)
    return [(name, line, stripped[start:end])
            for name, line, start, end in function_spans(stripped)]


def states_contract(body: str, bodies: list[tuple[str, int, str]]) -> bool:
    """The body carries contract evidence, or calls a same-file function
    whose own body does."""
    if CONTRACT_EVIDENCE.search(body):
        return True
    called = {c.group(1) for c in CALL.finditer(body)} - NOT_FUNCTIONS
    return any(name.rsplit("::", 1)[-1] in called and CONTRACT_EVIDENCE.search(callee)
               for name, _, callee in bodies)


def check_entry_contracts(root: Path, findings: list[Finding],
                          entry_points=ENTRY_POINTS) -> None:
    for rel, symbol, _target in entry_points:
        path = root / rel
        if not path.is_file():
            findings.append(Finding("entry-contract", path, 1,
                                    f"{symbol}: {rel} not found"))
            continue
        name = symbol.split("::", 1)[1]
        bodies = function_bodies(path.read_text(encoding="utf-8", errors="replace"))
        defs = [(line, body) for n, line, body in bodies if n == name]
        if not defs:
            findings.append(Finding(
                "entry-contract", path, 1,
                f"entry point {symbol} not defined here (moved or renamed? "
                "update ENTRY_POINTS)"))
        for line, body in defs:
            if not states_contract(body, bodies):
                findings.append(Finding(
                    "entry-contract", path, line,
                    f"entry point {symbol} states no precondition (add "
                    "CBDE_EXPECT or a validated early reject)"))


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
    # Code only: a comment or a string that names the symbol calls nothing.
    main_text = code_text(main.read_text(encoding="utf-8"))
    for _rel, symbol, target in ENTRY_POINTS:
        if target is None:
            continue
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
        check_bare_assert(path, lines, findings)
        check_hot_path_growth(path, lines, findings)
        collect_obs_registrations(path, lines, obs_sites)
    check_obs_metrics(obs_sites, findings)
    check_entry_contracts(root, findings)
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
    "bare-assert": "void f(const std::vector<int>& v) {\n"
                   "  assert(!v.empty());\n"
                   "}\n",
    # Four distinct obs-metric violations: bad casing, duplicate
    # registration, a counter without the _total suffix, and a timed-mutex
    # instrument registered at two sites.
    "obs-metric": "void wire(cbde::obs::MetricsRegistry& reg, cbde::obs::Obs& obs) {\n"
                  '  reg.counter("BadName_total", "not snake_case");\n'
                  '  reg.counter("cbde_seed_dup_total", "first site");\n'
                  '  reg.counter("cbde_seed_dup_total", "second site");\n'
                  '  reg.counter("cbde_seed_requests", "missing _total");\n'
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
    "  CBDE_EXPECT(version > 0 && !doc.empty());  // assert( in a comment is fine\n"
    "}\n"
    "void wire(cbde::obs::MetricsRegistry& reg, cbde::obs::Obs& obs) {\n"
    '  reg.counter("cbde_seed_requests_total", "well-formed, one site");\n'
    '  reg.gauge(\n      "cbde_seed_queue_depth", "wrapped call still collected");\n'
    '  auto* c = reg.find_counter("cbde_seed_requests_total");  // lookup, not a site\n'
    '  obs.lock_wait_profile("cbde_seed_wait_seconds", "timed-mutex site, once");\n'
    "}\n"
)


# A reserve in another function sizes nothing here: `out` in decode() is
# unreserved although encode() reserves its own `out` above it. The clean
# twin reserves in the function that loops.
GROWTH_OTHER_FUNCTION = (
    "void encode(util::Bytes& out, util::BytesView in) {\n"
    "  out.reserve(in.size());\n"
    "  for (std::size_t i = 0; i < in.size(); ++i) out.push_back(in[i]);\n"
    "}\n"
    "void decode(util::Bytes& out, util::BytesView in) {\n"
    "  for (std::size_t i = 0; i < in.size(); ++i) out.push_back(in[i]);\n"
    "}\n"
)
GROWTH_OTHER_FUNCTION_CLEAN = GROWTH_OTHER_FUNCTION.replace(
    "void decode(util::Bytes& out, util::BytesView in) {\n",
    "void decode(util::Bytes& out, util::BytesView in) {\n"
    "  out.reserve(in.size());\n")

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

# CONTRACT_BAD states no contract in apply_widget and does not define
# Widget::inspect: two findings. In CONTRACT_CLEAN one entry point
# validates in its own body and the other delegates to a same-file helper
# that rejects.
CONTRACT_BAD = (
    "util::Bytes apply_widget(util::BytesView base, util::BytesView delta) {\n"
    "  util::Bytes out(base.begin(), base.end());\n"
    "  out.insert(out.end(), delta.begin(), delta.end());\n"
    "  return out;\n"
    "}\n"
)
CONTRACT_CLEAN = (
    "#if defined(__GNUC__)\n"
    "#endif\n"
    "std::size_t header_of(util::BytesView delta) {\n"
    "  if (delta.size() < 4) throw CorruptWidget(\"short {\");\n"
    "  return 4;\n"
    "}\n"
    "util::Bytes apply_widget(util::BytesView base, util::BytesView delta) {\n"
    "  CBDE_EXPECT(!delta.empty());\n"
    "  return util::Bytes(base.begin(), base.end());\n"
    "}\n"
    "std::size_t Widget::inspect(util::BytesView delta) const {\n"
    "  return header_of(delta);\n"
    "}\n"
)
CONTRACT_ENTRIES = [("src/widget.cpp", "fix::apply_widget", None),
                    ("src/widget.cpp", "fix::Widget::inspect", None)]


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
        # hot-path-growth reads reserves in the looping function only.
        growth_other = tmpdir / "src/delta/other_function.cpp"
        for source, want in ((GROWTH_OTHER_FUNCTION, 1), (GROWTH_OTHER_FUNCTION_CLEAN, 0)):
            growth_other.write_text(source, encoding="utf-8")
            got = [x for x in lint_paths([growth_other], REPO_ROOT)
                   if x.check == "hot-path-growth"]
            if len(got) != want:
                print(f"self-test FAIL: hot-path-growth gave {len(got)} finding(s) for a "
                      f"reserve in another function, expected {want}")
                failures += 1
        # fuzz-coverage must fire when a target is missing from the list,
        # and when a symbol is named only in a comment or a string; with
        # every symbol called and every target listed it stays silent.
        fake = tmpdir / "tests/fuzz"
        fake.mkdir(parents=True)
        targets = sorted({t for _, _, t in ENTRY_POINTS if t is not None})
        symbols = [sym for _, sym, t in ENTRY_POINTS if t is not None]
        calls = "".join(f"  (void){sym}(in);\n" for sym in symbols)
        cases = (
            ("foreach(fuzz_target cbd1 compress)\nendforeach()\n",
             "// calls delta::apply only\n", True),
            (f"foreach(fuzz_target {' '.join(targets)})\nendforeach()\n",
             f"// {' '.join(symbols)}\nconst char* s = \"{symbols[0]}\";\n", True),
            (f"foreach(fuzz_target {' '.join(targets)})\nendforeach()\n",
             f"void run(const Bytes& in) {{\n{calls}}}\n", False),
        )
        for cmake_text, main_text, want in cases:
            (fake / "CMakeLists.txt").write_text(cmake_text, encoding="utf-8")
            (fake / "fuzz_main.cpp").write_text(main_text, encoding="utf-8")
            cov: list[Finding] = []
            check_fuzz_coverage(tmpdir, cov)
            if bool(cov) != want:
                print("self-test FAIL: fuzz-coverage "
                      + ("missed a seeded gap" if want else "false positive: ")
                      + "; ".join(map(str, cov)))
                failures += 1
        # entry-contract fires on the contract-free entry point only.
        widget = tmpdir / "src/widget.cpp"
        widget.parent.mkdir(parents=True, exist_ok=True)
        for source, want in ((CONTRACT_BAD, 2), (CONTRACT_CLEAN, 0)):
            widget.write_text(source, encoding="utf-8")
            got: list[Finding] = []
            check_entry_contracts(tmpdir, got, CONTRACT_ENTRIES)
            if len(got) != want:
                print(f"self-test FAIL: entry-contract gave {len(got)} finding(s), "
                      f"expected {want}: " + "; ".join(map(str, got)))
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
