#!/usr/bin/env python3
"""cbde_sema.py — semantic analysis for the CBDE tree.

Three passes over the C++ sources, each reporting findings with a stable
check id:

  sema-taint       untrusted bytes (decoder/parser inputs) flowing into an
                   index, offset, or allocation size without a recognized
                   bounds check on the way.
  sema-lock-order  the lock acquisition graph over cbde::Mutex wrappers must
                   be acyclic; any cycle is a potential deadlock that the
                   Clang thread-safety analysis (which has no ordering
                   notion) cannot see.
  sema-contracts   every public decoder/serve entry point must state at
                   least one contract: a CBDE_EXPECT/CBDE_ENSURE/CBDE_ASSERT
                   macro, or an early validated-reject (`if (...) throw` /
                   `return std::nullopt`), directly or in a same-file callee.

A built-in text frontend (comment/string stripping + brace matching)
extracts the function/class model the passes share.

  tools/analyze/cbde_sema.py                  # analyze src/, print every finding
  tools/analyze/cbde_sema.py --graph          # also dump the lock-order graph
  tools/analyze/cbde_sema.py --self-test      # seeded fixtures, one per pass
  tools/analyze/cbde_sema.py PATH...          # analyze other files/directories

Suppress a reviewed line in source with `// sema: ok(<reason>)` on the line
or the line above; an empty reason is itself a finding (sema-suppression).

Exit codes: 0 clean, 1 findings/self-test failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------


class FunctionUnit:
    """One function definition: qualified-ish name, params, stripped body."""

    def __init__(self, path, name, params, body, line, body_line=None):
        self.path = path
        self.name = name  # e.g. "HttpRequest::parse" or "parse_url"
        self.simple = name.rsplit("::", 1)[-1]
        self.cls = name.rsplit("::", 1)[0] if "::" in name else ""
        self.params = params  # raw parameter-list text
        self.body = body  # stripped body text (between braces)
        self.line = line  # 1-based line of the header
        # Line of the opening brace: offsets into `body` are relative to this
        # (a multi-line header would otherwise skew every reported line, and
        # suppression comments must land on the exact line).
        self.body_line = line if body_line is None else body_line

    def param_names_and_types(self):
        out = []
        depth = 0
        parts, cur = [], []
        for ch in self.params:
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        if cur:
            parts.append("".join(cur))
        for part in parts:
            part = part.split("=", 1)[0].strip()
            toks = re.findall(r"[A-Za-z_]\w*", part)
            if not toks:
                continue
            name = toks[-1]
            type_text = part[: part.rfind(name)].strip() if part.endswith(name) else part
            out.append((name, type_text or part))
        return out


class ClassInfo:
    def __init__(self, name):
        self.name = name
        self.members = {}  # member name -> simple type name
        self.mutexes = []  # member names whose type is Mutex
        self.accessors = {}  # method name -> member name it returns
        self.bases = []  # simple names of base classes


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def rel(self):
        try:
            return self.path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            return self.path.name

    def render(self):
        return f"{self.rel()}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Text frontend
# --------------------------------------------------------------------------


def strip_noise(text):
    """Blank out comments and string/char literal contents, keeping newlines
    and overall layout so brace matching and line numbers stay correct."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\" and i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = "code"
            else:
                out[i] = " " if c != "\n" else c
            i += 1
    # Blank preprocessor directives (including backslash continuations):
    # `#if defined(__GNUC__)` would otherwise parse as a function named
    # `defined` and swallow whatever definition follows it.
    lines = "".join(out).split("\n")
    in_directive = False
    for li, line in enumerate(lines):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            lines[li] = " " * len(line)
    return "\n".join(lines)


def match_brace(text, open_idx):
    """Index of the '}' matching the '{' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_paren(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "constexpr", "static_assert", "do", "else",
    "new", "delete", "throw", "case", "default", "assert",
}

FUNC_RE = re.compile(
    r"(?P<name>(?:[A-Za-z_]\w*::)*(?:~?[A-Za-z_]\w*|operator\s*(?:\(\)|\[\]|[<>=!+\-*/%&|^~]+)))"
    r"\s*\((?P<params>[^;{}]*?)\)"
    r"(?P<trail>(?:[^;{}()]|\([^()]*\))*?)"
    r"\{"
)


def extract_functions(path, stripped, cls_prefix="", base_line=1):
    """Yield FunctionUnits found in `stripped` (already noise-free)."""
    units = []
    pos = 0
    while True:
        m = FUNC_RE.search(stripped, pos)
        if not m:
            break
        name = m.group("name")
        simple = name.rsplit("::", 1)[-1]
        before = stripped[m.start() - 1] if m.start() > 0 else " "
        if simple in NOT_FUNCTIONS or not (before.isspace() or m.start() == 0):
            pos = m.start() + 1
            continue
        # A call expression inside `if (auto x = f(y)) {` backtracks into an
        # unbalanced params capture; a definition's params are balanced and
        # its name is never preceded by an operator.
        params = m.group("params")
        prev = stripped[: m.start()].rstrip()
        if params.count("(") != params.count(")") or prev.endswith(
            ("=", "(", ",", "!", "&&", "||", "return")
        ):
            pos = m.start() + 1
            continue
        open_brace = m.end() - 1
        close = match_brace(stripped, open_brace)
        if close < 0:
            pos = m.start() + 1
            continue
        body = stripped[open_brace + 1 : close]
        line = base_line + stripped.count("\n", 0, m.start())
        qual = f"{cls_prefix}::{name}" if cls_prefix and "::" not in name else name
        units.append(
            FunctionUnit(path, qual, m.group("params"), body, line,
                         body_line=base_line + stripped.count("\n", 0, open_brace)))
        # A class-body scan skips past the whole definition; the top-level
        # scan resumes after the header, so definitions nested in a body are
        # found too.
        pos = close + 1 if cls_prefix else m.end()
    return units


CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*([^{;]*))?\{"
)

MEMBER_RE = re.compile(
    r"^[ \t]*(?:mutable[ \t]+)?(?:static[ \t]+)?"
    r"(?P<type>[A-Za-z_][\w:<>,*& \t]*?)[ \t]*[&*]?[ \t]+"
    r"(?P<name>[A-Za-z_]\w*_)\s*"
    r"(?:GUARDED_BY\s*\([^)]*\)\s*)?"
    r"(?:=[^;]*|\{[^;{}]*\})?\s*;",
    re.M,
)


def unwrap_type(type_text):
    """'const std::unique_ptr<obs::EventLog>' -> 'EventLog'; strip cv/ref/ptr.

    cv-qualifiers go first, so a const smart-pointer member still unwraps."""
    t = re.sub(r"\b(?:const|volatile)\b", " ", type_text).strip()
    m = re.match(r"(?:std::)?(?:unique_ptr|shared_ptr|optional|weak_ptr)\s*<(.*)>\s*$", t)
    if m:
        t = m.group(1).strip()
    t = t.replace("*", " ").replace("&", " ").strip()
    t = t.split("<", 1)[0].strip()
    return t.rsplit("::", 1)[-1] if t else ""


def extract_classes(path, stripped, units_out):
    """Parse class/struct bodies: members, mutexes, accessors, inline methods
    (appended to units_out with Class:: qualification)."""
    classes = []
    pos = 0
    while True:
        m = CLASS_RE.search(stripped, pos)
        if not m:
            break
        name = m.group(1)
        open_brace = m.end() - 1
        close = match_brace(stripped, open_brace)
        if close < 0:
            pos = m.end()
            continue
        body = stripped[open_brace + 1 : close]
        info = ClassInfo(name)
        if m.group(2):
            for base in m.group(2).split(","):
                toks = re.findall(r"[A-Za-z_][\w:]*", base)
                toks = [t for t in toks if t not in ("public", "private", "protected", "virtual")]
                if toks:
                    info.bases.append(toks[-1].rsplit("::", 1)[-1])
        for mm in MEMBER_RE.finditer(body):
            mtype = unwrap_type(mm.group("type"))
            info.members[mm.group("name")] = mtype
            if mtype == "Mutex":
                info.mutexes.append(mm.group("name"))
        line = 1 + stripped.count("\n", 0, m.start())
        inline = extract_functions(path, body, cls_prefix=name, base_line=line)
        for u in inline:
            # Accessor shape: body is exactly `return member_;` / `return *member_;`
            am = re.match(r"^\s*return\s+\*?\s*([A-Za-z_]\w*_)\s*;\s*$", u.body)
            if am:
                info.accessors[u.simple] = am.group(1)
        units_out.extend(inline)
        classes.append(info)
        pos = close + 1
    return classes


def parse_file(path):
    text = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_noise(text)
    suppressed = {}
    for i, line in enumerate(text.splitlines(), start=1):
        sm = re.search(r"//\s*sema:\s*ok\(([^)]*)\)", line)
        if sm:
            suppressed[i] = sm.group(1).strip()
    units = extract_functions(path, stripped)
    classes = extract_classes(path, stripped, units)
    return units, classes, suppressed


# --------------------------------------------------------------------------
# Pass 1: taint
# --------------------------------------------------------------------------

UNTRUSTED_TYPE_RE = re.compile(r"BytesView|string_view|istream")
TAINT_NAME_RE = re.compile(
    r"^(parse|decode|apply|read_|unframe|percent_|decompress|from_)"
)
COMPARATOR_RE = re.compile(r"<=|>=|==|!=|<|>|\.size\s*\(|\.empty\s*\(|\bnpos\b|\.ok\s*\(")
GUARD_HEAD_RE = re.compile(r"\b(if|while|for|CBDE_EXPECT|CBDE_ASSERT|CBDE_ENSURE)\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
ASSIGN_RE = re.compile(
    r"(?:^|[;{}]|\bauto\b|\bconst\b|_t\b|\bint\b|\bsize_t\b)\s*"
    r"[&*]?\s*([A-Za-z_]\w*)\s*(?:[+\-*|&^]?=)(?!=)\s*([^;]*)",
    re.M,
)

NOT_VARS = NOT_FUNCTIONS | {
    "std", "util", "size", "data", "begin", "end", "static_cast", "true",
    "false", "nullptr", "size_t", "uint8_t", "uint32_t", "uint64_t",
    "int64_t", "ptrdiff_t", "min", "max", "npos",
}


def taint_eligible(unit, cfg):
    if cfg.get("taint_all"):
        pass
    elif not TAINT_NAME_RE.search(unit.simple):
        return []
    tainted = []
    for name, type_text in unit.param_names_and_types():
        if UNTRUSTED_TYPE_RE.search(type_text):
            tainted.append(name)
    return tainted


def idents(expr):
    return [t for t in IDENT_RE.findall(expr) if t not in NOT_VARS]


def taint_pass(units, cfg, suppressed_by_path):
    findings = []
    for unit in units:
        tainted = set(taint_eligible(unit, cfg))
        if not tainted:
            continue
        body = unit.body

        # Propagate through assignments to a fixpoint (loops feed backwards).
        for _ in range(10):
            grew = False
            for am in ASSIGN_RE.finditer(body):
                lhs, rhs = am.group(1), am.group(2)
                if lhs in NOT_VARS or lhs in tainted:
                    continue
                if any(re.search(rf"\b{re.escape(t)}\b", rhs) for t in tainted):
                    tainted.add(lhs)
                    grew = True
            if not grew:
                break

        # A tainted variable that appears in any comparison-bearing guard
        # condition (if/while/for/CBDE_*) counts as bounds-checked.
        guarded = set()
        for gm in GUARD_HEAD_RE.finditer(body):
            open_paren = body.index("(", gm.start())
            close = match_paren(body, open_paren)
            if close < 0:
                continue
            cond = body[open_paren + 1 : close]
            if not COMPARATOR_RE.search(cond):
                continue
            for t in tainted:
                if re.search(rf"\b{re.escape(t)}\b", cond):
                    guarded.add(t)

        def report(pos, var, what):
            line = unit.body_line + body.count("\n", 0, pos)
            sup = suppressed_by_path.get(unit.path, {})
            if line in sup or (line - 1) in sup:
                return
            findings.append(
                Finding(
                    unit.path,
                    line,
                    "sema-taint",
                    f"{unit.name}: tainted {what} '{var}' reaches a memory "
                    f"operation without a bounds check",
                )
            )

        seen = set()

        def check_expr(pos, expr, what):
            if "std::min" in expr or "std::clamp" in expr or ".at(" in expr:
                return
            for var in idents(expr):
                if var in tainted and var not in guarded and (var, what) not in seen:
                    seen.add((var, what))
                    report(pos, var, what)

        for im in re.finditer(r"\w\s*\[([^\[\]\n]+)\]", body):
            check_expr(im.start(), im.group(1), "index")
        for rm in re.finditer(r"\.(resize|reserve)\s*\(", body):
            close = match_paren(body, rm.end() - 1)
            if close > 0:
                check_expr(rm.start(), body[rm.end() : close], "allocation size")
        for sm2 in re.finditer(r"\.subspan\s*\(", body):
            close = match_paren(body, sm2.end() - 1)
            if close > 0:
                check_expr(sm2.start(), body[sm2.end() : close], "offset")
        for dm in re.finditer(r"\.data\s*\(\)\s*\+\s*([^;,)\n]+)", body):
            check_expr(dm.start(), dm.group(1), "pointer offset")
    return findings


# --------------------------------------------------------------------------
# Pass 2: lock order
# --------------------------------------------------------------------------

LOCK_RE = re.compile(r"\bLockGuard\s+\w+\s*\(\s*(\w+)\s*\)")
MEMBER_CALL_RE = re.compile(r"\b([A-Za-z_]\w*_)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
CHAIN_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*_?)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(\s*\)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\("
)
SELF_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")


def build_method_table(units):
    methods = {}
    for u in units:
        if u.cls:
            methods.setdefault(f"{u.cls}::{u.simple}", []).append(u)
    return methods


def resolve_callees(unit, classes_by_name, impls, methods):
    """Yield (callee_key, pos) for calls whose target method is known."""
    body = unit.body
    cls = classes_by_name.get(unit.cls)

    def method_keys(type_name, fn):
        names = [type_name] + impls.get(type_name, [])
        return [f"{t}::{fn}" for t in names if f"{t}::{fn}" in methods]

    out = []
    for m in CHAIN_CALL_RE.finditer(body):
        obj, acc, fn = m.group(1), m.group(2), m.group(3)
        t1 = cls.members.get(obj) if cls else None
        if t1 is None and cls and obj in cls.accessors:
            t1 = cls.members.get(cls.accessors[obj])
        c1 = classes_by_name.get(t1) if t1 else None
        if c1 is None:
            continue
        member = c1.accessors.get(acc)
        t2 = c1.members.get(member) if member else None
        for key in method_keys(t2, fn) if t2 else []:
            out.append((key, m.start()))
    for m in MEMBER_CALL_RE.finditer(body):
        obj, fn = m.group(1), m.group(2)
        t = cls.members.get(obj) if cls else None
        if not t:
            continue
        for key in method_keys(t, fn):
            out.append((key, m.start()))
    if cls:
        for m in SELF_CALL_RE.finditer(body):
            fn = m.group(1)
            key = f"{unit.cls}::{fn}"
            if fn not in NOT_FUNCTIONS and key in methods and fn != unit.simple:
                out.append((key, m.start()))
    return out


def lock_pass(units, classes, suppressed_by_path, graph_out=None):
    classes_by_name = {c.name: c for c in classes}
    impls = {}
    for c in classes:
        for b in c.bases:
            impls.setdefault(b, []).append(c.name)
    methods = build_method_table(units)

    direct = {}  # method key -> set of mutex nodes acquired directly
    for key, us in methods.items():
        cls_name = key.split("::")[0]
        cls = classes_by_name.get(cls_name)
        acq = set()
        for u in us:
            for lm in LOCK_RE.finditer(u.body):
                mu = lm.group(1)
                if cls and mu in cls.mutexes:
                    acq.add(f"{cls_name}::{mu}")
        direct[key] = acq

    callee_map = {
        key: [k for (k, _pos) in sum((resolve_callees(u, classes_by_name, impls, methods) for u in us), [])]
        for key, us in methods.items()
    }

    # may_acquire fixpoint: a method may acquire anything a callee may.
    may = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for key, callees in callee_map.items():
            for c in callees:
                add = may.get(c, set()) - may[key]
                if add:
                    may[key] |= add
                    changed = True

    # Edges: while mutex A is held (LockGuard scope), calling something that
    # may acquire mutex B creates the order A -> B.
    edges = {}  # (src, dst) -> (path, line)
    for key, us in methods.items():
        cls_name = key.split("::")[0]
        cls = classes_by_name.get(cls_name)
        for u in us:
            calls = resolve_callees(u, classes_by_name, impls, methods)
            for lm in LOCK_RE.finditer(u.body):
                mu = lm.group(1)
                if not cls or mu not in cls.mutexes:
                    continue
                held = f"{cls_name}::{mu}"
                # Locked region: from the guard to the end of its block.
                depth = 0
                end = len(u.body)
                for i in range(lm.end(), len(u.body)):
                    if u.body[i] == "{":
                        depth += 1
                    elif u.body[i] == "}":
                        depth -= 1
                        if depth < 0:
                            end = i
                            break
                for callee, pos in calls:
                    if not (lm.end() <= pos < end):
                        continue
                    for dst in may.get(callee, set()):
                        edge = (held, dst)
                        if edge not in edges:
                            line = u.body_line + u.body.count("\n", 0, pos)
                            edges[edge] = (u.path, line)

    if graph_out is not None:
        graph_out.update(edges)

    # Cycle detection (DFS with colors) over the edge set.
    adj = {}
    for (src, dst) in edges:
        adj.setdefault(src, set()).add(dst)
    findings = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack_path = []

    def dfs(node):
        color[node] = GRAY
        stack_path.append(node)
        for nxt in sorted(adj.get(node, ())):
            if color.get(nxt, WHITE) == GRAY:
                cyc = stack_path[stack_path.index(nxt) :] + [nxt]
                path, line = edges[(node, nxt)]
                sup = suppressed_by_path.get(path, {})
                if line not in sup and (line - 1) not in sup:
                    findings.append(
                        Finding(
                            path,
                            line,
                            "sema-lock-order",
                            "lock-order cycle: " + " -> ".join(cyc),
                        )
                    )
            elif color.get(nxt, WHITE) == WHITE:
                dfs(nxt)
        stack_path.pop()
        color[node] = BLACK

    for node in sorted(adj):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return findings


# --------------------------------------------------------------------------
# Pass 3: contracts
# --------------------------------------------------------------------------

# (path suffix, exact function name) — every public decoder/serve entry point
# must state >= 1 contract (macro or validated early reject).
REPO_ENTRY_POINTS = [
    ("src/delta/delta.cpp", "apply"),
    ("src/compress/compressor.cpp", "compress"),
    ("src/compress/compressor.cpp", "decompress"),
    ("src/http/message.cpp", "HttpRequest::parse"),
    ("src/http/message.cpp", "HttpRequest::serialize"),
    ("src/http/message.cpp", "HttpResponse::parse"),
    ("src/http/message.cpp", "HttpResponse::serialize"),
    ("src/http/url.cpp", "parse_url"),
    ("src/http/url.cpp", "percent_decode"),
    ("src/http/partition.cpp", "RuleBook::partition"),
    ("src/trace/access_log.cpp", "parse_clf"),
    ("src/trace/access_log.cpp", "read_access_log"),
    ("src/core/delta_server.cpp", "DeltaServer::serve"),
    ("src/core/delta_worker_pool.cpp", "DeltaWorkerPool::submit"),
    # Class and version come straight from the /.cbde/base?class=&v= query.
    ("src/core/delta_server.cpp", "DeltaServer::fetch_base"),
]

CONTRACT_MACRO_RE = re.compile(r"\bCBDE_(EXPECT|ENSURE|ASSERT|ASSERT_INVARIANT)\s*\(")
EARLY_REJECT_RE = re.compile(r"\bif\s*\(.{0,240}?(\bthrow\b|return\s+std::nullopt)", re.S)


def has_contract_evidence(unit, units_in_file, depth=1):
    if CONTRACT_MACRO_RE.search(unit.body) or EARLY_REJECT_RE.search(unit.body):
        return True
    if depth <= 0:
        return False
    # Delegation: a direct same-file callee carrying the contract counts
    # (e.g. read_access_log -> parse_clf, parse -> Cursor::read_line).
    by_simple = {}
    for u in units_in_file:
        by_simple.setdefault(u.simple, []).append(u)
    for m in SELF_CALL_RE.finditer(unit.body):
        fn = m.group(1)
        if fn in NOT_FUNCTIONS or fn == unit.simple:
            continue
        for cal in by_simple.get(fn, []):
            if has_contract_evidence(cal, units_in_file, depth - 1):
                return True
    for m in re.finditer(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(", unit.body):
        for cal in by_simple.get(m.group(1), []):
            if cal is not unit and has_contract_evidence(cal, units_in_file, depth - 1):
                return True
    return False


def contracts_pass(units_by_path, entry_points, suppressed_by_path):
    findings = []
    for suffix, name in entry_points:
        matches = []
        home = None
        for path, units in units_by_path.items():
            if not path.as_posix().endswith(suffix):
                continue
            home = path
            for u in units:
                if u.name == name or (u.cls and f"{u.cls}::{u.simple}" == name):
                    matches.append((path, u, units))
        if not matches:
            where = home if home is not None else Path(suffix)
            findings.append(
                Finding(
                    where,
                    1,
                    "sema-contracts",
                    f"entry point '{name}' not found in {suffix} "
                    f"(moved or renamed? update REPO_ENTRY_POINTS)",
                )
            )
            continue
        for path, unit, units in matches:
            if has_contract_evidence(unit, units):
                continue
            sup = suppressed_by_path.get(path, {})
            if unit.line in sup or (unit.line - 1) in sup:
                continue
            findings.append(
                Finding(
                    path,
                    unit.line,
                    "sema-contracts",
                    f"public entry point '{name}' states no precondition "
                    f"(add CBDE_EXPECT or a validated early reject)",
                )
            )
    return findings


def suppression_pass(suppressed_by_path):
    findings = []
    for path, sup in suppressed_by_path.items():
        for line, reason in sup.items():
            if not reason:
                findings.append(
                    Finding(
                        path,
                        line,
                        "sema-suppression",
                        "empty suppression reason: use // sema: ok(<why>)",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def collect_files(paths):
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(
                sorted(f for f in p.rglob("*") if f.suffix in CPP_SUFFIXES)
            )
        elif p.suffix in CPP_SUFFIXES:
            files.append(p)
    return files


def analyze(paths, entry_points=None, taint_all=False, graph_out=None):
    all_units = []
    all_classes = []
    units_by_path = {}
    suppressed_by_path = {}
    for f in collect_files(paths):
        try:
            units, classes, sup = parse_file(f)
        except Exception as e:  # a frontend crash must not kill the run
            print(f"cbde_sema: WARNING: cannot parse {f}: {e}", file=sys.stderr)
            continue
        all_units.extend(units)
        all_classes.extend(classes)
        units_by_path[f] = units
        suppressed_by_path[f] = sup

    findings = []
    findings += taint_pass(all_units, {"taint_all": taint_all}, suppressed_by_path)
    findings += lock_pass(all_units, all_classes, suppressed_by_path, graph_out)
    findings += contracts_pass(
        units_by_path,
        entry_points if entry_points is not None else REPO_ENTRY_POINTS,
        suppressed_by_path,
    )
    findings += suppression_pass(suppressed_by_path)
    findings.sort(key=lambda f: (f.rel(), f.line, f.check))
    return findings


# --------------------------------------------------------------------------
# Self-test fixtures — one seeded violation per pass, plus a clean twin each.
# --------------------------------------------------------------------------

FIXTURE_TAINT_BAD = """\
#include "util/contracts.hpp"
namespace cbde::fix {
util::Bytes parse_widget(util::BytesView input) {
  std::size_t n = input[0];
  std::size_t count = n * 4;
  util::Bytes out;
  out.resize(count);
  return out;
}
}  // namespace cbde::fix
"""

FIXTURE_TAINT_CLEAN = """\
#include "util/contracts.hpp"
namespace cbde::fix {
constexpr std::size_t kMaxWidget = 4096;
util::Bytes parse_widget(util::BytesView input) {
  std::size_t n = input[0];
  std::size_t count = n * 4;
  if (count > kMaxWidget) throw std::invalid_argument("widget too large");
  util::Bytes out;
  out.resize(count);
  return out;
}
}  // namespace cbde::fix
"""

FIXTURE_LOCK_BAD = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Beta;
class Alpha {
 public:
  void foo();
 private:
  mutable Mutex mu_;
  Beta* peer_ = nullptr;
};
class Beta {
 public:
  void bar();
 private:
  mutable Mutex mu_;
  Alpha* peer_ = nullptr;
};
void Alpha::foo() {
  const LockGuard lock(mu_);
  peer_->bar();
}
void Beta::bar() {
  const LockGuard lock(mu_);
  peer_->foo();
}
}  // namespace cbde::fix
"""

FIXTURE_LOCK_CLEAN = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Beta {
 public:
  void bar();
 private:
  mutable Mutex mu_;
};
class Alpha {
 public:
  void foo();
 private:
  mutable Mutex mu_;
  Beta* peer_ = nullptr;
};
void Alpha::foo() {
  const LockGuard lock(mu_);
  peer_->bar();
}
void Beta::bar() {
  const LockGuard lock(mu_);
}
}  // namespace cbde::fix
"""

# A call through a const smart-pointer member under a mutex: the edge
# Alpha::mu_ -> Beta::mu_ must be found through `const std::unique_ptr`.
FIXTURE_LOCK_CONST_MEMBER = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Beta {
 public:
  void bar();
 private:
  mutable Mutex mu_;
};
class Alpha {
 public:
  void foo();
 private:
  mutable Mutex mu_;
  const std::unique_ptr<Beta> peer_;
};
void Alpha::foo() {
  const LockGuard lock(mu_);
  peer_->bar();
}
void Beta::bar() {
  const LockGuard lock(mu_);
}
}  // namespace cbde::fix
"""

FIXTURE_CONTRACTS_BAD = """\
#include "util/contracts.hpp"
namespace cbde::fix {
util::Bytes apply_widget(util::BytesView base, util::BytesView delta) {
  util::Bytes out(base.begin(), base.end());
  out.insert(out.end(), delta.begin(), delta.end());
  return out;
}
}  // namespace cbde::fix
"""

FIXTURE_CONTRACTS_CLEAN = """\
#include "util/contracts.hpp"
namespace cbde::fix {
util::Bytes apply_widget(util::BytesView base, util::BytesView delta) {
  CBDE_EXPECT(!delta.empty());
  util::Bytes out(base.begin(), base.end());
  out.insert(out.end(), delta.begin(), delta.end());
  return out;
}
}  // namespace cbde::fix
"""


def self_test():
    failures = []

    def run_fixture(name, source, entry_points, graph_out=None):
        with tempfile.TemporaryDirectory() as td:
            f = Path(td) / f"{name}.cpp"
            f.write_text(source, encoding="utf-8")
            return analyze([td], entry_points=entry_points, graph_out=graph_out)

    def expect(name, findings, check, want):
        hits = [f for f in findings if f.check == check]
        if want and not hits:
            failures.append(f"{name}: expected a {check} finding, got none")
        elif not want and hits:
            failures.append(
                f"{name}: expected no {check} findings, got: "
                + "; ".join(f.render() for f in hits)
            )

    expect("taint-bad", run_fixture("taint_bad", FIXTURE_TAINT_BAD, []),
           "sema-taint", want=True)
    expect("taint-clean", run_fixture("taint_clean", FIXTURE_TAINT_CLEAN, []),
           "sema-taint", want=False)
    expect("lock-bad", run_fixture("lock_bad", FIXTURE_LOCK_BAD, []),
           "sema-lock-order", want=True)
    expect("lock-clean", run_fixture("lock_clean", FIXTURE_LOCK_CLEAN, []),
           "sema-lock-order", want=False)
    graph = {}
    run_fixture("lock_const_member", FIXTURE_LOCK_CONST_MEMBER, [], graph)
    if ("Alpha::mu_", "Beta::mu_") not in graph:
        failures.append("lock-const-member: expected the edge Alpha::mu_ -> Beta::mu_, got "
                        + (", ".join(f"{a} -> {b}" for a, b in sorted(graph)) or "none"))
    entry = [("contracts.cpp", "apply_widget")]
    expect("contracts-bad",
           run_fixture("contracts", FIXTURE_CONTRACTS_BAD, entry),
           "sema-contracts", want=True)
    expect("contracts-clean",
           run_fixture("contracts", FIXTURE_CONTRACTS_CLEAN, entry),
           "sema-contracts", want=False)

    if failures:
        for f in failures:
            print(f"cbde_sema self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("cbde_sema self-test: all seeded fixtures behaved as expected")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files/dirs to analyze (default: src/)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--graph", action="store_true",
                    help="dump the lock-order acquisition graph")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    paths = args.paths or [str(SRC_ROOT)]
    graph = {} if args.graph else None
    findings = analyze(paths, graph_out=graph)

    if args.graph:
        print("lock-order acquisition graph (held -> acquired):")
        for (src, dst), (path, line) in sorted(graph.items()):
            rel = Finding(path, line, "", "").rel()
            print(f"  {src} -> {dst}   ({rel}:{line})")
        if not graph:
            print("  (no cross-mutex acquisitions found)")

    for f in findings:
        print(f.render())
    if findings:
        print(f"cbde_sema: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("cbde_sema: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
