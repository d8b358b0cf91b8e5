#!/usr/bin/env python3
"""cbde_sema.py — semantic analysis for the CBDE tree.

Eight passes over the C++ sources, each reporting findings with a stable
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
  sema-escape      confinement analysis: references/pointers/iterators/
                   views/lambda-captures of GUARDED_BY state must not escape
                   the critical section (shard-readiness, ROADMAP item 1).
  sema-atomics     every std::atomic declares a policy (`// atomic:
                   counter|stat|handshake|seq_cst(<reason>)`) and every
                   operation passes an explicit, policy-conforming
                   memory_order — defaulted seq_cst is always a finding.
  sema-blocking    no IO, foreign-condvar waits, or unbounded
                   (Encoder/Estimator) allocation while holding an
                   annotated mutex; blocking
                   facts propagate through call resolution, and `--hotspots`
                   ranks every LockGuard section by static weight.
  sema-alloc       allocation-site inventory: every vector/string/Bytes
                   construction, growth call, make_shared/make_unique,
                   explicit new, and map/set node insert is enumerated, the
                   call graph is resolved to a fixpoint from the serve hot
                   roots (DeltaServerShard::serve, the worker pool, the
                   proxy caches), and each function is classified hot /
                   rebase / setup. Scaling allocations (range copies,
                   unreserved growth in loops, node inserts, make_shared)
                   in hot functions are findings; `--allocs` writes the
                   ranked per-function inventory as JSON.
  sema-copy        copy discipline: heavy objects (Bytes/string/vector/
                   shared_ptr) passed by value and never moved, locals that
                   copy where a view or reference would do, last-use copies
                   that miss a std::move, and heavy buffer copies inside an
                   annotated critical section (snapshot a shared_ptr
                   instead).

Frontend: when libclang is importable (`clang.cindex`), functions and class
members are extracted from the real AST. When it is not — the common case in
minimal containers — a built-in text frontend (comment/string stripping +
brace matching) extracts the same function/class model. The passes are
frontend-agnostic; `--frontend=auto|text|cindex` selects.

Workflow mirrors tools/lint/cbde_lint.py:

  tools/analyze/cbde_sema.py                  # analyze src/, fail on NEW findings
  tools/analyze/cbde_sema.py --list           # print all findings, ignore baseline
  tools/analyze/cbde_sema.py --update-baseline
  tools/analyze/cbde_sema.py --self-test      # seeded fixtures, one per violation class
  tools/analyze/cbde_sema.py --graph          # dump the lock-order graph
  tools/analyze/cbde_sema.py --graph-dot out.dot   # lock/confinement DOT
  tools/analyze/cbde_sema.py --hotspots build/sema_hotspots.json
  tools/analyze/cbde_sema.py --allocs build/sema_allocs.json

Known-and-reviewed findings live in tools/analyze/sema_baseline.txt; CI
fails only when a finding NOT in the baseline appears. Suppress a reviewed
line in source with `// sema: ok(<reason>)` on the line or the line above —
an empty reason is itself a finding. The sema-alloc/sema-copy passes use
their own `// alloc: ok(<reason>)` form (same placement rules), so an
accepted allocation never silences a taint or locking finding on the same
line.

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
BASELINE_PATH = Path(__file__).resolve().parent / "sema_baseline.txt"

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------


class FunctionUnit:
    """One function definition: qualified-ish name, params, stripped body."""

    def __init__(self, path, name, params, body, line, ret="", trail="",
                 body_line=None):
        self.path = path
        self.name = name  # e.g. "HttpRequest::parse" or "parse_url"
        self.simple = name.rsplit("::", 1)[-1]
        self.cls = name.rsplit("::", 1)[0] if "::" in name else ""
        self.params = params  # raw parameter-list text
        self.body = body  # stripped body text (between braces)
        self.line = line  # 1-based line of the header
        self.ret = ret  # best-effort return-type text preceding the name
        self.trail = trail  # text between ')' and '{' (const, REQUIRES, ...)
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
    def __init__(self, name, path):
        self.name = name
        self.path = path
        self.members = {}  # member name -> simple type name
        self.mutexes = []  # member names whose type is Mutex
        self.accessors = {}  # method name -> member name it returns
        self.bases = []  # simple names of base classes
        self.guarded = {}  # member name -> mutex named in GUARDED_BY(...)
        self.raw_types = {}  # member name -> raw declared type text
        self.requires_ = {}  # method name -> mutex named in REQUIRES(...)
        self.excludes_ = {}  # method name -> mutex named in EXCLUDES(...)


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

    def key(self):
        # Line numbers are excluded so the baseline survives unrelated edits.
        return f"{self.rel()}|{self.check}|{self.message}"


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


def extract_functions(path, stripped, cls_prefix="", base_line=1, base_off=0):
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
        # Return-type text: the segment between the previous statement/brace
        # boundary and the name, minus access specifiers. Only its trailing
        # `&` / `*` is ever interpreted, so roughness is fine.
        head = stripped[max(0, m.start() - 300) : m.start()]
        ret = re.split(r"[;{}]", head)[-1]
        ret = re.sub(r"\b(?:public|private|protected)\s*:", " ", ret).strip()
        units.append(
            FunctionUnit(path, qual, m.group("params"), body, line,
                         ret=ret, trail=m.group("trail"),
                         body_line=base_line + stripped.count("\n", 0, open_brace)))
        # Continue after the header so class-body scans can still find nested
        # definitions; top-level calls skip past the whole body instead.
        pos = close + 1 if cls_prefix else m.end()
        if not cls_prefix:
            # Free/out-of-line scan: also mine the body for local structs'
            # methods?  No — keep top-level scan linear past the body.
            pass
    return units


CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*([^{;]*))?\{"
)

MEMBER_RE = re.compile(
    r"^[ \t]*(?:mutable[ \t]+)?(?:static[ \t]+)?"
    r"(?P<type>[A-Za-z_][\w:<>,*& \t]*?)[ \t]*[&*]?[ \t]+"
    r"(?P<name>[A-Za-z_]\w*_)\s*"
    r"(?:GUARDED_BY\s*\((?P<guard>[^)]*)\)\s*)?"
    r"(?:=[^;]*|\{[^;{}]*\})?\s*;",
    re.M,
)


def unwrap_type(type_text):
    """'std::unique_ptr<core::BaseStore>' -> 'BaseStore'; strip cv/ref/ptr."""
    t = type_text.strip()
    m = re.match(r"(?:std::)?(?:unique_ptr|shared_ptr|optional|weak_ptr)\s*<(.*)>\s*$", t)
    if m:
        t = m.group(1).strip()
    t = t.replace("const", " ").replace("*", " ").replace("&", " ").strip()
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
        info = ClassInfo(name, path)
        if m.group(2):
            for base in m.group(2).split(","):
                toks = re.findall(r"[A-Za-z_][\w:]*", base)
                toks = [t for t in toks if t not in ("public", "private", "protected", "virtual")]
                if toks:
                    info.bases.append(toks[-1].rsplit("::", 1)[-1])
        for mm in MEMBER_RE.finditer(body):
            mtype = unwrap_type(mm.group("type"))
            info.members[mm.group("name")] = mtype
            info.raw_types[mm.group("name")] = mm.group("type").strip()
            if mm.group("guard"):
                info.guarded[mm.group("name")] = mm.group("guard").strip()
            if mtype == "Mutex":
                info.mutexes.append(mm.group("name"))
        # Method declarations carrying REQUIRES/EXCLUDES — out-of-line
        # definitions in the .cpp lose the annotation, so it is mined from
        # the class body here and joined back by method name.
        for rm in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", body):
            if rm.group(1) in NOT_FUNCTIONS:
                continue
            close_p = match_paren(body, rm.end() - 1)
            if close_p < 0:
                continue
            tail = body[close_p + 1 : close_p + 160]
            tm = re.match(
                r"\s*(?:const\b\s*)?(?:noexcept\b\s*)?"
                r"(REQUIRES|EXCLUDES)\s*\(\s*([^)]*)\)",
                tail,
            )
            if tm:
                mu = tm.group(2).split(",")[0].strip().lstrip("!").strip()
                table = info.requires_ if tm.group(1) == "REQUIRES" else info.excludes_
                table.setdefault(rm.group(1), mu)
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
    return text, stripped, units, classes, suppressed


# --------------------------------------------------------------------------
# libclang frontend (opportunistic)
# --------------------------------------------------------------------------


def load_cindex():
    try:
        from clang import cindex  # type: ignore

        cindex.Index.create()
        return cindex
    except Exception:
        return None


def parse_file_cindex(cindex, path):
    """Extract the same (units, classes) model from the real AST."""
    text = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_noise(text)
    index = cindex.Index.create()
    tu = index.parse(
        str(path),
        args=["-std=c++20", "-x", "c++", f"-I{SRC_ROOT}", "-fsyntax-only"],
        options=cindex.TranslationUnit.PARSE_INCOMPLETE,
    )
    units, classes = [], []
    K = cindex.CursorKind

    def body_text(cursor):
        ext = cursor.extent
        if ext.start.file is None or Path(ext.start.file.name) != path:
            return None
        chunk = stripped[ext.start.offset : ext.end.offset]
        b = chunk.find("{")
        return chunk[b + 1 : chunk.rfind("}")] if b >= 0 else None

    def walk(cursor, cls=None):
        for child in cursor.get_children():
            kind = child.kind
            if kind in (K.CLASS_DECL, K.STRUCT_DECL) and child.is_definition():
                info = ClassInfo(child.spelling, path)
                for f in child.get_children():
                    if f.kind == K.FIELD_DECL:
                        t = unwrap_type(f.type.spelling)
                        info.members[f.spelling] = t
                        if t == "Mutex":
                            info.mutexes.append(f.spelling)
                    elif f.kind == K.CXX_BASE_SPECIFIER:
                        info.bases.append(f.spelling.rsplit("::", 1)[-1])
                classes.append(info)
                walk(child, cls=info)
            elif kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR) and child.is_definition():
                body = body_text(child)
                if body is None:
                    continue
                parent = child.semantic_parent
                prefix = (
                    parent.spelling + "::"
                    if parent is not None
                    and parent.kind in (K.CLASS_DECL, K.STRUCT_DECL)
                    else ""
                )
                params = ", ".join(
                    f"{a.type.spelling} {a.spelling}" for a in child.get_arguments()
                )
                u = FunctionUnit(
                    path, prefix + child.spelling, params, body, child.location.line
                )
                units.append(u)
                if cls is not None:
                    am = re.match(r"^\s*return\s+\*?\s*([A-Za-z_]\w*_)\s*;\s*$", body)
                    if am:
                        cls.accessors[child.spelling] = am.group(1)
            elif kind == K.NAMESPACE:
                walk(child, cls=cls)

    walk(tu.cursor)
    suppressed = {}
    for i, line in enumerate(text.splitlines(), start=1):
        sm = re.search(r"//\s*sema:\s*ok\(([^)]*)\)", line)
        if sm:
            suppressed[i] = sm.group(1).strip()
    return text, stripped, units, classes, suppressed


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
    ("src/core/base_store.cpp", "MemoryBaseStore::put"),
    ("src/core/base_store.cpp", "DiskBaseStore::put"),
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


# --------------------------------------------------------------------------
# Pass 4: confinement / escape analysis (sema-escape)
#
# For every GUARDED_BY field, anything that aliases it — references, raw
# pointers, iterators, views, ref-capturing lambdas — must stay inside the
# critical section. Sanctioned copies (values, shared_ptr snapshots) are not
# aliases. Three finding shapes:
#   * a non-REQUIRES method returns a reference/pointer/view/iterator rooted
#     in guarded state (the caller outlives the lock);
#   * a lambda captures guarded state by reference (callbacks may outlive
#     the critical section — synchronous-by-contract ones get `sema: ok`);
#   * a guarded alias is stored into a local declared *outside* the lock
#     scope (it survives the unlock).
# --------------------------------------------------------------------------

REF_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:auto|[A-Za-z_][\w:<>]*)\s*&\s*"
    r"([A-Za-z_]\w*)\s*=\s*([^;]+);"
)
STMT_ASSIGN_RE = re.compile(
    r"(?:^|[;{}])\s*"
    r"(?P<prefix>(?:const\s+)?(?:[A-Za-z_][\w:]*(?:\s*<[^;<>]*>)?\s+|auto\s+)?[*]?\s*)"
    r"(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<rhs>[^;]*);"
)
PRODUCER_RE = re.compile(
    r"(?:\.|->)\s*(?:find|begin|end|rbegin|rend|lower_bound|upper_bound|data|get)\s*\("
)
WHOLE_EXPR_PRODUCER_RE = re.compile(
    r"^\s*\*?\s*([A-Za-z_]\w*)(?:(?:\.|->)[A-Za-z_]\w*)*\s*"
    r"(?:\.|->)\s*(?:begin|end|data|get|c_str)\s*\(\s*\)\s*$"
)
LAMBDA_RE = re.compile(
    r"\[([^\[\]\n]*)\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:->\s*[^{;]*?)?\{"
)
RETURN_RE = re.compile(r"\breturn\b([^;]*);")


def requires_mutex(unit, cls):
    """Mutex name when the unit runs with a caller-held lock, else None."""
    tm = re.search(r"\bREQUIRES\s*\(\s*([^),]*)", unit.trail)
    if tm:
        return tm.group(1).strip()
    if cls is not None:
        return cls.requires_.get(unit.simple)
    return None


def expr_root(expr):
    m = re.match(r"[\s*&(]*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def refs_any(text, names):
    return any(re.search(rf"\b{re.escape(n)}\b", text) for n in names)


def guard_scopes(unit, cls):
    """LockGuard regions of unit.body as (start, end, 'Class::mu')."""
    scopes = []
    if cls is None:
        return scopes
    for lm in LOCK_RE.finditer(unit.body):
        mu = lm.group(1)
        if mu not in cls.mutexes:
            continue
        depth = 0
        end = len(unit.body)
        for i in range(lm.end(), len(unit.body)):
            ch = unit.body[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    end = i
                    break
        scopes.append((lm.end(), end, f"{cls.name}::{mu}"))
    return scopes


def compute_aliases(unit, cls, ref_returning):
    """Names in unit.body that alias guarded state, to a fixpoint.

    Returns (aliases, creations) where creations is a list of
    (name, pos, is_decl) for aliases introduced by a statement (seed guarded
    members are not listed)."""
    aliases = set(cls.guarded)
    creations = []
    body = unit.body
    for _ in range(8):
        grew = False

        def add(name, pos, is_decl):
            nonlocal grew
            if name not in aliases and name not in NOT_VARS:
                aliases.add(name)
                creations.append((name, pos, is_decl))
                grew = True

        for m in REF_DECL_RE.finditer(body):
            name, rhs = m.group(1), m.group(2)
            callee = re.match(r"\s*(?:this->)?([A-Za-z_]\w*)\s*\(", rhs)
            if refs_any(rhs, aliases) or (callee and callee.group(1) in ref_returning):
                add(name, m.start(), True)
        for m in STMT_ASSIGN_RE.finditer(body):
            name, rhs, prefix = m.group("name"), m.group("rhs"), m.group("prefix")
            is_decl = bool(prefix.strip())
            aliasing = False
            if re.match(r"\s*&", rhs) and expr_root(rhs) in aliases:
                aliasing = True  # address-of guarded state
            elif PRODUCER_RE.search(rhs) and refs_any(rhs, aliases):
                aliasing = True  # iterator/view/raw handle into guarded state
            else:
                callee = re.match(r"\s*(?:this->)?([A-Za-z_]\w*)\s*\(", rhs)
                if callee and callee.group(1) in ref_returning and "*" in prefix:
                    aliasing = True  # pointer out of a guarded-ref method
            if aliasing:
                add(name, m.start("name"), is_decl)
        if not grew:
            break
    return aliases, creations


def ref_returning_methods(units, cls):
    """Methods of `cls` whose return is rooted in guarded state and ref-ish:
    plain alias chains (`return *it->second;`) or a `&`/`*` return type."""
    out = set()
    for u in units:
        if u.cls != cls.name:
            continue
        aliases, _ = compute_aliases(u, cls, ref_returning=set())
        for rm in RETURN_RE.finditer(u.body):
            expr = rm.group(1).strip()
            root = expr_root(expr)
            if root not in aliases:
                continue
            if "(" not in expr or re.search(r"[&*]\s*$", u.ret):
                out.add(u.simple)
                break
    return out


def escape_pass(units, classes, suppressed_by_path, escape_out=None):
    classes_by_name = {c.name: c for c in classes}
    findings = []
    ref_ret_cache = {}
    for unit in units:
        cls = classes_by_name.get(unit.cls)
        if cls is None or not cls.guarded:
            continue
        if cls.name not in ref_ret_cache:
            ref_ret_cache[cls.name] = ref_returning_methods(units, cls)
        aliases, creations = compute_aliases(unit, cls, ref_ret_cache[cls.name])
        body = unit.body
        scopes = guard_scopes(unit, cls)
        mu_name = next(iter(set(cls.guarded.values())), "mu_")
        held = f"{cls.name}::{mu_name}"

        def note(pos, kind, name, message):
            line = unit.body_line + body.count("\n", 0, pos)
            sup = suppressed_by_path.get(unit.path, {})
            suppressed = line in sup or (line - 1) in sup
            if escape_out is not None:
                escape_out.append({
                    "cls": cls.name, "mutex": held, "function": unit.simple,
                    "kind": kind, "name": name, "file": unit.path,
                    "line": line, "suppressed": suppressed,
                    "reason": sup.get(line, sup.get(line - 1, "")),
                })
            if not suppressed:
                findings.append(Finding(unit.path, line, "sema-escape", message))

        # (a) return escapes — skipped for REQUIRES methods, where the caller
        # still holds the lock and a returned reference is the sanctioned
        # `state_of` pattern.
        if requires_mutex(unit, cls) is None:
            for rm in RETURN_RE.finditer(body):
                expr = rm.group(1)
                hit = None
                for am in re.finditer(r"\bas_view\s*\(", expr):
                    close = match_paren(expr, am.end() - 1)
                    arg = expr[am.end() : close] if close > 0 else expr[am.end() :]
                    if refs_any(arg, aliases):
                        hit = ("view", expr_root(arg))
                if hit is None and re.match(r"\s*&", expr) and expr_root(expr) in aliases:
                    hit = ("pointer", expr_root(expr))
                if hit is None:
                    wm = WHOLE_EXPR_PRODUCER_RE.match(expr)
                    if wm and wm.group(1) in aliases:
                        hit = ("iterator/raw handle", wm.group(1))
                if hit is None and re.search(r"[&*]\s*$", unit.ret) and expr_root(expr) in aliases:
                    hit = ("reference", expr_root(expr))
                if hit is not None:
                    kind, name = hit
                    note(rm.start(), "return", name,
                         f"{unit.name}: guarded state escapes via returned "
                         f"{kind} ('{name}') — the caller outlives {held}")

        # (b) by-reference lambda captures of guarded state.
        for lm in LAMBDA_RE.finditer(body):
            caps = lm.group(1)
            open_brace = body.index("{", lm.end() - 1)
            close = match_brace(body, open_brace)
            lam_body = body[open_brace + 1 : close] if close > 0 else ""
            by_ref_all = bool(re.match(r"\s*&\s*(?:,|$)", caps))
            named = re.findall(r"&\s*([A-Za-z_]\w*)", caps)
            captured = [n for n in named if n in aliases]
            if by_ref_all and not captured:
                captured = [n for n in aliases if re.search(rf"\b{re.escape(n)}\b", lam_body)]
            if "this" in caps.split(","):
                captured += [n for n in cls.guarded
                             if re.search(rf"\b{re.escape(n)}\b", lam_body)]
            if captured:
                name = sorted(set(captured))[0]
                note(lm.start(), "lambda", name,
                     f"{unit.name}: lambda captures guarded state ('{name}') "
                     f"by reference — it must not outlive the {held} critical "
                     f"section")

        # (c) alias assigned inside a lock scope into a local declared
        # outside it: the alias survives the unlock.
        for name, pos, is_decl in creations:
            if is_decl:
                continue
            scope = next((s for s in scopes if s[0] <= pos < s[1]), None)
            if scope is None:
                continue
            first = re.search(rf"\b{re.escape(name)}\b", body)
            if first is not None and first.start() < scope[0]:
                note(pos, "outer-local", name,
                     f"{unit.name}: guarded alias '{name}' is stored into an "
                     f"outer-scope local — it outlives the {scope[2]} "
                     f"critical section")
    return findings


# --------------------------------------------------------------------------
# Pass 5: atomics-discipline audit (sema-atomics)
#
# Every std::atomic declaration states a policy next to it:
#     // atomic: counter            relaxed increments, relaxed reads
#     // atomic: stat               relaxed one-shot/occasional values
#     // atomic: handshake          release stores / acquire loads
#     // atomic: seq_cst(<reason>)  anything goes, but say why
# and every operation passes an explicit memory_order that matches. A
# defaulted order (= seq_cst) is always a finding, so the sharded
# metrics hot path cannot silently regress.
# --------------------------------------------------------------------------

ATOMIC_POLICY_RE = re.compile(
    r"//\s*atomic:\s*(counter|stat|handshake|seq_cst)\s*(?:\(([^)]*)\))?"
)
ATOMIC_OPS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
)
ATOMIC_OP_NAMES = "|".join(ATOMIC_OPS)
ATOMIC_REF_PARAM_RE = re.compile(
    r"std::atomic<[^<>;()]*(?:<[^<>]*>)?[^<>;()]*>\s*[&*]\s*([A-Za-z_]\w*)"
)


def collect_atomics(path, text, stripped):
    """(decls, ref_params): std::atomic member/variable declarations with
    their `// atomic:` policy, plus names of atomic-reference parameters."""
    decls = {}
    raw_lines = text.splitlines()
    for i, line in enumerate(stripped.splitlines(), start=1):
        if "std::atomic<" not in line or not line.rstrip().endswith(";"):
            continue
        dm = re.search(r">\s*([A-Za-z_]\w*)\s*(?:\{[^{}]*\}|=[^;]*)?\s*;", line)
        if dm is None:
            continue
        policy = reason = None
        for j in (i, i - 1):
            if 1 <= j <= len(raw_lines):
                pm = ATOMIC_POLICY_RE.search(raw_lines[j - 1])
                if pm:
                    policy, reason = pm.group(1), (pm.group(2) or "").strip()
                    break
        decls[dm.group(1)] = {"line": i, "policy": policy, "reason": reason}
    ref_params = set(ATOMIC_REF_PARAM_RE.findall(stripped)) - set(decls)
    return decls, ref_params


def atomic_orders_ok(policy, op, orders):
    if policy == "seq_cst":
        return True
    if policy in ("counter", "stat"):
        return all(o == "relaxed" for o in orders)
    # handshake: publication stores pair with acquiring loads.
    if op == "load":
        return orders == ["acquire"]
    if op == "store":
        return orders == ["release"]
    if op.startswith("compare_exchange"):
        return (orders[:1] in (["acq_rel"], ["acquire"], ["release"])
                and all(o in ("relaxed", "acquire") for o in orders[1:]))
    return all(o in ("acq_rel", "acquire", "release") for o in orders)


def atomics_pass(atomics_by_path, suppressed_by_path, stripped_by_path):
    findings = []
    for path, (decls, ref_params) in atomics_by_path.items():
        sup = suppressed_by_path.get(path, {})
        stripped = stripped_by_path[path]
        lines = stripped.splitlines()

        def note(line, message):
            if line in sup or (line - 1) in sup:
                return
            findings.append(Finding(path, line, "sema-atomics", message))

        for name, d in decls.items():
            if d["policy"] is None:
                note(d["line"],
                     f"atomic '{name}' declares no policy — annotate with "
                     f"// atomic: counter|stat|handshake|seq_cst(<reason>)")
            elif d["policy"] == "seq_cst" and not d["reason"]:
                note(d["line"],
                     f"atomic '{name}' claims seq_cst without a reason — "
                     f"use // atomic: seq_cst(<why>)")

        audited = {**{n: d["policy"] for n, d in decls.items()},
                   **{n: None for n in ref_params}}
        for name, policy in audited.items():
            for m in re.finditer(
                    rf"\b{re.escape(name)}\s*(?:\[[^\]]*\])?\s*\.\s*"
                    rf"({ATOMIC_OP_NAMES})\s*\(", stripped):
                op = m.group(1)
                close = match_paren(stripped, m.end() - 1)
                args = stripped[m.end() : close] if close > 0 else ""
                orders = re.findall(r"memory_order(?:_|::)(\w+)", args)
                line = 1 + stripped.count("\n", 0, m.start())
                if not orders:
                    note(line,
                         f"'{name}.{op}' uses the defaulted (seq_cst) memory "
                         f"order — state the order explicitly")
                elif policy is not None and not atomic_orders_ok(policy, op, orders):
                    note(line,
                         f"'{name}.{op}({', '.join(orders)})' does not match "
                         f"the declared '{policy}' policy")
            # ++/--/compound ops on an atomic always mean defaulted seq_cst.
            for m in re.finditer(
                    rf"(?:\+\+|--)\s*{re.escape(name)}\b"
                    rf"|(?:^|[^\w.]){re.escape(name)}\s*(?:\+\+|--|\+=|-=|\|=|&=|\^=)",
                    stripped):
                line = 1 + stripped.count("\n", 0, m.start())
                if "std::atomic<" in lines[line - 1]:
                    continue  # the declaration itself
                note(line,
                     f"operator on atomic '{name}' uses the defaulted "
                     f"(seq_cst) memory order — use an explicit fetch_add/"
                     f"store")
    return findings


# --------------------------------------------------------------------------
# Pass 6: blocking-under-lock + lock-hotspot ranking (sema-blocking)
#
# Nothing slow belongs inside a critical section: file/stream IO, waits on a
# foreign condition variable, or an Encoder/Estimator build (unbounded in the
# document size). Blocking facts propagate through the same call resolution the
# lock-order pass uses (including interface dispatch, so store_->put() sees
# DiskBaseStore). A `sema: ok` on the *source* line accepts the blocking as
# bounded and stops propagation to callers.
#
# Independently, every LockGuard section is scored by a static weight and
# ranked into a machine-readable hotspot report (--hotspots) — the evidence
# that picks DeltaServer's shard boundaries (ROADMAP item 1).
# --------------------------------------------------------------------------

# Mutexes that exist solely to serialize a component-private IO sink and are
# never nested under any other lock — IO held under them cannot stall a shard
# or pool critical section, so the blocking pass accepts it by capability name
# instead of line-by-line. Each entry must cite why the nesting claim holds:
#   TimeSeriesRecorder::io_mu_ — guards only the recorder's JSONL ofstream.
#     tick() snapshots the registry first (registry mutex released inside
#     snapshot()), builds the window under the recorder's mu_, releases mu_,
#     and only then takes io_mu_ for the append; no shard, pool or registry
#     mutex is ever held at that point, and nothing ever locks anything else
#     while holding io_mu_ (pinned by `sema: ok` reasons at the call sites).
PRIVATE_SINK_MUTEXES = {"TimeSeriesRecorder::io_mu_"}

STREAM_TYPES = {"ofstream", "ifstream", "fstream"}
IO_TOKEN_RE = re.compile(
    r"\bstd::filesystem::[A-Za-z_]\w*|\bstd::(?:o|i)?fstream\b"
    r"|\bf(?:open|read|write|sync|close)\s*\(|\bgetline\s*\("
)
HEAVY_ALLOC_RE = re.compile(
    r"\bmake_(?:shared|unique)\s*<\s*(?:const\s+)?(?:[\w:]+::)?(?:Encoder|Estimator)\b"
    r"|\bnew\s+(?:[\w:]+::)?(?:Encoder|Estimator)\b"
)
CV_WAIT_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*wait\s*\(\s*([A-Za-z_]\w*)\s*\)")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")

HOTSPOT_WEIGHTS = {
    "line": 1, "call": 2, "loop": 5, "heavy_alloc": 20, "io": 30, "cv_wait": 10,
}


def direct_blocking_facts(unit, cls):
    """[(pos, kind, detail)] — unfiltered blocking facts in unit.body."""
    facts = []
    body = unit.body
    for m in IO_TOKEN_RE.finditer(body):
        facts.append((m.start(), "io", m.group(0).split("(")[0].strip()))
    if cls is not None:
        for name, t in cls.members.items():
            if t in STREAM_TYPES:
                for m in re.finditer(
                        rf"\b{re.escape(name)}\s*(?:<<|\.\s*(?:open|flush|close|write)\s*\()",
                        body):
                    facts.append((m.start(), "io", f"stream member '{name}'"))
    for m in HEAVY_ALLOC_RE.finditer(body):
        facts.append((m.start(), "heavy-alloc",
                      "Encoder/Estimator build (index over the whole document)"))
    return facts


def fact_suppressed(unit, pos, suppressed_by_path):
    line = unit.body_line + unit.body.count("\n", 0, pos)
    sup = suppressed_by_path.get(unit.path, {})
    return line in sup or (line - 1) in sup


def blocking_pass(units, classes, suppressed_by_path, hotspots_out=None):
    classes_by_name = {c.name: c for c in classes}
    impls = {}
    for c in classes:
        for b in c.bases:
            impls.setdefault(b, []).append(c.name)
    methods = build_method_table(units)
    free_by_file = {}
    for u in units:
        if not u.cls:
            free_by_file.setdefault(u.path, {}).setdefault(u.simple, []).append(u)

    def callees_of(unit):
        out = list(resolve_callees(unit, classes_by_name, impls, methods))
        table = free_by_file.get(unit.path, {})
        for m in SELF_CALL_RE.finditer(unit.body):
            fn = m.group(1)
            if fn in table and fn != unit.simple and fn not in NOT_FUNCTIONS:
                out.append((f"{unit.path.name}::{fn}", m.start()))
        return out

    callables = dict(methods)
    for path, table in free_by_file.items():
        for fn, us in table.items():
            callables[f"{path.name}::{fn}"] = us

    # Direct facts per callable, twice: `sema: ok` at the source line accepts
    # the blocking as bounded, stopping both the finding and propagation to
    # callers — but the hotspot report keeps scoring the unfiltered set
    # (accepted IO is still weight the sharding refactor must reckon with).
    direct, direct_all = {}, {}
    for key, us in callables.items():
        facts, facts_all = set(), set()
        for u in us:
            cls = classes_by_name.get(u.cls)
            for pos, kind, detail in direct_blocking_facts(u, cls):
                facts_all.add((kind, detail))
                if not fact_suppressed(u, pos, suppressed_by_path):
                    facts.add((kind, detail))
        direct[key] = facts
        direct_all[key] = facts_all

    callee_map = {
        key: [k for u in us for (k, _pos) in callees_of(u)]
        for key, us in callables.items()
    }

    def propagate(seed):
        may = {k: set(v) for k, v in seed.items()}
        changed = True
        while changed:
            changed = False
            for key, cal in callee_map.items():
                for c in cal:
                    add = may.get(c, set()) - may[key]
                    if add:
                        may[key] |= add
                        changed = True
        return may

    may_block = propagate(direct)
    may_block_all = propagate(direct_all)

    findings = []

    def note(unit, pos, message):
        line = unit.body_line + unit.body.count("\n", 0, pos)
        sup = suppressed_by_path.get(unit.path, {})
        if line in sup or (line - 1) in sup:
            return
        findings.append(Finding(unit.path, line, "sema-blocking", message))

    # REQUIRES helpers run entirely inside the caller's critical section, so
    # their static cost rolls up into every calling section.
    def rolled_cost(key, stack=()):
        if key in stack:
            return {}
        total = {}
        for u in callables.get(key, []):
            cls = classes_by_name.get(u.cls)
            total["line"] = total.get("line", 0) + u.body.count("\n")
            total["loop"] = total.get("loop", 0) + len(LOOP_RE.findall(u.body))
            for _pos, kind, _d in direct_blocking_facts(u, cls):
                k = "io" if kind == "io" else "heavy_alloc"
                total[k] = total.get(k, 0) + 1
            for callee, _pos in callees_of(u):
                total["call"] = total.get("call", 0) + 1
                ccls = classes_by_name.get(callee.split("::")[0])
                cunits = callables.get(callee, [])
                if (cunits and ccls is not None
                        and requires_mutex(cunits[0], ccls) is not None):
                    for k, v in rolled_cost(callee, stack + (key,)).items():
                        total[k] = total.get(k, 0) + v
        return total

    sections = []
    for key, us in callables.items():
        for u in us:
            cls = classes_by_name.get(u.cls)
            if cls is None:
                continue
            req = requires_mutex(u, cls)
            scopes = guard_scopes(u, cls)
            calls = callees_of(u)

            # Findings: direct facts and may-block calls inside any region
            # where a mutex is held (LockGuard scope or REQUIRES body).
            regions = list(scopes)
            if req is not None:
                regions.append((0, len(u.body), f"{cls.name}::{req}"))
            for start, end, held in regions:
                if held in PRIVATE_SINK_MUTEXES:
                    continue
                for pos, kind, detail in direct_blocking_facts(u, cls):
                    if start <= pos < end and not fact_suppressed(
                            u, pos, suppressed_by_path):
                        what = ("blocking IO" if kind == "io"
                                else "unbounded allocation")
                        note(u, pos,
                             f"{u.name}: {what} ({detail}) while holding {held}")
                for m in CV_WAIT_RE.finditer(u.body[start:end]):
                    if m.group(2) != held.split("::")[-1]:
                        note(u, start + m.start(),
                             f"{u.name}: wait on '{m.group(1)}' with foreign "
                             f"mutex '{m.group(2)}' while holding {held}")
                seen = set()
                for callee, pos in calls:
                    if not (start <= pos < end) or callee in seen:
                        continue
                    seen.add(callee)
                    for kind, detail in sorted(may_block.get(callee, set())):
                        what = "block on IO" if kind == "io" else "allocate unboundedly"
                        note(u, pos,
                             f"{u.name}: call to {callee} may {what} "
                             f"({detail}) while holding {held}")

            # Hotspot sections: LockGuard scopes only (REQUIRES helpers are
            # rolled into their calling sections instead).
            if hotspots_out is None:
                continue
            for start, end, held in scopes:
                chunk = u.body[start:end]
                cost = {
                    "line": chunk.count("\n"),
                    "call": 0,
                    "loop": len(LOOP_RE.findall(chunk)),
                    "io": 0, "heavy_alloc": 0, "cv_wait": 0,
                }
                blocking = []
                for pos, kind, detail in direct_blocking_facts(u, cls):
                    if start <= pos < end:
                        cost["io" if kind == "io" else "heavy_alloc"] += 1
                        blocking.append(f"{kind}: {detail}")
                for m in CV_WAIT_RE.finditer(chunk):
                    cost["cv_wait"] += 1
                for callee, pos in calls:
                    if not (start <= pos < end):
                        continue
                    cost["call"] += 1
                    ccls = classes_by_name.get(callee.split("::")[0])
                    cunits = callables.get(callee, [])
                    if (cunits and ccls is not None
                            and requires_mutex(cunits[0], ccls) is not None):
                        for k, v in rolled_cost(callee).items():
                            cost[k] = cost.get(k, 0) + v
                    for kind, detail in sorted(may_block_all.get(callee, set())):
                        cost["io" if kind == "io" else "heavy_alloc"] += 1
                        blocking.append(f"{kind} via {callee}: {detail}")
                weight = sum(HOTSPOT_WEIGHTS[k] * v for k, v in cost.items()
                             if k in HOTSPOT_WEIGHTS)
                line = u.body_line + u.body.count("\n", 0, start)
                sections.append({
                    "file": Finding(u.path, line, "", "").rel(),
                    "line": line,
                    "function": u.name,
                    "mutex": held,
                    "weight": weight,
                    "lines": cost["line"],
                    "calls": cost["call"],
                    "loops": cost["loop"],
                    "blocking": sorted(set(blocking)),
                })

    if hotspots_out is not None:
        sections.sort(key=lambda s: (-s["weight"], s["file"], s["line"]))
        for rank, s in enumerate(sections, start=1):
            s["rank"] = rank
        hotspots_out.extend(sections)
    return findings


# --------------------------------------------------------------------------
# Passes 7 & 8: allocation & copy dataflow (sema-alloc / sema-copy)
#
# sema-alloc enumerates every allocation site, resolves the call graph to a
# fixpoint from the serve hot roots, and classifies each function:
#   hot     reachable from DeltaServerShard::serve / the worker pool / the
#           proxy caches without passing through a rebase boundary — this
#           code runs once per request;
#   rebase  reachable only from the publication/selector/anonymizer
#           boundary functions — runs once per class create/rebase;
#   setup   everything else (construction, offline tools, accessors).
# Scaling sites (range copies, unreserved growth inside a loop, map/set
# node inserts, make_shared/make_unique, explicit new) in hot functions are
# findings; bounded sites (reserve/resize/assign, sized constructors,
# reserved or loop-free growth, std::to_string formatting) are inventory
# only. `--allocs` writes the full ranked inventory — the static half of
# the allocations-per-request budget that bench_perf_report measures with
# its counting operator-new hook.
#
# sema-copy flags copies the types can't justify: heavy parameters taken by
# value and never moved, locals that copy where a const& or view would do,
# last-use copies missing a std::move, and heavy buffer copies inside an
# annotated critical section (snapshot a shared_ptr instead — the pattern
# DeltaServerShard::fetch_base uses).
#
# Both passes share the `// alloc: ok(<reason>)` suppression form.
# --------------------------------------------------------------------------

ALLOC_SUPPRESS_RE = re.compile(r"//\s*alloc:\s*ok\(([^)]*)\)")

# Per-request entry points: anything they reach (outside a rebase boundary)
# allocates once per served request.
ALLOC_HOT_ROOTS = [
    "DeltaServerShard::serve",
    "DeltaServer::serve",
    "DeltaWorkerPool::submit",
    "DeltaWorkerPool::worker_loop",
    "HttpProxy::handle",
    "LruCache::get",
    "LruCache::put",
    "GreedyDualCache::get",
    "GreedyDualCache::put",
]

# Publication/selection work: called from serve but amortized over many
# requests (class create, anonymization round, rebase). The hot walk stops
# here; these seed the rebase classification instead.
ALLOC_REBASE_BOUNDARY = [
    "DeltaServerShard::make_working_estimator",
    "DeltaServerShard::start_publication",
    "DeltaServerShard::maybe_complete_publication",
    "DeltaServerShard::record_publication",
    "Anonymizer::begin",
    "Anonymizer::observe",
    "Anonymizer::finalize",
    "BaseFileSelector::observe",
    "BaseFileSelector::admit",
    "BaseFileSelector::insert_candidate",
    "BaseFileSelector::insert_reference",
    "BaseFileSelector::evict_candidate",
    # Class creation happens once per class and amortizes across every later
    # request the class serves — the same once-per-epoch shape as a rebase.
    "ClassManager::create_class",
]

HEAVY_CONTAINER_RE = re.compile(
    r"\b(?:util::)?Bytes\b|\bstd::string\b|\bstd::vector\s*<"
)
HEAVY_TYPE_RE = re.compile(
    r"\b(?:util::)?Bytes\b|\bstd::string\b|\bstd::vector\s*<|\bstd::shared_ptr\s*<"
)
HEAVY_CTOR_RE = re.compile(
    r"\b(?P<type>(?:util::)?Bytes\b|std::string\b|std::vector\s*<[^;<>(){}]*>)"
    r"\s*(?P<name>[A-Za-z_]\w*\s*)?(?P<open>[({])"
)
GROWTH_CALL_RE = re.compile(
    r"\b(?P<recv>[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*?)\s*(?:\.|->)\s*"
    r"(?P<op>push_back|emplace_back|append|insert|emplace|try_emplace|"
    r"assign|resize|reserve)\s*\("
)
MAKE_SMART_RE = re.compile(r"\bstd::make_(?P<kind>shared|unique)\s*<\s*(?P<arg>[^;>()]*)")
NEW_EXPR_RE = re.compile(r"\bnew\s+[A-Za-z_][\w:]*")
TO_STRING_RE = re.compile(r"(?:\.|->)\s*to_string\s*\(|\bstd::to_string\s*\(")
QUAL_CALL_RE = re.compile(
    r"\b(?P<qual>(?:[A-Za-z_]\w*::)+)(?P<fn>[A-Za-z_~]\w*)\s*\("
)
LOCAL_DECL_RE = re.compile(
    r"\b(?P<type>(?:const\s+)?(?:[A-Za-z_]\w*::)*[A-Za-z_]\w*"
    r"(?:\s*<[^;(){}]*>)?)\s*[&*]?\s+(?P<name>[A-Za-z_]\w*)\s*[=;({]"
)
VAR_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")

# Kinds that scale with or copy the request: findings when hot. Bounded
# kinds (sized-ctor, refill, reserved growth, fmt) stay inventory-only.
ALLOC_FLAGGED_KINDS = {
    "range-copy", "growth-in-loop", "node-insert", "make-shared",
    "make-unique", "new",
}


def loop_regions(body):
    """[(start, end)] body regions inside a for/while statement."""
    regions = []
    for m in LOOP_RE.finditer(body):
        open_paren = body.index("(", m.start())
        close_paren = match_paren(body, open_paren)
        if close_paren < 0:
            continue
        i = close_paren + 1
        while i < len(body) and body[i].isspace():
            i += 1
        if i < len(body) and body[i] == "{":
            end = match_brace(body, i)
            regions.append((m.start(), end if end > 0 else len(body)))
        else:
            semi = body.find(";", i)
            regions.append((m.start(), semi if semi >= 0 else len(body)))
    return regions


def local_types(unit, classes_by_name):
    """Variable name -> simple class name, for params and local decls whose
    (unwrapped) type is a known class."""
    out = {}
    for name, type_text in unit.param_names_and_types():
        t = unwrap_type(type_text)
        if t in classes_by_name:
            out[name] = t
    for m in LOCAL_DECL_RE.finditer(unit.body):
        t = unwrap_type(m.group("type"))
        if t in classes_by_name:
            out.setdefault(m.group("name"), t)
    return out


def member_map_types(cls, unit, classes_by_name):
    """Receiver name -> raw declared type text (members and typed locals),
    used to tell a map/set node insert from vector growth."""
    out = {}
    if cls is not None:
        out.update(cls.raw_types)
    for m in LOCAL_DECL_RE.finditer(unit.body):
        out.setdefault(m.group("name"), m.group("type"))
    return out


def alloc_sites(unit, cls, classes_by_name):
    """[(pos, kind, detail)] — every allocation site in unit.body."""
    body = unit.body
    sites = []
    loops = loop_regions(body)
    raw_types = member_map_types(cls, unit, classes_by_name)

    def in_loop(pos):
        return any(s <= pos < e for s, e in loops)

    for m in HEAVY_CTOR_RE.finditer(body):
        open_idx = m.end() - 1
        close = (match_paren if m.group("open") == "(" else match_brace)(body, open_idx)
        args = body[open_idx + 1 : close].strip() if close > 0 else ""
        if not args:
            continue  # default construction allocates nothing
        type_text = m.group("type").strip()
        if re.search(r"\.(?:begin|end|data|cbegin|cend)\s*\(", args):
            sites.append((m.start(), "range-copy",
                          f"{type_text} constructed from a range"))
        else:
            sites.append((m.start(), "sized-ctor",
                          f"{type_text} constructed with {args.split(',')[0].strip()!r}"))
    for m in GROWTH_CALL_RE.finditer(body):
        recv, op = m.group("recv"), m.group("op")
        if op in ("assign", "resize", "reserve"):
            sites.append((m.start(), "refill", f"{recv}.{op}"))
            continue
        root = recv.split(".")[0].split("->")[0]
        raw = raw_types.get(root, "") + raw_types.get(recv, "")
        is_node = op == "try_emplace" or re.search(r"\bmap\b|\bset\b", raw)
        if is_node:
            sites.append((m.start(), "node-insert", f"{recv}.{op}"))
        elif in_loop(m.start()) and not re.search(
                rf"{re.escape(recv)}\s*\.\s*reserve\s*\(", body[: m.start()]):
            sites.append((m.start(), "growth-in-loop",
                          f"{recv}.{op} in a loop with no preceding reserve"))
        else:
            sites.append((m.start(), "growth", f"{recv}.{op}"))
    # operator[] on a map member default-constructs a node on miss.
    for m in re.finditer(r"\b([A-Za-z_]\w*_)\s*\[", body):
        raw = raw_types.get(m.group(1), "")
        if re.search(r"\bmap\b", raw):
            sites.append((m.start(), "node-insert", f"{m.group(1)}[] subscript insert"))
    for m in MAKE_SMART_RE.finditer(body):
        sites.append((m.start(), f"make-{m.group('kind')}",
                      f"make_{m.group('kind')}<{m.group('arg').strip()}>"))
    for m in NEW_EXPR_RE.finditer(body):
        sites.append((m.start(), "new", m.group(0)))
    for m in TO_STRING_RE.finditer(body):
        kind = "fmt" if "std::" in m.group(0) else "range-copy"
        detail = ("std::to_string formatting" if kind == "fmt"
                  else "to_string() materializes a full copy")
        sites.append((m.start(), kind, detail))
    sites.sort(key=lambda s: s[0])
    return sites


def build_alloc_call_graph(units, classes):
    """(callables, callee_map, classes_by_name) with deeper resolution than
    the blocking pass: typed locals/params (`transmit->encode`), globally
    resolved free functions (`compress::compress`, `lz77_tokenize` across
    files), and make_shared<T>/T constructor targets."""
    classes_by_name = {c.name: c for c in classes}
    impls = {}
    for c in classes:
        for b in c.bases:
            impls.setdefault(b, []).append(c.name)
    methods = build_method_table(units)
    free_index = {}
    for u in units:
        if not u.cls:
            free_index.setdefault(u.simple, []).append(f"{u.path.name}::{u.simple}")

    callables = dict(methods)
    for u in units:
        if not u.cls:
            callables.setdefault(f"{u.path.name}::{u.simple}", []).append(u)

    def method_keys(type_name, fn):
        names = [type_name] + impls.get(type_name, [])
        return [f"{t}::{fn}" for t in names if f"{t}::{fn}" in methods]

    def callees_of(unit):
        out = list(resolve_callees(unit, classes_by_name, impls, methods))
        body = unit.body
        locals_t = local_types(unit, classes_by_name)
        for m in VAR_CALL_RE.finditer(body):
            t = locals_t.get(m.group(1))
            if t:
                for key in method_keys(t, m.group(2)):
                    out.append((key, m.start()))
        for m in SELF_CALL_RE.finditer(body):
            fn = m.group(1)
            if fn in NOT_FUNCTIONS or fn == unit.simple:
                continue
            for key in free_index.get(fn, []):
                out.append((key, m.start()))
        for m in QUAL_CALL_RE.finditer(body):
            if m.group("qual").startswith("std::"):
                continue  # std::to_string etc. never resolve to repo code
            for key in free_index.get(m.group("fn"), []):
                out.append((key, m.start()))
        for m in MAKE_SMART_RE.finditer(body):
            t = unwrap_type(m.group("arg"))
            for key in method_keys(t, t):
                out.append((key, m.start()))
        for m in LOCAL_DECL_RE.finditer(body):
            if m.group(0).rstrip().endswith("("):
                t = unwrap_type(m.group("type"))
                for key in method_keys(t, t):
                    out.append((key, m.start()))
        return out

    callee_map = {}
    for key, us in callables.items():
        callee_map[key] = sorted({k for u in us for (k, _p) in callees_of(u)})
    return callables, callee_map, classes_by_name


def classify_alloc_functions(callables, callee_map):
    """key -> 'hot' | 'rebase' | 'setup'. Hot wins when both walks reach a
    function (it runs per request regardless of also serving rebases)."""
    boundary = {k for k in ALLOC_REBASE_BOUNDARY if k in callables}
    hot = {k for k in ALLOC_HOT_ROOTS if k in callables}
    stack = list(hot)
    while stack:
        for c in callee_map.get(stack.pop(), []):
            if c not in hot and c not in boundary and c in callables:
                hot.add(c)
                stack.append(c)
    rebase = set(boundary)
    stack = list(boundary)
    while stack:
        for c in callee_map.get(stack.pop(), []):
            if c not in rebase and c not in hot and c in callables:
                rebase.add(c)
                stack.append(c)
    return {k: ("hot" if k in hot else "rebase" if k in rebase else "setup")
            for k in callables}


def alloc_pass(units, classes, alloc_sup_by_path, allocs_out=None):
    callables, callee_map, classes_by_name = build_alloc_call_graph(units, classes)
    classification = classify_alloc_functions(callables, callee_map)
    order = {"hot": 0, "rebase": 1, "setup": 2}
    findings = []
    rows = []
    totals = {"hot_sites": 0, "hot_flagged": 0, "hot_suppressed": 0,
              "rebase_sites": 0, "setup_sites": 0, "hot_functions": 0}
    for key, us in callables.items():
        cls_kind = classification[key]
        site_rows = []
        for u in us:
            cls = classes_by_name.get(u.cls)
            sup = alloc_sup_by_path.get(u.path, {})
            for pos, kind, detail in alloc_sites(u, cls, classes_by_name):
                line = u.body_line + u.body.count("\n", 0, pos)
                suppressed = line in sup or (line - 1) in sup
                flagged = kind in ALLOC_FLAGGED_KINDS
                site_rows.append({
                    "line": line, "kind": kind, "detail": detail,
                    "flagged": flagged, "suppressed": suppressed,
                    "reason": sup.get(line, sup.get(line - 1, "")),
                })
                if cls_kind == "hot" and flagged and not suppressed:
                    findings.append(Finding(
                        u.path, line, "sema-alloc",
                        f"{u.name}: per-request allocation on the serve hot "
                        f"path ({kind}: {detail}) — eliminate it or annotate "
                        f"// alloc: ok(<reason>)"))
        if cls_kind == "hot":
            totals["hot_sites"] += len(site_rows)
            totals["hot_flagged"] += sum(r["flagged"] for r in site_rows)
            totals["hot_suppressed"] += sum(r["suppressed"] for r in site_rows)
            totals["hot_functions"] += 1
        else:
            totals[f"{cls_kind}_sites"] += len(site_rows)
        if site_rows or cls_kind == "hot":
            u0 = us[0]
            rows.append({
                "function": key,
                "file": Finding(u0.path, u0.line, "", "").rel(),
                "line": u0.line,
                "classification": cls_kind,
                "allocs": len(site_rows),
                "flagged": sum(r["flagged"] for r in site_rows),
                "suppressed": sum(r["suppressed"] for r in site_rows),
                "sites": site_rows,
            })
    rows.sort(key=lambda r: (order[r["classification"]], -r["allocs"],
                             r["file"], r["line"]))
    for rank, r in enumerate(rows, start=1):
        r["rank"] = rank
    if allocs_out is not None:
        allocs_out["functions"] = rows
        allocs_out["totals"] = totals
        allocs_out["hot_roots"] = sorted(k for k in ALLOC_HOT_ROOTS if k in callables)
        allocs_out["rebase_boundary"] = sorted(
            k for k in ALLOC_REBASE_BOUNDARY if k in callables)
    return findings


HEAVY_COPY_DECL_RE = re.compile(
    r"(?:^|[;{}])\s*(?:const\s+)?"
    r"(?P<type>(?:util::)?Bytes|std::string|std::vector\s*<[^;<>]*>)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<rhs>[^;]+);"
)
PLAIN_LVALUE_RE = re.compile(
    r"^\*?\s*[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*$"
)
HEAVY_LOCAL_DECL_RE = re.compile(
    r"\b(?:util::Bytes|std::string|std::vector\s*<[^;<>]*>)\s+"
    r"([A-Za-z_]\w*)\s*[=;({]"
)
LAST_USE_COPY_RE = re.compile(
    r"(?:=\s*|\.\s*(?:push_back|emplace_back)\s*\(\s*)([A-Za-z_]\w*)\s*[;)]"
)


def copy_pass(units, classes, alloc_sup_by_path):
    classes_by_name = {c.name: c for c in classes}
    findings = []
    for unit in units:
        body = unit.body
        cls = classes_by_name.get(unit.cls)
        sup = alloc_sup_by_path.get(unit.path, {})

        def note(line, message):
            if line in sup or (line - 1) in sup:
                return
            findings.append(Finding(unit.path, line, "sema-copy", message))

        def note_pos(pos, message):
            note(unit.body_line + body.count("\n", 0, pos), message)

        # (a) heavy parameter by value, never moved. Constructor member-init
        # lists end up in unit.trail or (when the header glob re-splits on a
        # nested paren) in unit.params, so both are searched for the move.
        by_value_heavy = []
        for name, type_text in unit.param_names_and_types():
            if "&" in type_text or "*" in type_text:
                continue
            if not HEAVY_TYPE_RE.search(type_text):
                continue
            if re.search(rf"std::move\s*\(\s*{re.escape(name)}\b",
                         " ".join((body, unit.trail, unit.params))):
                continue
            if HEAVY_CONTAINER_RE.search(type_text):
                by_value_heavy.append(name)
            note(unit.line,
                 f"{unit.name}: heavy parameter '{name}' passed by value and "
                 f"never moved — take util::BytesView/std::span/const&, or "
                 f"std::move it into its sink")

        # Critical-section regions: LockGuard scopes plus a REQUIRES body.
        regions = guard_scopes(unit, cls) if cls is not None else []
        if cls is not None:
            req = requires_mutex(unit, cls)
            if req is not None:
                regions.append((0, len(body), f"{cls.name}::{req}"))

        def region_of(pos):
            return next((r for r in regions if r[0] <= pos < r[1]), None)

        # (b)/(c) heavy copy-initialization from a plain lvalue: a view or
        # const& outside a lock, a shared_ptr snapshot inside one.
        for m in HEAVY_COPY_DECL_RE.finditer(body):
            rhs = m.group("rhs").strip()
            if not PLAIN_LVALUE_RE.match(rhs):
                continue
            region = region_of(m.start("name"))
            if region is not None:
                note_pos(m.start("name"),
                         f"{unit.name}: heavy copy of '{rhs}' inside the "
                         f"{region[2]} critical section — snapshot a "
                         f"shared_ptr or copy outside the lock")
            else:
                note_pos(m.start("name"),
                         f"{unit.name}: '{m.group('name')}' copies '{rhs}' — "
                         f"a const reference, util::BytesView, or std::move "
                         f"would avoid the allocation")

        # (c) heavy range-copy construction while a mutex is held.
        if regions:
            for m in HEAVY_CTOR_RE.finditer(body):
                open_idx = m.end() - 1
                close = (match_paren if m.group("open") == "(" else match_brace)(
                    body, open_idx)
                args = body[open_idx + 1 : close] if close > 0 else ""
                if not re.search(r"\.(?:begin|end|data|cbegin|cend)\s*\(", args):
                    continue
                region = region_of(m.start())
                if region is not None:
                    note_pos(m.start(),
                             f"{unit.name}: heavy copy "
                             f"({m.group('type').strip()} from a range) inside "
                             f"the {region[2]} critical section — snapshot a "
                             f"shared_ptr or copy outside the lock")

        # (d) last-use copy of a heavy local/param that misses a std::move.
        heavy_locals = set(HEAVY_LOCAL_DECL_RE.findall(body)) | set(by_value_heavy)
        for m in LAST_USE_COPY_RE.finditer(body):
            name = m.group(1)
            if name not in heavy_locals:
                continue
            if re.search(rf"\b{re.escape(name)}\b", body[m.end():]):
                continue
            note_pos(m.start(),
                     f"{unit.name}: last use of heavy local '{name}' copies "
                     f"it — std::move it into the sink")
    return findings


def suppression_pass(suppressed_by_path, alloc_sup_by_path=None):
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
    for path, sup in (alloc_sup_by_path or {}).items():
        for line, reason in sup.items():
            if not reason:
                findings.append(
                    Finding(
                        path,
                        line,
                        "sema-suppression",
                        "empty suppression reason: use // alloc: ok(<why>)",
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


def analyze(paths, frontend="auto", entry_points=None, taint_all=False,
            graph_out=None, escape_out=None, hotspots_out=None, model_out=None,
            allocs_out=None):
    cindex = load_cindex() if frontend in ("auto", "cindex") else None
    if frontend == "cindex" and cindex is None:
        print("cbde_sema: ERROR: --frontend=cindex but clang.cindex is unavailable",
              file=sys.stderr)
        sys.exit(2)
    if cindex is None and frontend == "auto":
        print(
            "cbde_sema: NOTICE: libclang (clang.cindex) unavailable — "
            "using the built-in text frontend",
            file=sys.stderr,
        )

    all_units = []
    all_classes = []
    units_by_path = {}
    suppressed_by_path = {}
    # The escape/atomics/blocking passes need GUARDED_BY / REQUIRES /
    # `// atomic:` information that only the text frontend mines (the cindex
    # parse never expands the annotation macros), so the text model is built
    # unconditionally and cindex only upgrades the legacy passes.
    text_units = []
    text_classes = []
    atomics_by_path = {}
    stripped_by_path = {}
    alloc_sup_by_path = {}
    for f in collect_files(paths):
        try:
            text, stripped, units, classes, sup = parse_file(f)
            if cindex is not None:
                _, _, cunits, cclasses, sup = parse_file_cindex(cindex, f)
            else:
                cunits, cclasses = units, classes
        except Exception as e:  # a frontend crash must not kill the run
            print(f"cbde_sema: WARNING: cannot parse {f}: {e}", file=sys.stderr)
            continue
        all_units.extend(cunits)
        all_classes.extend(cclasses)
        text_units.extend(units)
        text_classes.extend(classes)
        units_by_path[f] = cunits
        suppressed_by_path[f] = sup
        atomics_by_path[f] = collect_atomics(f, text, stripped)
        stripped_by_path[f] = stripped
        alloc_sup = {}
        for i, line in enumerate(text.splitlines(), start=1):
            am = ALLOC_SUPPRESS_RE.search(line)
            if am:
                alloc_sup[i] = am.group(1).strip()
        alloc_sup_by_path[f] = alloc_sup

    findings = []
    findings += taint_pass(all_units, {"taint_all": taint_all}, suppressed_by_path)
    findings += lock_pass(all_units, all_classes, suppressed_by_path, graph_out)
    findings += contracts_pass(
        units_by_path,
        entry_points if entry_points is not None else REPO_ENTRY_POINTS,
        suppressed_by_path,
    )
    findings += escape_pass(text_units, text_classes, suppressed_by_path, escape_out)
    findings += atomics_pass(atomics_by_path, suppressed_by_path, stripped_by_path)
    findings += blocking_pass(text_units, text_classes, suppressed_by_path,
                              hotspots_out)
    findings += alloc_pass(text_units, text_classes, alloc_sup_by_path,
                           allocs_out)
    findings += copy_pass(text_units, text_classes, alloc_sup_by_path)
    findings += suppression_pass(suppressed_by_path, alloc_sup_by_path)
    findings.sort(key=lambda f: (f.rel(), f.line, f.check))
    if model_out is not None:
        model_out["classes"] = text_classes
        model_out["units"] = text_units
    return findings


def write_hotspots(sections, out_path):
    import json

    report = {
        "generated_by": "tools/analyze/cbde_sema.py",
        "description": "LockGuard critical sections ranked by static weight; "
                       "the shard-boundary evidence for ROADMAP item 1",
        "weights": HOTSPOT_WEIGHTS,
        "sections": sections,
    }
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def write_allocs(inventory, out_path):
    import json

    report = {
        "generated_by": "tools/analyze/cbde_sema.py",
        "description": "Per-function allocation-site inventory, classified "
                       "hot/rebase/setup by call-graph reachability from the "
                       "serve roots; the static half of the "
                       "allocations-per-request budget",
        "hot_roots": inventory.get("hot_roots", []),
        "rebase_boundary": inventory.get("rebase_boundary", []),
        "totals": inventory.get("totals", {}),
        "functions": inventory.get("functions", []),
    }
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def write_graph_dot(graph, escapes, classes, out):
    """Render the lock-order graph plus per-mutex confinement clusters
    (guarded fields, escape edges; suppressed escapes are dashed)."""
    def q(s):
        return '"' + str(s).replace('"', r"\"") + '"'

    lines = ["digraph cbde_locks {", "  rankdir=LR;",
             '  node [fontname="monospace" fontsize=10];']
    by_mutex = {}
    for c in classes:
        for member, mu in sorted(c.guarded.items()):
            by_mutex.setdefault(f"{c.name}::{mu}", []).append(member)
    for i, (mu, members) in enumerate(sorted(by_mutex.items())):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f"    label={q(mu)}; style=rounded;")
        lines.append(f"    {q(mu)} [shape=box style=filled fillcolor=lightgrey];")
        for member in members:
            lines.append(f"    {q(mu + '.' + member)} [shape=ellipse label={q(member)}];")
            lines.append(f"    {q(mu)} -> {q(mu + '.' + member)} [style=dotted arrowhead=none];")
        lines.append("  }")
    for (src, dst), (path, line) in sorted(graph.items()):
        rel = Finding(path, line, "", "").rel()
        lines.append(f"  {q(src)} -> {q(dst)} [color=red penwidth=2 "
                     f"label={q(rel + ':' + str(line))}];")
    for e in escapes:
        src = f"{e['mutex']}.{e['name']}" if f"{e['mutex']}" in by_mutex and \
            e["name"] in by_mutex[e["mutex"]] else e["mutex"]
        style = "dashed" if e["suppressed"] else "bold"
        label = f"{e['kind']} escape: {e['cls']}::{e['function']}"
        if e["suppressed"] and e["reason"]:
            label += f"\\nok({e['reason']})"
        lines.append(f"  {q(src)} -> {q(e['cls'] + '::' + e['function'] + '()')} "
                     f"[style={style} color=blue label={q(label)}];")
    lines.append("}")
    out.write("\n".join(lines) + "\n")


def load_baseline():
    if not BASELINE_PATH.exists():
        return set()
    out = set()
    for line in BASELINE_PATH.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return out


def write_baseline(findings):
    lines = [
        "# cbde_sema findings baseline — reviewed, known findings.",
        "# CI fails only on findings NOT listed here.",
        "# Regenerate with: tools/analyze/cbde_sema.py --update-baseline",
        "",
    ]
    lines += sorted({f.key() for f in findings})
    BASELINE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


FIXTURE_ESCAPE_BAD = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Vault {
 public:
  const unsigned char* peek() EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    return buf_.data();
  }
  void stash() EXCLUDES(mu_) {
    const unsigned char* held = nullptr;
    {
      const LockGuard lock(mu_);
      held = &buf_[0];
    }
    sink(held);
  }
 private:
  void sink(const unsigned char* p);
  mutable Mutex mu_;
  util::Bytes buf_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""

FIXTURE_ESCAPE_CLEAN = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Vault {
 public:
  util::Bytes copy() EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    return buf_;
  }
  const unsigned char* peek() EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    // sema: ok(single-threaded harness pins the buffer for the call)
    return buf_.data();
  }
 private:
  mutable Mutex mu_;
  util::Bytes buf_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""

FIXTURE_ATOMICS_BAD = """\
#include <atomic>
#include <cstdint>
namespace cbde::fix {
class Stats {
 public:
  void hit() { hits_.fetch_add(1); }
  std::uint64_t total() const { return hits_.load(std::memory_order_relaxed); }
  void mark() { raw_.store(1, std::memory_order_relaxed); }
 private:
  // atomic: counter
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> raw_{0};
};
}  // namespace cbde::fix
"""

FIXTURE_ATOMICS_CLEAN = """\
#include <atomic>
#include <cstdint>
namespace cbde::fix {
class Stats {
 public:
  void hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t total() const { return hits_.load(std::memory_order_relaxed); }
  void publish() { ready_.store(true, std::memory_order_release); }
  bool published() const { return ready_.load(std::memory_order_acquire); }
 private:
  // atomic: counter
  std::atomic<std::uint64_t> hits_{0};
  // atomic: handshake
  std::atomic<bool> ready_{false};
};
}  // namespace cbde::fix
"""

FIXTURE_BLOCKING_BAD = """\
#include <fstream>
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Journal {
 public:
  void append(int v) EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    log_ << v;
  }
 private:
  mutable Mutex mu_;
  std::ofstream log_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""

FIXTURE_BLOCKING_CLEAN = """\
#include <fstream>
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Journal {
 public:
  void append(int v) EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    // sema: ok(journal writes are rare by contract and line-buffered)
    log_ << v;
  }
 private:
  mutable Mutex mu_;
  std::ofstream log_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""


FIXTURE_ALLOC_BAD = """\
#include "util/bytes.hpp"
namespace cbde::fix {
class DeltaServerShard {
 public:
  util::Bytes serve(util::BytesView doc) {
    util::Bytes body(doc.begin(), doc.end());
    for (std::size_t i = 0; i < doc.size(); ++i) {
      body.push_back(doc[i]);
    }
    auto keep = std::make_shared<util::Bytes>(body);
    sink(keep);
    return body;
  }
 private:
  void sink(std::shared_ptr<util::Bytes> p);
};
}  // namespace cbde::fix
"""

FIXTURE_ALLOC_CLEAN = """\
#include "util/bytes.hpp"
namespace cbde::fix {
class DeltaServerShard {
 public:
  util::Bytes serve(util::BytesView doc) {
    util::Bytes body;
    body.reserve(doc.size());
    for (std::size_t i = 0; i < doc.size(); ++i) {
      body.push_back(doc[i]);
    }
    // alloc: ok(one handshake allocation per serve, covered by the budget)
    auto keep = std::make_shared<util::Bytes>();
    sink(keep);
    return body;
  }
 private:
  void sink(std::shared_ptr<util::Bytes> p);
};
}  // namespace cbde::fix
"""

FIXTURE_COPY_BAD = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Ledger {
 public:
  void record(util::Bytes doc) EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    util::Bytes snapshot = last_;
    last_ = doc;
    use(snapshot);
  }
 private:
  void use(const util::Bytes& b);
  mutable Mutex mu_;
  util::Bytes last_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""

FIXTURE_COPY_CLEAN = """\
#include "util/thread_annotations.hpp"
namespace cbde::fix {
class Ledger {
 public:
  void record(util::Bytes doc) EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    last_ = std::move(doc);
  }
 private:
  mutable Mutex mu_;
  util::Bytes last_ GUARDED_BY(mu_);
};
}  // namespace cbde::fix
"""


def self_test():
    failures = []

    def run_fixture(name, source, entry_points, hotspots_out=None,
                    allocs_out=None):
        with tempfile.TemporaryDirectory() as td:
            f = Path(td) / f"{name}.cpp"
            f.write_text(source, encoding="utf-8")
            return analyze([td], frontend="text", entry_points=entry_points,
                           hotspots_out=hotspots_out, allocs_out=allocs_out)

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
    entry = [("contracts.cpp", "apply_widget")]
    expect("contracts-bad",
           run_fixture("contracts", FIXTURE_CONTRACTS_BAD, entry),
           "sema-contracts", want=True)
    expect("contracts-clean",
           run_fixture("contracts", FIXTURE_CONTRACTS_CLEAN, entry),
           "sema-contracts", want=False)

    escape_bad = run_fixture("escape_bad", FIXTURE_ESCAPE_BAD, [])
    expect("escape-bad", escape_bad, "sema-escape", want=True)
    if len([f for f in escape_bad if f.check == "sema-escape"]) < 2:
        failures.append("escape-bad: expected both the return escape and the "
                        "outer-local escape to be found")
    expect("escape-clean", run_fixture("escape_clean", FIXTURE_ESCAPE_CLEAN, []),
           "sema-escape", want=False)

    atomics_bad = run_fixture("atomics_bad", FIXTURE_ATOMICS_BAD, [])
    expect("atomics-bad", atomics_bad, "sema-atomics", want=True)
    msgs = " | ".join(f.message for f in atomics_bad if f.check == "sema-atomics")
    if "defaulted" not in msgs or "no policy" not in msgs:
        failures.append("atomics-bad: expected a defaulted-order finding AND "
                        f"a missing-policy finding, got: {msgs or '(none)'}")
    expect("atomics-clean",
           run_fixture("atomics_clean", FIXTURE_ATOMICS_CLEAN, []),
           "sema-atomics", want=False)

    spots = []
    blocking_bad = run_fixture("blocking_bad", FIXTURE_BLOCKING_BAD, [],
                               hotspots_out=spots)
    expect("blocking-bad", blocking_bad, "sema-blocking", want=True)
    if not spots or spots[0]["weight"] <= 0 or spots[0]["rank"] != 1:
        failures.append("blocking-bad: expected a ranked hotspot section for "
                        "the Journal::append critical section")
    expect("blocking-clean",
           run_fixture("blocking_clean", FIXTURE_BLOCKING_CLEAN, []),
           "sema-blocking", want=False)

    inventory = {}
    alloc_bad = run_fixture("alloc_bad", FIXTURE_ALLOC_BAD, [],
                            allocs_out=inventory)
    expect("alloc-bad", alloc_bad, "sema-alloc", want=True)
    msgs = " | ".join(f.message for f in alloc_bad if f.check == "sema-alloc")
    for needle in ("range-copy", "growth-in-loop", "make-shared"):
        if needle not in msgs:
            failures.append(f"alloc-bad: expected a {needle} finding, got: "
                            f"{msgs or '(none)'}")
    top = inventory.get("functions", [{}])[0]
    if (top.get("function") != "DeltaServerShard::serve"
            or top.get("classification") != "hot" or top.get("allocs", 0) < 3):
        failures.append("alloc-bad: expected DeltaServerShard::serve ranked "
                        f"first as hot with >= 3 sites, got: {top}")
    expect("alloc-clean",
           run_fixture("alloc_clean", FIXTURE_ALLOC_CLEAN, []),
           "sema-alloc", want=False)

    copy_bad = run_fixture("copy_bad", FIXTURE_COPY_BAD, [])
    expect("copy-bad", copy_bad, "sema-copy", want=True)
    msgs = " | ".join(f.message for f in copy_bad if f.check == "sema-copy")
    if "passed by value" not in msgs or "critical section" not in msgs:
        failures.append("copy-bad: expected a by-value-parameter finding AND "
                        f"an under-lock copy finding, got: {msgs or '(none)'}")
    expect("copy-clean",
           run_fixture("copy_clean", FIXTURE_COPY_CLEAN, []),
           "sema-copy", want=False)

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
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--list", action="store_true",
                    help="print all findings, ignoring the baseline")
    ap.add_argument("--graph", action="store_true",
                    help="dump the lock-order acquisition graph")
    ap.add_argument("--graph-dot", nargs="?", const="-", metavar="PATH",
                    help="emit the lock-order + confinement graph as DOT "
                         "(to PATH, or stdout)")
    ap.add_argument("--hotspots", metavar="PATH",
                    help="write the ranked lock-hotspot report as JSON")
    ap.add_argument("--allocs", metavar="PATH",
                    help="write the classified per-function allocation "
                         "inventory as JSON")
    ap.add_argument("--frontend", choices=("auto", "text", "cindex"), default="auto")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    paths = args.paths or [str(SRC_ROOT)]
    want_graph = args.graph or args.graph_dot is not None
    graph = {} if want_graph else None
    escapes = [] if args.graph_dot is not None else None
    hotspots = [] if args.hotspots else None
    allocs = {} if args.allocs else None
    model = {} if args.graph_dot is not None else None
    findings = analyze(paths, frontend=args.frontend, graph_out=graph,
                       escape_out=escapes, hotspots_out=hotspots,
                       model_out=model, allocs_out=allocs)

    if args.graph:
        print("lock-order acquisition graph (held -> acquired):")
        for (src, dst), (path, line) in sorted(graph.items()):
            rel = Finding(path, line, "", "").rel()
            print(f"  {src} -> {dst}   ({rel}:{line})")
        if not graph:
            print("  (no cross-mutex acquisitions found)")

    if args.graph_dot is not None:
        if args.graph_dot == "-":
            write_graph_dot(graph, escapes, model["classes"], sys.stdout)
        else:
            with open(args.graph_dot, "w", encoding="utf-8") as fh:
                write_graph_dot(graph, escapes, model["classes"], fh)
            print(f"cbde_sema: DOT graph -> {args.graph_dot}", file=sys.stderr)

    if args.hotspots:
        write_hotspots(hotspots, args.hotspots)
        top = hotspots[0] if hotspots else None
        print(f"cbde_sema: {len(hotspots)} critical section(s) ranked -> "
              f"{args.hotspots}"
              + (f" (top: {top['function']} at {top['file']}:{top['line']}, "
                 f"weight {top['weight']})" if top else ""),
              file=sys.stderr)

    if args.allocs:
        write_allocs(allocs, args.allocs)
        totals = allocs.get("totals", {})
        print(f"cbde_sema: allocation inventory -> {args.allocs} "
              f"(hot: {totals.get('hot_sites', 0)} site(s) across "
              f"{totals.get('hot_functions', 0)} function(s), "
              f"{totals.get('hot_suppressed', 0)} suppressed; "
              f"rebase: {totals.get('rebase_sites', 0)}, "
              f"setup: {totals.get('setup_sites', 0)})",
              file=sys.stderr)

    if args.update_baseline:
        write_baseline(findings)
        print(f"cbde_sema: baseline updated with {len(findings)} finding(s) "
              f"-> {BASELINE_PATH.relative_to(REPO_ROOT)}")
        return 0

    if args.list:
        for f in findings:
            print(f.render())
        print(f"cbde_sema: {len(findings)} finding(s) total")
        return 1 if findings else 0

    baseline = load_baseline()
    new = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}
    for f in new:
        print(f.render())
    if stale:
        print(
            f"cbde_sema: note: {len(stale)} baseline entr"
            f"{'y is' if len(stale) == 1 else 'ies are'} stale (fixed findings); "
            "run --update-baseline to prune",
            file=sys.stderr,
        )
    if new:
        print(
            f"cbde_sema: {len(new)} NEW finding(s) not in the baseline "
            f"({len(findings)} total, {len(findings) - len(new)} baselined)",
            file=sys.stderr,
        )
        return 1
    print(f"cbde_sema: clean — {len(findings)} finding(s), all baselined")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
