"""Source model + token frontend for tools/analyze.

This module turns a C++ translation unit into the small fact base the
analysis passes (passes.py) consume:

  * atomic field declarations (owner class, member name, value type)
  * atomic accesses (member, operation, memory-order arguments)
  * operator-form atomic accesses (``counter++`` — implicitly seq_cst
    without a call to flag)
  * CAS/DCAS call sites (policy calls ``Dcas::dcas/dcas_view/cas``,
    ``compare_exchange_*`` on std::atomic, magazine notify points)
  * retry loops (unbounded loops containing a CAS site) with the
    failure-path facts pass 3 needs
  * structured annotations: DCD_SYNC / DCD_PROGRESS / DCD_LP

Two frontends can produce this model. The default token frontend below is
dependency-free: it masks comments/strings, tracks brace scopes to find
owners and enclosing functions, and walks balanced parens for call
arguments. clang_frontend.py builds the same model from libclang when the
python bindings and a compile_commands.json are available, and
cross-checks the token model against real AST semantics. Both must agree
on the tree (the analyze ctest label runs the token frontend; the CI
analyze job additionally runs the clang frontend).
"""

from __future__ import annotations

import dataclasses
import re

SOURCE_EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}

ATOMIC_OPS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "clear",
)
CAS_OPS = ("compare_exchange_weak", "compare_exchange_strong")
RMW_OPS = ("exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
           "fetch_xor", "test_and_set")

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "return", "sizeof", "alignas", "alignof", "static_assert",
                    "decltype", "assert", "requires"}


# --- masking (comments kept aside: the annotations live in them) -----------

def split_comments(text: str) -> tuple[str, list[tuple[int, str]]]:
    """Return (masked_code, comments).

    ``masked_code`` has comment and string-literal contents replaced by
    spaces (length- and newline-preserving, so offsets stay valid).
    ``comments`` is a list of (1-based start line, comment text) with the
    ``//`` / ``/*`` markers stripped.
    """
    out = list(text)
    comments: list[tuple[int, str]] = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, DQ, SQ = range(5)
    state = NORMAL
    com_start = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state, com_start = LINE, i + 2
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state, com_start = BLOCK, i + 2
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = DQ
                i += 1
                continue
            if c == "'":
                state = SQ
                i += 1
                continue
        elif state == LINE:
            if c == "\n":
                comments.append((line_of(text, com_start),
                                 text[com_start:i]))
                state = NORMAL
            else:
                out[i] = " "
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                comments.append((line_of(text, com_start),
                                 text[com_start:i]))
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in (DQ, SQ):
            quote = '"' if state == DQ else "'"
            if c == "\\" and nxt:
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        i += 1
    if state == LINE:
        comments.append((line_of(text, com_start), text[com_start:n]))
    return "".join(out), comments


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def line_text_at(lines: list[str], lineno: int) -> str:
    return lines[lineno - 1] if 0 < lineno <= len(lines) else ""


def balanced_args(masked: str, open_paren: int) -> str | None:
    depth = 0
    for j in range(open_paren, len(masked)):
        c = masked[j]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return masked[open_paren + 1:j]
    return None


def matching_brace(masked: str, open_brace: int) -> int | None:
    depth = 0
    for j in range(open_brace, len(masked)):
        c = masked[j]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return j
    return None


# --- scopes ----------------------------------------------------------------

@dataclasses.dataclass
class Scope:
    kind: str            # "namespace" | "class" | "func" | "control" | "other"
    name: str
    open_off: int
    close_off: int


def _classify_brace(masked: str, brace_off: int) -> tuple[str, str]:
    """Classify the ``{`` at brace_off from the header text before it."""
    start = max(masked.rfind(";", 0, brace_off), masked.rfind("{", 0, brace_off),
                masked.rfind("}", 0, brace_off)) + 1
    header = masked[start:brace_off]
    m = re.search(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*$", header)
    if m:
        return "namespace", m.group(1) or "<anon>"
    m = re.search(r"\b(class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
                  r"([A-Za-z_]\w*)", header)
    if m and "enum" not in header and ";" not in header:
        # `struct Foo : Bar` headers keep the name; `= {` initialisers and
        # trailing-return uses never match the keyword.
        return "class", m.group(2)
    if re.search(r"\benum\b", header):
        return "other", ""
    first_word = re.match(r"\s*([A-Za-z_]\w*)", header)
    if first_word and first_word.group(1) in CONTROL_KEYWORDS:
        return "control", first_word.group(1)
    m = re.search(r"([A-Za-z_]\w*)\s*\(", header)
    if m and m.group(1) not in CONTROL_KEYWORDS:
        return "func", m.group(1)
    return "other", ""


def build_scopes(masked: str) -> list[Scope]:
    scopes: list[Scope] = []
    stack: list[Scope] = []
    for i, c in enumerate(masked):
        if c == "{":
            kind, name = _classify_brace(masked, i)
            stack.append(Scope(kind, name, i, len(masked)))
        elif c == "}" and stack:
            s = stack.pop()
            s.close_off = i
            scopes.append(s)
    scopes.extend(stack)  # unbalanced tail (truncated file): keep open
    return scopes


def enclosing(scopes: list[Scope], off: int, kind: str) -> str | None:
    best: Scope | None = None
    for s in scopes:
        if s.kind == kind and s.open_off < off <= s.close_off:
            if best is None or s.open_off > best.open_off:
                best = s
    return best.name if best else None


# --- model -----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AtomicField:
    owner: str           # innermost enclosing class/struct ("" at namespace scope)
    name: str
    value_type: str
    path: str
    line: int


@dataclasses.dataclass(frozen=True)
class AtomicAccess:
    member: str          # trailing member/identifier before the op
    op: str              # one of ATOMIC_OPS
    orders: tuple[str, ...]   # memory_order tokens found in the call args
    implicit: bool       # no memory_order argument given
    path: str
    line: int


@dataclasses.dataclass(frozen=True)
class OperatorAccess:
    member: str
    token: str           # ++, --, +=, =, ...
    path: str
    line: int


@dataclasses.dataclass(frozen=True)
class SyncAnnotation:
    points: tuple[str, ...]
    path: str
    line: int            # line the annotation attaches to (the code line)


@dataclasses.dataclass(frozen=True)
class LpAnnotation:
    figure: str          # e.g. "Fig11"
    fig_lines: str       # e.g. "16-17"
    point: str           # sync point this LP rides on
    aux: bool            # structural/helping step, not an abstract LP
    inv: tuple[str, ...]  # RepAuditor clause names this DCAS must preserve
    condition: str
    path: str
    line: int            # code line the annotation attaches to


@dataclasses.dataclass(frozen=True)
class PublishAnnotation:
    """``// DCD_PUBLISHES(point, f1+f2+...)`` — licenses the publishing
    store on the attached line: the named sync point is where the tracked
    node escapes, and ``fields`` is the full roster of plain fields the
    author vouches are written before that store."""
    point: str
    fields: tuple[str, ...]
    path: str
    line: int            # code line the annotation attaches to


@dataclasses.dataclass(frozen=True)
class HbAnnotation:
    """``// DCD_HB(edge, role=release|acquire|fence-release|fence-acquire)``
    — declares the attached line as one endpoint of a rostered
    happens-before edge (``[[hb.edge]]`` in contracts.toml). ``fence-*``
    roles attach to ``std::atomic_thread_fence`` sites, plain roles to the
    release store / acquire load / RMW that carries the edge."""
    edge: str
    role: str
    path: str
    line: int            # code line the annotation attaches to


@dataclasses.dataclass(frozen=True)
class HbExempt:
    """``// DCD_HB_EXEMPT(why)`` — licenses an acquire-or-stronger load or
    a fence that deliberately belongs to no rostered edge (quiescent
    telemetry snapshots, heuristics)."""
    why: str
    path: str
    line: int


@dataclasses.dataclass(frozen=True)
class FenceSite:
    """A ``std::atomic_thread_fence`` call — the token model's newest
    first-class citizen (pass 9 proves the SC-fence Dekker edges)."""
    order: str           # memory_order token ("seq_cst", "release", ...)
    function: str        # best-effort enclosing function name
    path: str
    off: int             # offset in the masked text
    line: int


@dataclasses.dataclass(frozen=True)
class CasSite:
    form: str            # "dcas" | "dcas_view" | "cas" | "std_cas" | "notify"
    callee: str          # e.g. "Dcas::dcas", "compare_exchange_weak", point name
    function: str        # best-effort enclosing function name
    path: str
    line: int


@dataclasses.dataclass
class RetryLoop:
    header: str          # "for(;;)" | "while(true)" | "while(cond)" | "do-while"
    path: str
    line: int
    body_span: tuple[int, int]          # offsets in masked text
    cas_lines: tuple[int, ...]          # CAS sites inside the body/condition
    progress_offsets: tuple[int, ...]   # progress-token hits inside the body
    continue_offsets: tuple[int, ...]
    tail_has_progress: bool             # last top-level stmt has a progress token
    justified: str | None               # DCD_PROGRESS reason, if annotated


@dataclasses.dataclass(frozen=True)
class NodeDeref:
    var: str             # tracked local/parameter name ("" for cast-exprs)
    off: int             # offset in the masked text
    line: int


@dataclasses.dataclass
class FuncModel:
    """Per-function facts for the guard pass (pass 5).

    ``guard_spans`` are (site_off, cover_end_off) pairs: a guard object
    protects from its declaration to the close of the innermost brace
    scope containing it (C++ scoped-destructor semantics).
    ``node_vars`` maps tracked pool-node locals/parameters to whether
    every one of their initialisers is an LFRC acquisition (which carries
    its own protection).
    """
    name: str
    path: str
    line: int            # first line of the definition header
    open_line: int       # line of the body's `{`
    header_off: int
    open_off: int
    close_off: int
    requires_guard: str | None = None    # DCD_REQUIRES_GUARD note
    exempt: str | None = None            # DCD_GUARD_EXEMPT why
    guard_spans: tuple[tuple[int, int], ...] = ()
    guard_lines: tuple[int, ...] = ()
    node_vars: dict[str, bool] = dataclasses.field(default_factory=dict)
    derefs: tuple[NodeDeref, ...] = ()
    returns: tuple[NodeDeref, ...] = ()
    calls: tuple[tuple[str, int, int], ...] = ()   # (callee, off, line)


@dataclasses.dataclass
class FileModel:
    path: str
    fields: list[AtomicField] = dataclasses.field(default_factory=list)
    accesses: list[AtomicAccess] = dataclasses.field(default_factory=list)
    operator_accesses: list[OperatorAccess] = dataclasses.field(
        default_factory=list)
    cas_sites: list[CasSite] = dataclasses.field(default_factory=list)
    loops: list[RetryLoop] = dataclasses.field(default_factory=list)
    syncs: list[SyncAnnotation] = dataclasses.field(default_factory=list)
    lps: list[LpAnnotation] = dataclasses.field(default_factory=list)
    publishes: list[PublishAnnotation] = dataclasses.field(
        default_factory=list)
    hbs: list[HbAnnotation] = dataclasses.field(default_factory=list)
    hb_exempts: list[HbExempt] = dataclasses.field(default_factory=list)
    fences: list[FenceSite] = dataclasses.field(default_factory=list)
    lines: list[str] = dataclasses.field(default_factory=list)
    funcs: list[FuncModel] = dataclasses.field(default_factory=list)
    masked: str = ""
    scopes: list[Scope] = dataclasses.field(default_factory=list)


# --- annotation grammar ----------------------------------------------------
#
#   // DCD_SYNC(point[|point...])
#   // DCD_PROGRESS(free-text reason)
#   // DCD_LP(FigN:lines, sync.point[, aux], inv=clause[+clause...], "cond")
#
# An annotation attaches to the next code line at most ATTACH_WINDOW lines
# below it (or to its own line when trailing a statement).

ATTACH_WINDOW = 4

SYNC_RE = re.compile(r"DCD_SYNC\(\s*([a-z_.|\-\s]+?)\s*\)")
PROGRESS_RE = re.compile(r"DCD_PROGRESS\(\s*([^)]*?)\s*\)")
PUBLISHES_RE = re.compile(
    r"DCD_PUBLISHES\(\s*(?P<point>[a-z_.\-]+)\s*,\s*"
    r"(?P<fields>[A-Za-z_]\w*(?:\s*\+\s*[A-Za-z_]\w*)*)\s*\)")
LP_RE = re.compile(
    r"DCD_LP\(\s*"
    r"(?P<fig>[A-Za-z]\w*):(?P<lines>[\w\-,]+)\s*,\s*"
    r"(?P<point>[a-z_.\-]+)\s*,\s*"
    r"(?:(?P<aux>aux)\s*,\s*)?"
    r"inv=(?P<inv>[a-z_.+]+)\s*,\s*"
    r'"(?P<cond>[^"]*)"\s*\)')
HB_RE = re.compile(
    r"DCD_HB\(\s*(?P<edge>[a-z0-9_.\-]+)\s*,\s*"
    r"role=(?P<role>release|acquire|fence-release|fence-acquire)\s*\)")
HB_EXEMPT_RE = re.compile(r"DCD_HB_EXEMPT\(\s*([^)]+?)\s*\)")


def _attach_line(code_lines: list[str], comment_line: int,
                 comment_count: int) -> int:
    """First non-blank, non-comment-only code line after the annotation."""
    ln = comment_line + comment_count
    while ln <= len(code_lines):
        stripped = code_lines[ln - 1].strip()
        if stripped and not stripped.startswith("//"):
            return ln
        if ln - comment_line > ATTACH_WINDOW + comment_count:
            break
        ln += 1
    return comment_line


def _joined_comment_blocks(
        comments: list[tuple[int, str]],
        code_lines: list[str]) -> list[tuple[int, int, str, bool]]:
    """Merge consecutive //-comment lines into (start, nlines, text, trailing).

    A trailing comment (code before the // on its line) is always a block of
    its own and never merges with neighbouring full-line comments: it belongs
    to its statement, while an adjacent full-line comment starts (or
    continues) a separate leading block.
    """
    blocks: list[tuple[int, int, str, bool]] = []
    for ln, txt in comments:
        own = code_lines[ln - 1] if ln <= len(code_lines) else ""
        trailing = bool(own.split("//")[0].strip())
        if (not trailing and blocks and not blocks[-1][3]
                and ln == blocks[-1][0] + blocks[-1][1]):
            start, cnt, acc, _ = blocks[-1]
            blocks[-1] = (start, cnt + 1, acc + " " + txt.strip(), False)
        else:
            blocks.append((ln, 1, txt.strip(), trailing))
    return blocks


def parse_annotations(path: str, comments: list[tuple[int, str]],
                      code_lines: list[str]
                      ) -> tuple[list[SyncAnnotation], list[LpAnnotation],
                                 dict[int, str], list[PublishAnnotation],
                                 list[HbAnnotation], list[HbExempt],
                                 list[tuple[int, str]]]:
    """Returns (syncs, lps, progress-by-attached-line, publishes, hbs,
    hb_exempts, malformed)."""
    syncs: list[SyncAnnotation] = []
    lps: list[LpAnnotation] = []
    progress: dict[int, str] = {}
    publishes: list[PublishAnnotation] = []
    hbs: list[HbAnnotation] = []
    hb_exempts: list[HbExempt] = []
    malformed: list[tuple[int, str]] = []
    for start, nlines, text, trailing in _joined_comment_blocks(comments,
                                                                code_lines):
        # Trailing comments attach to their own line; leading ones to the
        # next code line.
        attach = start if trailing else _attach_line(code_lines, start, nlines)
        for m in SYNC_RE.finditer(text):
            points = tuple(p.strip() for p in m.group(1).split("|")
                           if p.strip())
            if points:
                syncs.append(SyncAnnotation(points, path, attach))
            else:
                malformed.append((start, "DCD_SYNC with no points"))
        for m in LP_RE.finditer(text):
            inv = tuple(c for c in m.group("inv").split("+") if c)
            lps.append(LpAnnotation(
                m.group("fig"), m.group("lines"), m.group("point"),
                m.group("aux") is not None, inv, m.group("cond"),
                path, attach))
        for m in PROGRESS_RE.finditer(text):
            progress[attach] = m.group(1)
        for m in PUBLISHES_RE.finditer(text):
            fields = tuple(f.strip() for f in m.group("fields").split("+")
                           if f.strip())
            publishes.append(PublishAnnotation(m.group("point"), fields,
                                               path, attach))
        # Any DCD_LP( that did not parse with the full grammar is malformed.
        for m in re.finditer(r"DCD_LP\(", text):
            if not any(lp_m.start() == m.start()
                       for lp_m in LP_RE.finditer(text)):
                malformed.append((start, "DCD_LP does not match the grammar "
                                  "DCD_LP(FigN:lines, point[, aux], "
                                  'inv=a+b, "cond")'))
        # Likewise a DCD_PUBLISHES( that did not parse.
        for m in re.finditer(r"DCD_PUBLISHES\(", text):
            if not any(pm.start() == m.start()
                       for pm in PUBLISHES_RE.finditer(text)):
                malformed.append((start, "DCD_PUBLISHES does not match the "
                                  "grammar DCD_PUBLISHES(point, f1+f2)"))
        for m in HB_RE.finditer(text):
            hbs.append(HbAnnotation(m.group("edge"), m.group("role"),
                                    path, attach))
        for m in HB_EXEMPT_RE.finditer(text):
            hb_exempts.append(HbExempt(m.group(1), path, attach))
        # A DCD_HB( / DCD_HB_EXEMPT( failing the full grammar is malformed,
        # never silently dropped. (DCD_HB\( cannot match the _EXEMPT form:
        # the next char there is '_', not '('.)
        for m in re.finditer(r"DCD_HB\(", text):
            if not any(hm.start() == m.start()
                       for hm in HB_RE.finditer(text)):
                malformed.append((start, "DCD_HB does not match the grammar "
                                  "DCD_HB(edge, role=release|acquire|"
                                  "fence-release|fence-acquire)"))
        for m in re.finditer(r"DCD_HB_EXEMPT\(", text):
            if not any(hm.start() == m.start()
                       for hm in HB_EXEMPT_RE.finditer(text)):
                malformed.append((start,
                                  "DCD_HB_EXEMPT with no justification"))
    return syncs, lps, progress, publishes, hbs, hb_exempts, malformed


# --- extraction ------------------------------------------------------------

_ATOMIC_DECL_RE = re.compile(
    r"(?:static\s+|inline\s+|mutable\s+|constexpr\s+)*"
    r"(?:util::CacheAligned<\s*)?"
    r"std::atomic<(?P<vt>[^;{}]+?)>\s*>?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:\[[^\]]*\]\s*)?"
    r"(?:[;={]|\{)")

_ATOMIC_FLAG_DECL_RE = re.compile(
    r"(?:static\s+|inline\s+)*std::atomic_flag\s+(?P<name>[A-Za-z_]\w*)")

# Heap-allocated atomic arrays: std::unique_ptr<std::atomic<T>[]> cells_;
_ATOMIC_ARRAY_DECL_RE = re.compile(
    r"std::unique_ptr<\s*std::atomic<(?P<vt>[^;{}]+?)>\s*\[\]\s*>\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;={]")

_ACCESS_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(ATOMIC_OPS) + r")\s*(\()")

_ORDER_RE = re.compile(r"memory_order(?:::|_)(\w+)")

_POLICY_CALL_RE = re.compile(r"\b(?:Dcas|Inner)::(dcas_view|dcas|cas)\s*\(")

# Notify-form sync-point uses: the magazine hook names (reclaim cannot see
# chaos.hpp, so it duplicates the strings) and the executor's direct
# sync_point:: references (dcd_exec links dcd_dcas). Declarations in
# chaos.hpp itself are unqualified, so the qualified pattern skips them.
_NOTIFY_RE = re.compile(
    r"(?:magazine_sync::k(?P<mag>Refill|Flush)"
    r"|sync_point::kExec(?P<exec>Park|Steal|Inject))\b")

# CamelCase constant suffix -> roster point name for the exec group.
_EXEC_NOTIFY_POINTS = {
    "Park": "exec.park",
    "Steal": "exec.steal",
    "Inject": "exec.inject",
}

_LOOP_RE = re.compile(
    r"\b(?:(?P<forever>for\s*\(\s*;\s*;\s*\))"
    r"|(?P<wtrue>while\s*\(\s*true\s*\))"
    r"|(?P<while>while\s*\()"
    r"|(?P<do>do))\s*\{")


def _member_before(masked: str, dot_off: int) -> str:
    """Backwards scan from the ``.``/``->`` to the member identifier,
    skipping one balanced ``(...)``/``[...]`` group (calls, subscripts)."""
    j = dot_off - 1
    while j >= 0 and masked[j].isspace():
        j -= 1
    for close_c, open_c in ((")", "("), ("]", "[")):
        if j >= 0 and masked[j] == close_c:
            depth = 0
            while j >= 0:
                if masked[j] == close_c:
                    depth += 1
                elif masked[j] == open_c:
                    depth -= 1
                    if depth == 0:
                        j -= 1
                        break
                j -= 1
            while j >= 0 and masked[j].isspace():
                j -= 1
    end = j
    while j >= 0 and (masked[j].isalnum() or masked[j] == "_"):
        j -= 1
    return masked[j + 1:end + 1]


def _classify_op(op: str) -> str:
    if op in CAS_OPS:
        return "cas"
    if op == "load":
        return "load"
    if op in ("store", "clear"):
        return "store"
    return "rmw"


def extract_fields(path: str, masked: str,
                   scopes: list[Scope]) -> list[AtomicField]:
    fields = []
    for m in _ATOMIC_DECL_RE.finditer(masked):
        head = masked[max(0, m.start() - 24):m.start()]
        # References (`std::atomic<T>&`) are parameters / accessors, and
        # template arguments (`unique_ptr<std::atomic<T>[]>`) carry their
        # own declarator — both are skipped; the declaration we keep is the
        # storage itself.
        decl = masked[m.start():m.end()]
        if "&" in decl.split(">")[-2][-3:] if decl.count(">") >= 2 else False:
            continue
        if re.search(r">\s*&", decl):
            continue
        if head.rstrip().endswith(("<", ",", "(")):
            continue
        owner = enclosing(scopes, m.start(), "class") or ""
        fields.append(AtomicField(owner, m.group("name"),
                                  " ".join(m.group("vt").split()),
                                  path, line_of(masked, m.start())))
    for m in _ATOMIC_FLAG_DECL_RE.finditer(masked):
        owner = enclosing(scopes, m.start(), "class") or ""
        fields.append(AtomicField(owner, m.group("name"), "flag", path,
                                  line_of(masked, m.start())))
    for m in _ATOMIC_ARRAY_DECL_RE.finditer(masked):
        owner = enclosing(scopes, m.start(), "class") or ""
        fields.append(AtomicField(owner, m.group("name"),
                                  " ".join(m.group("vt").split()) + "[]",
                                  path, line_of(masked, m.start())))
    return fields


def _split_top_level(args: str) -> list[str]:
    # Angle brackets are NOT tracked: `->` and comparisons would unbalance
    # them, and template args with top-level commas don't occur in call
    # arguments in this tree.
    parts, depth, start = [], 0, 0
    for i, c in enumerate(args):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    tail = args[start:]
    if tail.strip() or parts:
        parts.append(tail)
    return parts


# Which argument positions carry the memory_order for each op. Orders are
# read only from those positions so a nested `x.load(acquire)` inside a
# store's value argument cannot masquerade as the store's own order.
_ORDER_ARG_POSITIONS = {
    "load": (0,), "test_and_set": (0,), "clear": (0,),
    "store": (1,), "exchange": (1,), "fetch_add": (1,), "fetch_sub": (1,),
    "fetch_and": (1,), "fetch_or": (1,), "fetch_xor": (1,),
    "compare_exchange_weak": (2, 3), "compare_exchange_strong": (2, 3),
}


def extract_accesses(path: str, masked: str,
                     flag_names: set[str]) -> list[AtomicAccess]:
    accesses = []
    for m in _ACCESS_RE.finditer(masked):
        op = m.group(1)
        args = balanced_args(masked, m.start(2))
        if args is None:
            continue
        member = _member_before(masked, m.start())
        if not member:
            continue
        if op in ("test_and_set", "clear") and member not in flag_names:
            # `.clear()` on containers shares a spelling with atomic_flag;
            # only members declared atomic in this file count.
            continue
        parts = _split_top_level(args)
        orders = []
        for pos in _ORDER_ARG_POSITIONS[op]:
            if pos < len(parts):
                found = _ORDER_RE.findall(parts[pos])
                if found:
                    orders.append(found[0])
        accesses.append(AtomicAccess(member, op, tuple(orders), not orders,
                                     path, line_of(masked, m.start())))
    return accesses


def extract_operator_accesses(path: str, masked: str,
                              fields: list[AtomicField],
                              scopes: list[Scope]) -> list[OperatorAccess]:
    """Implicitly-seq_cst operator uses of declared atomic members.

    Only bare-name uses inside the declaring class (or of namespace-scope
    atomics) are matched: a dotted use (`obj.name += 1`) cannot be
    attributed to the atomic without type information, and this codebase
    has plain fields/locals sharing names with atomics (`hits`, `next`,
    `lo`). The clang frontend covers the dotted forms in CI.
    """
    out = []
    if not fields:
        return out
    by_name: dict[str, list[AtomicField]] = {}
    for f in fields:
        by_name.setdefault(f.name, []).append(f)
    names = "|".join(sorted(re.escape(n) for n in by_name))
    post = re.compile(r"\b(" + names + r")\s*(\+\+|--|\+=|-=|\|=|&=|\^=|=(?![=]))")
    pre = re.compile(r"(\+\+|--)\s*(" + names + r")\b")
    decl_lines = {f.line for f in fields}

    def _bare_member(name: str, off: int) -> bool:
        j = off - 1
        while j >= 0 and masked[j].isspace():
            j -= 1
        if j >= 0 and (masked[j].isalnum()
                       or masked[j] in "_.>*&,<-"):
            return False  # declaration, dotted access, or template noise
        owner = enclosing(scopes, off, "class") or ""
        return any(f.owner == owner or f.owner == ""
                   for f in by_name[name])

    for m in post.finditer(masked):
        ln = line_of(masked, m.start())
        if ln in decl_lines:
            continue  # brace/equals initialisation at the declaration
        if _bare_member(m.group(1), m.start()):
            out.append(OperatorAccess(m.group(1), m.group(2), path, ln))
    for m in pre.finditer(masked):
        if _bare_member(m.group(2), m.start(2)):
            out.append(OperatorAccess(m.group(2), m.group(1), path,
                                      line_of(masked, m.start())))
    return out


def extract_cas_sites(path: str, masked: str,
                      scopes: list[Scope]) -> list[CasSite]:
    sites = []
    for m in _POLICY_CALL_RE.finditer(masked):
        form = m.group(1)
        func = enclosing(scopes, m.start(), "func") or ""
        sites.append(CasSite(form, masked[m.start():m.end() - 1].rstrip("( "),
                             func, path, line_of(masked, m.start())))
    for m in re.finditer(r"(?:\.|->)\s*(compare_exchange_weak|"
                         r"compare_exchange_strong)\s*\(", masked):
        func = enclosing(scopes, m.start(), "func") or ""
        sites.append(CasSite("std_cas", m.group(1), func, path,
                             line_of(masked, m.start())))
    return sites


_FENCE_RE = re.compile(
    r"\b(?:std::)?atomic_thread_fence\s*\(\s*"
    r"std::memory_order(?:::|_)(\w+)\s*\)")


def extract_fences(path: str, masked: str,
                   scopes: list[Scope]) -> list[FenceSite]:
    """Every ``std::atomic_thread_fence`` call, with its offset kept so the
    hb pass can check the fence+adjacent-access shape inside the enclosing
    function."""
    out = []
    for m in _FENCE_RE.finditer(masked):
        func = enclosing(scopes, m.start(), "func") or ""
        out.append(FenceSite(m.group(1), func, path, m.start(),
                             line_of(masked, m.start())))
    return out


def extract_notify_sites(path: str, text: str,
                         scopes: list[Scope]) -> list[CasSite]:
    """Uses (not declarations) of the magazine sync-point names."""
    sites = []
    for m in _NOTIFY_RE.finditer(text):
        head = text[max(0, m.start() - 80):m.start()]
        if re.search(r"constexpr\s+const\s+char\*\s+$", head.rstrip() + " "):
            continue
        if "kRefill =" in text[m.start():m.end() + 3] or \
           "kFlush =" in text[m.start():m.end() + 3]:
            continue
        if m.group("mag") is not None:
            point = ("magazine.refill" if m.group("mag") == "Refill"
                     else "magazine.flush")
        else:
            point = _EXEC_NOTIFY_POINTS[m.group("exec")]
        func = enclosing(scopes, m.start(), "func") or ""
        sites.append(CasSite("notify", point, func, path,
                             line_of(text, m.start())))
    return sites


def extract_loops(path: str, masked: str, cas_sites: list[CasSite],
                  progress_tokens: list[str],
                  progress_by_line: dict[int, str]) -> list[RetryLoop]:
    loops = []
    cas_line_set = {s.line for s in cas_sites if s.form != "notify"}
    for m in _LOOP_RE.finditer(masked):
        open_brace = masked.index("{", m.end() - 1)
        close = matching_brace(masked, open_brace)
        if close is None:
            continue
        if m.group("while") and not (m.group("forever") or m.group("wtrue")):
            # General while: the condition itself may hold the CAS.
            cond = balanced_args(masked, m.end() - 2)
            header = "while(cond)"
        elif m.group("do"):
            tail = masked[close:close + 200]
            wm = re.match(r"\}\s*while\s*(\()", tail)
            if not wm:
                continue
            cond = balanced_args(masked, close + wm.start(1))
            header = "do-while"
        else:
            cond = None
            header = "for(;;)" if m.group("forever") else "while(true)"
        body = masked[open_brace + 1:close]
        body_first_line = line_of(masked, open_brace)
        body_last_line = line_of(masked, close)
        cas_lines = tuple(ln for ln in sorted(cas_line_set)
                          if body_first_line <= ln <= body_last_line)
        cond_has_cas = bool(cond) and ("compare_exchange" in cond
                                       or "Dcas::" in cond
                                       or "Inner::" in cond)
        if not cas_lines and not cond_has_cas:
            continue
        if header == "while(cond)" and not cond_has_cas:
            # A bounded-looking walk (e.g. list traversal) that happens to
            # contain a CAS still retries on failure; keep it.
            pass
        prog_offsets = []
        for tok in progress_tokens:
            start = 0
            while True:
                k = body.find(tok, start)
                if k < 0:
                    break
                prog_offsets.append(open_brace + 1 + k)
                start = k + 1
        cont_offsets = [open_brace + 1 + c.start()
                        for c in re.finditer(r"\bcontinue\s*;", body)]
        tail_has_progress = _tail_statement_has_progress(body,
                                                         progress_tokens)
        loop_line = line_of(masked, m.start())
        justified = None
        for probe in range(loop_line, max(0, loop_line - ATTACH_WINDOW - 1),
                           -1):
            if probe in progress_by_line:
                justified = progress_by_line[probe]
                break
        loops.append(RetryLoop(header, path, loop_line,
                               (open_brace + 1, close), cas_lines,
                               tuple(prog_offsets), tuple(cont_offsets),
                               tail_has_progress, justified))
    return loops


def _tail_statement_has_progress(body: str,
                                 progress_tokens: list[str]) -> bool:
    """True when the loop body's final top-level statement contains a
    progress token (the fall-through path of a failed CAS iteration)."""
    depth = 0
    stmt_start = 0
    last_stmt = ""
    for i, c in enumerate(body):
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
            if depth == 0 and c == "}":
                stmt_start = i + 1
        elif c == ";" and depth == 0:
            last_stmt = body[stmt_start:i + 1]
            stmt_start = i + 1
    if not last_stmt.strip():
        return False
    return any(tok in last_stmt for tok in progress_tokens)


# --- guard facts (passes 5/6) ----------------------------------------------
#
#   // DCD_REQUIRES_GUARD(note)  — the function touches pool nodes and the
#                                  CALLER must hold a live protection scope
#   // DCD_GUARD_EXEMPT(why)     — justified exception (single-threaded
#                                  teardown, type-stable slab, ...)
#
# Both attach to the function definition they precede (same comment-block
# machinery as DCD_SYNC); empty text or an annotation that attaches to no
# function is malformed.

REQUIRES_GUARD_RE = re.compile(r"DCD_REQUIRES_GUARD\(\s*([^)]*?)\s*\)")
GUARD_EXEMPT_RE = re.compile(r"DCD_GUARD_EXEMPT\(\s*([^)]*?)\s*\)")

# `Reclaim::Guard guard(domain)` / `EbrDomain::Guard g{dom}`: a named guard
# object declaration. Requiring a variable name plus `(`/`{` keeps
# `class Guard {`, `explicit Guard(...)`, deleted copy ctors and concept
# uses (`typename R::Guard;`) from matching.
GUARD_SITE_RE = re.compile(r"\b(?:[A-Za-z_]\w*::)*Guard\s+[A-Za-z_]\w*\s*[({]")

_CAST_KEYWORDS = {"static_cast", "reinterpret_cast", "const_cast",
                  "dynamic_cast", "new", "delete", "noexcept", "throw"}


def _func_header_start(masked: str, open_off: int) -> int:
    return max(masked.rfind(";", 0, open_off),
               masked.rfind("{", 0, open_off),
               masked.rfind("}", 0, open_off)) + 1


def _has_token(text: str, tokens: list[str]) -> bool:
    return any(tok in text for tok in tokens)


def _find_token_b(text: str, tok: str, start: int = 0) -> int:
    """`str.find` with a word boundary before word-leading tokens, so the
    configured `Dcas::dcas(` cannot match inside `GlobalLockDcas::dcas(`
    (a policy's own definition or qualified call)."""
    while True:
        k = text.find(tok, start)
        if k < 0:
            return -1
        if not (tok[0].isalnum() or tok[0] == "_") or k == 0 \
                or not (text[k - 1].isalnum() or text[k - 1] == "_"):
            return k
        start = k + 1


def _has_token_b(text: str, tokens: list[str]) -> bool:
    return any(_find_token_b(text, tok) >= 0 for tok in tokens)


def extract_funcs(path: str, masked: str, scopes: list[Scope],
                  guard_cfg: dict | None) -> list[FuncModel]:
    """Function spans + guard sites + tracked node vars/derefs/calls."""
    cfg = guard_cfg or {}
    node_types = list(cfg.get("node_types", []))
    lfrc_tokens = list(cfg.get("lfrc_tokens", []))
    func_scopes = [s for s in scopes if s.kind == "func"]
    funcs: list[FuncModel] = []
    for s in func_scopes:
        hstart = _func_header_start(masked, s.open_off)
        first = re.search(r"\S", masked[hstart:s.open_off])
        decl_off = hstart + first.start() if first else s.open_off
        fn = FuncModel(name=s.name, path=path,
                       line=line_of(masked, decl_off),
                       open_line=line_of(masked, s.open_off),
                       header_off=hstart, open_off=s.open_off,
                       close_off=s.close_off)

        # A guard protects until the close of the innermost brace scope
        # containing its declaration.
        spans, glines = [], []
        for gm in GUARD_SITE_RE.finditer(masked, s.open_off, s.close_off):
            off = gm.start()
            cover_end = min((t.close_off for t in scopes
                             if t.open_off < off <= t.close_off),
                            default=s.close_off)
            spans.append((off, cover_end))
            glines.append(line_of(masked, off))
        fn.guard_spans, fn.guard_lines = tuple(spans), tuple(glines)

        span = masked[hstart:s.close_off]
        base = hstart

        def add_var(name: str, lfrc: bool) -> None:
            # A var counts as LFRC-protected only if EVERY declaration
            # that introduces it in this function is an LFRC acquisition.
            fn.node_vars[name] = fn.node_vars.get(name, True) and lfrc

        for nt in node_types:
            decl_re = re.compile(
                rf"\b(?:const\s+)?{nt}\s*\*\s*(?:const\s+)?"
                r"([A-Za-z_]\w*)\s*(=|[,):;])")
            for dm in decl_re.finditer(span):
                if dm.group(2) == "=":
                    semi = span.find(";", dm.end())
                    init = span[dm.end():semi if semi >= 0 else len(span)]
                    add_var(dm.group(1), _has_token(init, lfrc_tokens))
                else:
                    add_var(dm.group(1), False)
        if node_types:
            for dm in re.finditer(r"\bauto\s*\*\s*(?:const\s+)?"
                                  r"([A-Za-z_]\w*)\s*=", span):
                semi = span.find(";", dm.end())
                init = span[dm.end():semi if semi >= 0 else len(span)]
                if any(re.search(rf"\b{nt}\b", init) for nt in node_types):
                    add_var(dm.group(1), _has_token(init, lfrc_tokens))

        derefs: list[NodeDeref] = []
        for name in fn.node_vars:
            for dm in re.finditer(rf"\b{re.escape(name)}\b\s*->", span):
                off = base + dm.start()
                if off <= s.open_off:
                    continue  # default-argument noise in the header
                derefs.append(NodeDeref(name, off, line_of(masked, off)))
        # Cast-expression derefs: static_cast<Node*>(p)->field
        for nt in node_types:
            cast_re = re.compile(
                rf"\b(?:static_cast|reinterpret_cast)\s*<\s*(?:const\s+)?"
                rf"{nt}\s*\*\s*>\s*\(")
            for cm2 in cast_re.finditer(span):
                args = balanced_args(span, cm2.end() - 1)
                if args is None:
                    continue
                close = cm2.end() + len(args)  # offset of the `)`
                if span[close + 1:close + 8].lstrip().startswith("->"):
                    off = base + cm2.start()
                    derefs.append(NodeDeref("", off, line_of(masked, off)))
        fn.derefs = tuple(sorted(derefs, key=lambda d: d.off))

        returns: list[NodeDeref] = []
        for name in fn.node_vars:
            for rm in re.finditer(rf"\breturn\s+{re.escape(name)}\s*;", span):
                off = base + rm.start()
                returns.append(NodeDeref(name, off, line_of(masked, off)))
        fn.returns = tuple(sorted(returns, key=lambda d: d.off))

        # Call sites in the body, excluding nested function scopes
        # (lambdas) so each call is attributed exactly once.
        nested = [t for t in func_scopes
                  if t is not s and s.open_off < t.open_off
                  and t.close_off <= s.close_off]
        calls: list[tuple[str, int, int]] = []
        for cm2 in re.finditer(r"\b([A-Za-z_]\w*)\s*\(",
                               masked[s.open_off:s.close_off]):
            off = s.open_off + cm2.start()
            callee = cm2.group(1)
            if callee in CONTROL_KEYWORDS or callee in _CAST_KEYWORDS:
                continue
            if any(t.open_off < off <= t.close_off for t in nested):
                continue
            calls.append((callee, off, line_of(masked, off)))
        fn.calls = tuple(calls)
        funcs.append(fn)
    return funcs


def attach_guard_annotations(path: str, comments: list[tuple[int, str]],
                             code_lines: list[str],
                             funcs: list[FuncModel]
                             ) -> list[tuple[int, str]]:
    """Attach DCD_REQUIRES_GUARD / DCD_GUARD_EXEMPT to their functions.

    Returns malformed-annotation diagnostics (empty text, token that does
    not parse, or an annotation that attaches to no function definition).
    """
    malformed: list[tuple[int, str]] = []

    def func_at(line: int) -> FuncModel | None:
        best = None
        for fn in funcs:
            if fn.line <= line <= fn.open_line:
                if best is None or fn.header_off > best.header_off:
                    best = fn
        return best

    for start, nlines, text, trailing in _joined_comment_blocks(comments,
                                                                code_lines):
        attach = start if trailing else _attach_line(code_lines, start,
                                                     nlines)
        hits: list[tuple[str, str, int]] = []
        for m in REQUIRES_GUARD_RE.finditer(text):
            hits.append(("requires", m.group(1), m.start()))
        for m in GUARD_EXEMPT_RE.finditer(text):
            hits.append(("exempt", m.group(1), m.start()))
        # A known guard token that did not parse (missing parens, runaway
        # text) must not vanish silently.
        for raw, rex in (("DCD_REQUIRES_GUARD", REQUIRES_GUARD_RE),
                         ("DCD_GUARD_EXEMPT", GUARD_EXEMPT_RE)):
            for m in re.finditer(re.escape(raw) + r"\b", text):
                if not any(pm.start() == m.start()
                           for pm in rex.finditer(text)):
                    malformed.append((start, f"{raw} does not match the "
                                      f"grammar {raw}(<text>)"))
        for kind, note, _ in hits:
            token = ("DCD_REQUIRES_GUARD" if kind == "requires"
                     else "DCD_GUARD_EXEMPT")
            if not note:
                malformed.append((start, f"{token} with empty justification"))
                continue
            fn = func_at(attach)
            if fn is None:
                malformed.append((start, f"{token} does not attach to a "
                                  "function definition"))
                continue
            if kind == "requires":
                fn.requires_guard = note
            else:
                fn.exempt = note
    return malformed


# --- publication facts (pass 7) --------------------------------------------
#
# A pool node is thread-private from its allocation site (an initialiser
# containing one of the configured alloc tokens, or a cast of an already
# tracked pointer) until the releasing CAS/DCAS whose argument list names
# it — paper footnote 7's "nodes are private until the publishing DCAS".
# The extraction below is intra-procedural and textual: writes and
# publishing stores are ordered by their offsets in the function body,
# which matches this tree's straight-line allocate/init/publish shape
# (retry loops re-run init textually *before* the DCAS).

@dataclasses.dataclass(frozen=True)
class AllocVar:
    name: str
    type: str            # declared pointee type ("auto"/"void" when unnamed)
    off: int             # offset of the declaration in the masked text
    line: int


@dataclasses.dataclass(frozen=True)
class FieldWrite:
    var: str
    field: str
    kind: str            # "store_init" | "plain"
    off: int
    line: int


@dataclasses.dataclass(frozen=True)
class PublishSite:
    var: str
    token: str           # the publish token that matched (e.g. "Dcas::dcas(")
    off: int
    line: int


_ALLOC_DECL_RE = re.compile(
    r"\b(?:const\s+)?([A-Za-z_]\w*)\s*\*\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*=")


def _decl_init(span: str, end: int) -> str:
    semi = span.find(";", end)
    return span[end:semi if semi >= 0 else len(span)]


def extract_alloc_flow(masked: str, fn: FuncModel,
                       alloc_tokens: list[str], publish_tokens: list[str]
                       ) -> tuple[list[AllocVar], list[FieldWrite],
                                  list[PublishSite]]:
    """Tracked pool-node locals, their field writes, and publish sites."""
    span = masked[fn.header_off:fn.close_off]
    base = fn.header_off
    tracked: dict[str, AllocVar] = {}
    # Direct allocations, then a fixpoint over cast/alias chains
    # (`Node* n = static_cast<Node*>(raw);` tracks `n` when `raw` is).
    pending = True
    while pending:
        pending = False
        for dm in _ALLOC_DECL_RE.finditer(span):
            typ, name = dm.group(1), dm.group(2)
            if name in tracked:
                continue
            init = _decl_init(span, dm.end())
            hit = _has_token_b(init, alloc_tokens) or any(
                re.search(rf"\b{re.escape(t)}\b", init) for t in tracked)
            if hit:
                off = base + dm.start()
                tracked[name] = AllocVar(name, typ, off,
                                         line_of(masked, off))
                pending = True
    writes: list[FieldWrite] = []
    publishes: list[PublishSite] = []
    for name in tracked:
        for wm in re.finditer(
                rf"\bstore_init\s*\(\s*{re.escape(name)}\s*->\s*(\w+)", span):
            off = base + wm.start()
            writes.append(FieldWrite(name, wm.group(1), "store_init", off,
                                     line_of(masked, off)))
        for wm in re.finditer(
                rf"\b{re.escape(name)}\s*->\s*(\w+)\s*=(?![=])", span):
            off = base + wm.start()
            writes.append(FieldWrite(name, wm.group(1), "plain", off,
                                     line_of(masked, off)))
    for tok in publish_tokens:
        start = 0
        while True:
            k = _find_token_b(span, tok, start)
            if k < 0:
                break
            start = k + 1
            args = balanced_args(span, k + len(tok) - 1)
            if args is None:
                continue
            for name in tracked:
                if re.search(rf"\b{re.escape(name)}\b", args):
                    off = base + k
                    publishes.append(PublishSite(name, tok, off,
                                                 line_of(masked, off)))
    writes.sort(key=lambda w: w.off)
    publishes.sort(key=lambda p: p.off)
    return sorted(tracked.values(), key=lambda v: v.off), writes, publishes


# --- word-encoding facts (pass 8) -------------------------------------------
#
# Values loaded from contracted atomic words are tainted; a raw bit
# operator adjacent to a tainted occurrence — or inside the value
# arguments of a store/CAS call — is codec arithmetic that must live in a
# rostered helper. `&&`/`||`, address-of `&`, and template angle brackets
# are disambiguated below; shifts additionally require a literal or
# `kConstant`-style operand so template `>>` closes never match.

@dataclasses.dataclass(frozen=True)
class BitOpUse:
    var: str             # tainted variable ("" for store-argument hits)
    op: str              # "&" | "|" | "^" | "~" | "<<" | ">>"
    off: int             # offset in the masked text
    line: int


_TAINT_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:std::uint64_t|std::uint32_t|uint64_t|auto)\s+"
    r"([A-Za-z_]\w*)\s*=")


def _prev_nonspace(text: str, i: int) -> tuple[str, int]:
    j = i
    while j >= 0 and text[j].isspace():
        j -= 1
    return (text[j] if j >= 0 else "", j)


def _next_nonspace(text: str, i: int) -> tuple[str, int]:
    j = i
    while j < len(text) and text[j].isspace():
        j += 1
    return (text[j] if j < len(text) else "", j)


def _shift_operand_ok(text: str, i: int) -> bool:
    """Operand after a shift must look like codec arithmetic (a digit or a
    kConstant), not a template/stream artefact."""
    c, j = _next_nonspace(text, i)
    if c.isdigit() or c == "(":
        return True
    return bool(re.match(r"k[A-Z]", text[j:j + 2]))


def _bitop_before(text: str, start: int) -> str | None:
    c, j = _prev_nonspace(text, start - 1)
    if c == "~":
        return "~"
    if c == "^":
        return "^"
    if c in "&|":
        prev, _ = _prev_nonspace(text, j - 1)
        if prev == c:
            return None  # logical && / ||
        if c == "&" and prev not in ")]" and not (prev.isalnum()
                                                  or prev == "_"):
            return None  # unary address-of
        return c
    if c == "<" and j >= 1 and text[j - 1] == "<":
        prev, _ = _prev_nonspace(text, j - 2)
        if prev.isalnum() or prev in "_)]":
            return "<<"
    if c == ">" and j >= 1 and text[j - 1] == ">":
        prev, _ = _prev_nonspace(text, j - 2)
        if prev.isalnum() or prev in "_)]":
            return ">>"
    return None


def _bitop_after(text: str, end: int) -> str | None:
    c, j = _next_nonspace(text, end)
    if c == "^":
        return "^"
    if c in "&|":
        nxt, _ = _next_nonspace(text, j + 1)
        if nxt == c:
            return None  # logical && / ||
        return c
    two = text[j:j + 2]
    if two in ("<<", ">>") and _shift_operand_ok(text, j + 2):
        return two
    return None


def extract_word_flow(masked: str, fn: FuncModel,
                      load_tokens: list[str]) -> list[BitOpUse]:
    """Bit operators adjacent to word-valued locals loaded from atomics."""
    span = masked[fn.header_off:fn.close_off]
    base = fn.header_off
    tainted: set[str] = set()
    for dm in _TAINT_DECL_RE.finditer(span):
        if _has_token_b(_decl_init(span, dm.end()), load_tokens):
            tainted.add(dm.group(1))
    uses: list[BitOpUse] = []
    for name in tainted:
        for om in re.finditer(rf"\b{re.escape(name)}\b", span):
            op = (_bitop_before(span, om.start())
                  or _bitop_after(span, om.end()))
            if op:
                off = base + om.start()
                uses.append(BitOpUse(name, op, off, line_of(masked, off)))
    return sorted(uses, key=lambda u: u.off)


def extract_store_arg_bitops(masked: str, fn: FuncModel,
                             store_tokens: list[str]) -> list[BitOpUse]:
    """Bit operators inside the *value* arguments of word stores/CASes.

    The first argument of every store token is the target word (an
    lvalue, never codec arithmetic) and is skipped; every later argument
    is scanned."""
    span = masked[fn.header_off:fn.close_off]
    base = fn.header_off
    uses: list[BitOpUse] = []
    for tok in store_tokens:
        start = 0
        while True:
            k = _find_token_b(span, tok, start)
            if k < 0:
                break
            start = k + 1
            args = balanced_args(span, k + len(tok) - 1)
            if args is None:
                continue
            arg_base = k + len(tok)
            parts = _split_top_level(args)
            pos = 0
            for idx, part in enumerate(parts):
                if idx > 0:
                    for om in re.finditer(r"[A-Za-z0-9_)\]]", part):
                        op = _bitop_after(part, om.end())
                        if op:
                            off = base + arg_base + pos + om.start()
                            uses.append(BitOpUse("", op, off,
                                                 line_of(masked, off)))
                            break  # one finding per argument is enough
                pos += len(part) + 1
    return sorted(uses, key=lambda u: u.off)


# --- per-file driver -------------------------------------------------------

def build_file_model(path: str, text: str,
                     progress_tokens: list[str],
                     guard_cfg: dict | None = None
                     ) -> tuple[FileModel, list[tuple[int, str]]]:
    """Parse one file; returns (model, malformed-annotation diagnostics)."""
    masked, comments = split_comments(text)
    scopes = build_scopes(masked)
    lines = text.splitlines()
    model = FileModel(path=path, lines=lines, masked=masked, scopes=scopes)
    model.fields = extract_fields(path, masked, scopes)
    model.accesses = extract_accesses(path, masked,
                                      {f.name for f in model.fields})
    model.operator_accesses = extract_operator_accesses(
        path, masked, model.fields, scopes)
    model.cas_sites = extract_cas_sites(path, masked, scopes)
    model.cas_sites += extract_notify_sites(path, text, scopes)
    model.fences = extract_fences(path, masked, scopes)
    (syncs, lps, progress, publishes, hbs, hb_exempts,
     malformed) = parse_annotations(path, comments, lines)
    model.syncs, model.lps = syncs, lps
    model.publishes = publishes
    model.hbs, model.hb_exempts = hbs, hb_exempts
    model.loops = extract_loops(path, masked, model.cas_sites,
                                progress_tokens, progress)
    model.funcs = extract_funcs(path, masked, scopes, guard_cfg)
    malformed += attach_guard_annotations(path, comments, lines, model.funcs)
    return model, malformed


# --- rosters ---------------------------------------------------------------

SYNC_POINT_DECL_RE = re.compile(
    r'inline\s+constexpr\s+const\s+char\*\s+k\w+\s*=\s*"([a-z_.]+)"')

AUDIT_CLAUSE_RE = re.compile(r'fail\("([a-z_.]+)')


def parse_sync_roster(registry_text: str) -> set[str]:
    return set(SYNC_POINT_DECL_RE.findall(registry_text))


def parse_auditor_roster(auditor_text: str) -> set[str]:
    """RepAuditor clause names (base names, [..] diagnostics stripped)."""
    return set(AUDIT_CLAUSE_RE.findall(auditor_text))


# Scenario names assigned in src/mc/src/scenario.cpp. Dynamically built
# names (`"array-n" + std::to_string(n) + ...`) contribute only their
# literal prefix, which no [[hb.edge]] row should reference.
SCENARIO_NAME_RE = re.compile(r'\.name\s*=\s*"([a-z0-9.\-]+)"')


def parse_scenario_roster(scenario_text: str) -> set[str]:
    return set(SCENARIO_NAME_RE.findall(scenario_text))
