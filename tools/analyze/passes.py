"""The nine analysis passes over the cpp_model fact base.

Pass 1  contract     memory-order contract audit per atomic field; every
                     access names its order (implicit-seq-cst)
Pass 2  sync         sync-point completeness at every CAS/DCAS call site
Pass 3  progress     retry-loop progress obligations (failure-path edges)
Pass 4  lp           linearization-point proof map (DCD_LP coverage)
Pass 5  guard        reclamation-safety: every pool-node deref dominated by
                     a live guard / LFRC ref / caller-declared scope; no raw
                     new/delete where the pools own node lifetimes
Pass 6  shared-plain plain (non-atomic) access to shared-reachable fields
                     outside the happens-before licence contracts.toml claims
Pass 7  publication  safe publication: pool nodes stay thread-private from
                     allocation through field init to the publishing
                     CAS/DCAS, licensed by DCD_PUBLISHES(point, fields)
Pass 8  codec        word-encoding value flow: raw bit arithmetic on values
                     loaded from / stored to contracted atomic words must
                     live in the [codec]-rostered helpers, which are
                     themselves cross-checked against the compile-time
                     tag-disjointness audit; the reserved-bit constants
                     appear only in the layout and audit files
Pass 9  hb           happens-before edge prover: every [[hb.edge]] roster
                     row has DCD_HB-annotated release- and acquire-side
                     endpoints with sufficient orders (SC-fence shape for
                     fence edges), every acquire-or-stronger load and every
                     atomic_thread_fence is licensed by an edge or a
                     DCD_HB_EXEMPT, and every edge cross-references a chaos
                     sync point or mc scenario that exercises it

Plus the annotation-roster check (`unknown-annotation`): a DCD_* token
outside the known roster is a finding, so a typo in a load-bearing
annotation cannot vanish silently; and a DCD_NO_SANITIZE_* opt-out needs
an adjacent comment (`unjustified-nosanitize`).

Each pass takes the parsed per-file models plus the contracts.toml config
and returns Finding records. passes.py has no I/O besides reading the two
roster files named in the config; the driver (analyze.py) owns file
walking, suppression filtering, JSON output and exit codes.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import cpp_model as cm

RELEASING_WRITE = {"release", "acq_rel", "seq_cst"}
ACQUIRING_READ = {"acquire", "acq_rel", "seq_cst"}

ROLE_DEFAULTS = {
    # Monotonic statistics: no ordering is load-bearing; pairing is not a
    # contract obligation.
    "counter": dict(loads=["relaxed", "acquire"], stores=["relaxed"],
                    rmw=["relaxed", "acq_rel"], cas_success=["relaxed"],
                    cas_failure=["relaxed"], pairing="none", guards=False),
    # Test-and-set style locks: the acquiring RMW pairs with the release
    # store in unlock; everything the lock protects rides on that edge.
    # guards=False because the TTAS spin-read is deliberately relaxed —
    # only the exchange that ends the spin carries the acquire.
    "spinlock": dict(loads=["relaxed", "acquire"], stores=["release"],
                     rmw=["acquire", "acq_rel"],
                     cas_success=["acquire", "acq_rel"],
                     cas_failure=["relaxed", "acquire"],
                     pairing="internal", guards=False),
    # Single-word publication: writer releases initialised memory, readers
    # acquire before dereferencing.
    "publication": dict(loads=["acquire"], stores=["release"],
                        rmw=["acq_rel"], cas_success=["acq_rel", "release"],
                        cas_failure=["relaxed", "acquire"],
                        pairing="internal", guards=True),
}


@dataclasses.dataclass(frozen=True)
class Finding:
    pass_id: str
    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FieldContract:
    owner: str
    member: str
    file: str                 # path suffix filter, "" = any
    aliases: tuple[str, ...]
    loads: set[str]
    stores: set[str]
    rmw: set[str]
    cas_success: set[str]
    cas_failure: set[str]
    pairing: str              # "internal" | "none" | "external"
    guards: bool
    why: str

    @property
    def ident(self) -> str:
        return f"{self.owner}::{self.member}" if self.owner else self.member


def load_contracts(cfg: dict) -> list[FieldContract]:
    out = []
    for f in cfg.get("contract", {}).get("field", []):
        role = f.get("role", "custom")
        base = dict(ROLE_DEFAULTS.get(role, {}))
        merged = {**base, **{k: v for k, v in f.items()
                             if k not in ("owner", "member", "file",
                                          "aliases", "role", "why")}}
        out.append(FieldContract(
            owner=f.get("owner", ""),
            member=f["member"],
            file=f.get("file", ""),
            aliases=tuple(f.get("aliases", [])),
            loads=set(merged.get("loads", [])),
            stores=set(merged.get("stores", [])),
            rmw=set(merged.get("rmw", [])),
            cas_success=set(merged.get("cas_success", [])),
            cas_failure=set(merged.get("cas_failure",
                                       ["relaxed", "acquire", "seq_cst"])),
            pairing=merged.get("pairing", "internal"),
            guards=bool(merged.get("guards", False)),
            why=f.get("why", "")))
    return out


def _in_dirs(path: str, dirs: list[str]) -> bool:
    p = path.replace("\\", "/")
    return any(p.startswith(d.rstrip("/") + "/") or p == d for d in dirs)


def _snippet(model: cm.FileModel, line: int) -> str:
    return cm.line_text_at(model.lines, line).strip()[:160]


def _derived_failure(success: str) -> str:
    return {"acq_rel": "acquire", "release": "relaxed"}.get(success, success)


# --------------------------------------------------------------------------
# Pass 1: memory-order contract audit
# --------------------------------------------------------------------------

def _file_match(path: str, cfile: str) -> bool:
    """A row's `file` key names the declaring file; accesses from the
    sibling TU (ebr.cpp against ebr.hpp) match by stem."""
    if path.endswith(cfile):
        return True
    return (pathlib.PurePosixPath(path).stem
            == pathlib.PurePosixPath(cfile).stem)


def _resolve(contracts: list[FieldContract], member: str,
             path: str) -> list[FieldContract]:
    cands = [c for c in contracts
             if member == c.member or member in c.aliases]
    file_matched = [c for c in cands if c.file and _file_match(path, c.file)]
    if file_matched:
        return file_matched
    return [c for c in cands if not c.file]


def run_contract_pass(models: list[cm.FileModel],
                      cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    contracts = load_contracts(cfg)
    scan_dirs = cfg.get("contract", {}).get("scan_dirs", ["src"])
    scoped = [m for m in models if _in_dirs(m.path, scan_dirs)]

    # Every declared atomic must have a contract row.
    for model in scoped:
        for field in model.fields:
            if not _resolve(contracts, field.name, field.path):
                findings.append(Finding(
                    "contract", "uncontracted-atomic-field", field.path,
                    field.line,
                    f"std::atomic member '{field.owner}::{field.name}' "
                    f"({field.value_type}) has no row in contracts.toml",
                    _snippet(model, field.line)))

    # Per-access order check + per-field pairing aggregation.
    seen_writes: dict[str, set[str]] = {}
    seen_reads: dict[str, set[str]] = {}
    for model in scoped:
        for acc in model.accesses:
            if acc.implicit:
                findings.append(Finding(
                    "contract", "implicit-seq-cst", acc.path, acc.line,
                    f".{acc.op}() on '{acc.member}' names no "
                    "std::memory_order (implicit seq_cst, which a contract "
                    "row may allow); state the order you need and why",
                    _snippet(model, acc.line)))
            cands = _resolve(contracts, acc.member, acc.path)
            if not cands:
                findings.append(Finding(
                    "contract", "unresolved-atomic-access", acc.path,
                    acc.line,
                    f"atomic op .{acc.op}() on '{acc.member}' matches no "
                    "contract row (add member/alias or file key)",
                    _snippet(model, acc.line)))
                continue
            if len(cands) > 1 and len({frozenset(c.loads) | frozenset(c.stores)
                                       | frozenset(c.rmw)
                                       for c in cands}) > 1:
                findings.append(Finding(
                    "contract", "ambiguous-field", acc.path, acc.line,
                    f"'{acc.member}' matches {len(cands)} contract rows with "
                    "different order sets; add a file key to disambiguate",
                    _snippet(model, acc.line)))
                continue
            c = cands[0]
            kind = cm._classify_op(acc.op)
            orders = acc.orders if acc.orders else ("seq_cst",)
            if kind == "cas":
                success = orders[0]
                failure = (orders[1] if len(orders) > 1
                           else _derived_failure(success))
                if success not in c.cas_success:
                    findings.append(Finding(
                        "contract", "memory-order-contract", acc.path,
                        acc.line,
                        f"{c.ident}.{acc.op} success order '{success}' not in "
                        f"contract {sorted(c.cas_success)}",
                        _snippet(model, acc.line)))
                if failure not in c.cas_failure:
                    findings.append(Finding(
                        "contract", "memory-order-contract", acc.path,
                        acc.line,
                        f"{c.ident}.{acc.op} failure order '{failure}' not in "
                        f"contract {sorted(c.cas_failure)}",
                        _snippet(model, acc.line)))
                seen_writes.setdefault(c.ident, set()).add(success)
                seen_reads.setdefault(c.ident, set()).add(success)
                seen_reads.setdefault(c.ident, set()).add(failure)
            else:
                allowed = {"load": c.loads, "store": c.stores,
                           "rmw": c.rmw}[kind]
                order = orders[0]
                if order not in allowed:
                    findings.append(Finding(
                        "contract", "memory-order-contract", acc.path,
                        acc.line,
                        f"{c.ident}.{acc.op} order '{order}' not in contract "
                        f"{sorted(allowed)}",
                        _snippet(model, acc.line)))
                if kind in ("store", "rmw"):
                    seen_writes.setdefault(c.ident, set()).add(order)
                if kind in ("load", "rmw"):
                    seen_reads.setdefault(c.ident, set()).add(order)
                if (kind == "load" and order == "relaxed" and c.guards):
                    findings.append(Finding(
                        "contract", "relaxed-guard-load", acc.path, acc.line,
                        f"relaxed load of {c.ident}, which the contract marks "
                        "guards=true (its value licenses non-atomic access); "
                        "an acquire edge or a justification suppression is "
                        "required",
                        _snippet(model, acc.line)))
        for op in model.operator_accesses:
            cands = _resolve(contracts, op.member, op.path)
            ident = cands[0].ident if cands else op.member
            findings.append(Finding(
                "contract", "implicit-operator-access", op.path, op.line,
                f"operator '{op.token}' on atomic '{ident}' is an implicit "
                "seq_cst access invisible to the ordering contract; use an "
                "explicit .load/.store/.fetch_* with a memory_order",
                _snippet(model, op.line)))

    # Pairing: computed over the whole scanned tree so a release store in
    # one TU pairs with acquire loads in another.
    for c in contracts:
        if c.pairing != "internal":
            continue
        writes = seen_writes.get(c.ident, set())
        reads = seen_reads.get(c.ident, set())
        rel = writes & RELEASING_WRITE
        acq = reads & ACQUIRING_READ
        anchor = _contract_anchor(models, c)
        if rel and not acq:
            findings.append(Finding(
                "contract", "unpaired-release-store", anchor[0], anchor[1],
                f"{c.ident} has releasing writes ({sorted(rel)}) but no "
                "acquiring read anywhere in the scanned tree; the release "
                "edge synchronizes with nothing",
                anchor[2]))
        if acq and not rel:
            findings.append(Finding(
                "contract", "acquire-without-release", anchor[0], anchor[1],
                f"{c.ident} has acquiring reads ({sorted(acq)}) but no "
                "releasing write anywhere in the scanned tree; the acquire "
                "observes no release",
                anchor[2]))
    return findings


def _contract_anchor(models: list[cm.FileModel],
                     c: FieldContract) -> tuple[str, int, str]:
    for model in models:
        for field in model.fields:
            if field.name == c.member and (not c.file
                                           or field.path.endswith(c.file)):
                return field.path, field.line, _snippet(model, field.line)
    return c.file or "contracts.toml", 0, ""


# --------------------------------------------------------------------------
# Pass 2: sync-point completeness
# --------------------------------------------------------------------------

def run_sync_pass(models: list[cm.FileModel], cfg: dict,
                  roster: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    scfg = cfg.get("sync", {})
    scan_dirs = scfg.get("scan_dirs", [])
    pseudo = set(scfg.get("pseudo", {}).keys())
    claimed: dict[str, list[tuple[str, int]]] = {p: [] for p in roster}

    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        ann_by_line = {}
        for ann in model.syncs:
            ann_by_line.setdefault(ann.line, []).extend(ann.points)
        for site in model.cas_sites:
            if site.form == "notify":
                # The call names its point directly; it claims the roster
                # entry with no annotation needed — but the name must still
                # resolve: a notify against a point the registry does not
                # declare would silently never be armable.
                if site.callee not in roster and site.callee not in pseudo:
                    findings.append(Finding(
                        "sync", "unknown-sync-point", site.path, site.line,
                        f"notify-form sync point '{site.callee}' is neither "
                        "in the chaos.hpp roster nor a declared pseudo-point "
                        "in contracts.toml",
                        _snippet(model, site.line)))
                    continue
                claimed.setdefault(site.callee, []).append(
                    (site.path, site.line))
                continue
            points = ann_by_line.get(site.line, [])
            if not points:
                findings.append(Finding(
                    "sync", "unannotated-sync-site", site.path, site.line,
                    f"{site.callee}() in {site.function or '?'}() has no "
                    "DCD_SYNC annotation mapping it to a classified sync "
                    "point from chaos.hpp",
                    _snippet(model, site.line)))
                continue
            for p in points:
                if p in roster:
                    claimed[p].append((site.path, site.line))
                elif p not in pseudo:
                    findings.append(Finding(
                        "sync", "unknown-sync-point", site.path, site.line,
                        f"DCD_SYNC point '{p}' is neither in the chaos.hpp "
                        "roster nor a declared pseudo-point in contracts.toml",
                        _snippet(model, site.line)))
        # Annotations that attach to lines without any CAS site are stale.
        site_lines = {s.line for s in model.cas_sites}
        for ann in model.syncs:
            if ann.line not in site_lines:
                findings.append(Finding(
                    "sync", "orphan-sync-annotation", ann.path, ann.line,
                    f"DCD_SYNC({'|'.join(ann.points)}) attaches to a line "
                    "with no CAS/DCAS call site",
                    _snippet(model, ann.line)))

    for point, sites in sorted(claimed.items()):
        if point in roster and not sites:
            findings.append(Finding(
                "sync", "sync-roster-gap", scfg.get("registry", ""), 0,
                f"roster sync point '{point}' is claimed by no annotated "
                "call site: either dead registry entry or missing DCD_SYNC"))
    return findings


# --------------------------------------------------------------------------
# Pass 3: retry-loop progress obligations
# --------------------------------------------------------------------------

CONTINUE_GUARD_SPAN = 240  # chars of lookbehind for a guarded `continue`


def run_progress_pass(models: list[cm.FileModel],
                      cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    pcfg = cfg.get("progress", {})
    scan_dirs = pcfg.get("scan_dirs", [])
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        for loop in model.loops:
            if loop.justified is not None:
                continue
            if not loop.progress_offsets:
                findings.append(Finding(
                    "progress", "retry-loop-no-progress", loop.path,
                    loop.line,
                    f"{loop.header} retry loop around CAS sites at lines "
                    f"{list(loop.cas_lines)} reaches no backoff/elimination/"
                    "helping edge on its failure path; add one or justify "
                    "with DCD_PROGRESS(reason)",
                    _snippet(model, loop.line)))
                continue
            if not loop.tail_has_progress and loop.header in ("for(;;)",
                                                              "while(true)"):
                findings.append(Finding(
                    "progress", "retry-loop-fallthrough-no-progress",
                    loop.path, loop.line,
                    f"{loop.header} retry loop's fall-through path re-enters "
                    "the CAS without reaching a progress edge (last "
                    "statement has no backoff/elimination call)",
                    _snippet(model, loop.line)))
            for cont in loop.continue_offsets:
                guarded = any(cont - CONTINUE_GUARD_SPAN <= p < cont
                              for p in loop.progress_offsets)
                if not guarded:
                    findings.append(Finding(
                        "progress", "retry-loop-unguarded-continue",
                        loop.path, loop.line,
                        "a `continue` in this retry loop skips the loop tail "
                        "without first reaching a progress edge "
                        "(backoff/helping/elimination)",
                        _snippet(model, loop.line)))
                    break
    return findings


# --------------------------------------------------------------------------
# Pass 4: linearization-point proof map
# --------------------------------------------------------------------------

def run_lp_pass(models: list[cm.FileModel], cfg: dict, roster: set[str],
                clauses: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    lcfg = cfg.get("lp", {})
    scan_dirs = lcfg.get("scan_dirs", [])
    figures = set(lcfg.get("figures", []))
    pseudo = set(cfg.get("sync", {}).get("pseudo", {}).keys())
    covered_clauses: set[str] = set()

    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        site_lines = {s.line for s in model.cas_sites
                      if s.form != "notify"}
        lp_lines = {lp.line for lp in model.lps}
        for lp in model.lps:
            if lp.figure not in figures:
                findings.append(Finding(
                    "lp", "lp-unknown-figure", lp.path, lp.line,
                    f"DCD_LP figure '{lp.figure}' is not in the known set "
                    f"{sorted(figures)}",
                    _snippet(model, lp.line)))
            if lp.point not in roster and lp.point not in pseudo:
                findings.append(Finding(
                    "lp", "lp-unknown-point", lp.path, lp.line,
                    f"DCD_LP sync point '{lp.point}' is not in the chaos.hpp "
                    "roster",
                    _snippet(model, lp.line)))
            for clause in lp.inv:
                if clause not in clauses:
                    findings.append(Finding(
                        "lp", "lp-unknown-clause", lp.path, lp.line,
                        f"DCD_LP invariant clause '{clause}' is not a "
                        "RepAuditor clause (rep_auditor.cpp roster)",
                        _snippet(model, lp.line)))
                else:
                    covered_clauses.add(clause)
            if lp.line not in site_lines:
                findings.append(Finding(
                    "lp", "lp-unattached", lp.path, lp.line,
                    "DCD_LP annotation attaches to a line with no CAS/DCAS "
                    "call site",
                    _snippet(model, lp.line)))
        # Every annotated sync site in the LP scope must carry a proof
        # obligation — that is what makes the map complete.
        for site in model.cas_sites:
            if site.form == "notify":
                continue
            if site.line not in lp_lines:
                findings.append(Finding(
                    "lp", "lp-missing", site.path, site.line,
                    f"{site.callee}() in {site.function or '?'}() has no "
                    "DCD_LP proof-obligation annotation (every DCAS/CAS "
                    "site in src/deque must name its figure, invariant "
                    "clauses, and linearization condition)",
                    _snippet(model, site.line)))

    for clause in sorted(clauses - covered_clauses):
        findings.append(Finding(
            "lp", "lp-clause-roster-gap", lcfg.get("auditor", ""), 0,
            f"RepAuditor clause '{clause}' is preserved-by no DCD_LP "
            "annotation; the proof map does not discharge it"))
    return findings


# --------------------------------------------------------------------------
# Pass 5: guard-scope reclamation safety
# --------------------------------------------------------------------------
#
# The paper gives its algorithms "assuming garbage collection"; this repo
# discharges that assumption with EBR/LFRC. Pass 5 makes the discharge
# machine-checked: every dereference of a pool-allocated node must be
# dominated (within its function) by a live protection scope — a declared
# `Guard` object, an LFRC reference acquisition, or a caller-provided
# scope declared with DCD_REQUIRES_GUARD and propagated through the call
# graph. DCD_GUARD_EXEMPT(why) records the justified exceptions.

def guard_roster(models: list[cm.FileModel],
                 cfg: dict) -> dict[str, list[tuple[str, int, str]]]:
    """Functions whose callers must hold a guard: name -> [(path, line,
    note)]. Name-keyed on purpose: the roster is an interprocedural
    contract on the call spelling, not on overload resolution."""
    gcfg = cfg.get("guard", {})
    scan_dirs = gcfg.get("scan_dirs", [])
    roster: dict[str, list[tuple[str, int, str]]] = {}
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        for fn in model.funcs:
            if fn.requires_guard is not None:
                roster.setdefault(fn.name, []).append(
                    (model.path, fn.line, fn.requires_guard))
    return roster


_NEW_DELETE_RE = re.compile(r"\b(new|delete)\b")


def _raw_new_delete(models: list[cm.FileModel],
                    dirs: list[str]) -> list[Finding]:
    """`new`/`delete` expressions in the pool-owned directories: node
    lifetimes there belong to the pools and EBR grace periods. `= delete`
    declarations and preprocessor lines are not expressions."""
    findings: list[Finding] = []
    for model in models:
        if not _in_dirs(model.path, dirs):
            continue
        for m in _NEW_DELETE_RE.finditer(model.masked):
            if (m.group(1) == "delete"
                    and model.masked[:m.start()].rstrip().endswith("=")):
                continue
            line = cm.line_of(model.masked, m.start())
            if cm.line_text_at(model.lines, line).lstrip().startswith("#"):
                continue
            findings.append(Finding(
                "guard", "raw-new-delete", model.path, line,
                f"`{m.group(1)}` in a pool-owned path; node lifetimes here "
                "belong to the pools and EBR (grace periods, "
                "type-stability)",
                _snippet(model, line)))
    return findings


def run_guard_pass(models: list[cm.FileModel], cfg: dict) -> list[Finding]:
    gcfg = cfg.get("guard", {})
    findings = _raw_new_delete(models, gcfg.get("new_delete_dirs", []))
    if not gcfg.get("node_types"):
        return findings
    scan_dirs = gcfg.get("scan_dirs", [])
    roster = guard_roster(models, cfg)

    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        for fn in model.funcs:
            if fn.exempt is not None:
                continue

            def covered(off: int) -> bool:
                return (fn.requires_guard is not None
                        or any(s < off <= e for s, e in fn.guard_spans))

            for d in fn.derefs:
                if d.var and fn.node_vars.get(d.var, False):
                    continue  # LFRC acquisition carries its own protection
                if not covered(d.off):
                    what = (f"'{d.var}->'" if d.var
                            else "a cast-expression deref")
                    findings.append(Finding(
                        "guard", "unguarded-node-deref", model.path, d.line,
                        f"{what} in {fn.name}() dereferences a pool node "
                        "with no live protection scope: no Guard dominates "
                        "it, the value is not an LFRC acquisition, and the "
                        "function declares no DCD_REQUIRES_GUARD",
                        _snippet(model, d.line)))
            for r in fn.returns:
                if fn.node_vars.get(r.var, False):
                    continue  # an LFRC reference may outlive the scope
                if fn.requires_guard is None:
                    findings.append(Finding(
                        "guard", "guard-escape", model.path, r.line,
                        f"{fn.name}() returns raw pool-node pointer "
                        f"'{r.var}' beyond its guard scope; the protection "
                        "dies at return — declare DCD_REQUIRES_GUARD so the "
                        "caller's scope covers the escape, or hand out an "
                        "LFRC reference",
                        _snippet(model, r.line)))
            for callee, off, line in fn.calls:
                if callee in roster and not covered(off):
                    decl = roster[callee][0]
                    findings.append(Finding(
                        "guard", "unprotected-guarded-call", model.path,
                        line,
                        f"{fn.name}() calls {callee}() — declared "
                        f"DCD_REQUIRES_GUARD at {decl[0]}:{decl[1]} "
                        f"({decl[2]}) — without a live guard at the call "
                        "site and without declaring DCD_REQUIRES_GUARD "
                        "itself",
                        _snippet(model, line)))
    return findings


# --------------------------------------------------------------------------
# Pass 6: shared-plain-access race screen
# --------------------------------------------------------------------------
#
# Seeded from the [[shared.struct]] rows: plain (non-atomic) fields that
# are reachable from more than one thread, each with the happens-before
# licence the contracts table claims (owner functions, or a lock-protocol
# token that must appear in the accessing function). A plain access
# outside the licence is a static data-race screen — it catches what TSan
# only finds on exercised interleavings. Struct-definition drift (a new
# plain member, or a roster field that vanished) is a finding too.

_MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:public|private|protected|using|friend|static|struct|class|"
    r"enum|template|typedef)\b")
_MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?[A-Za-z_][\w:<>,*&\s]*?[*&]?\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;{}]*\})?;")


def _plain_members(model: cm.FileModel, owner: str) -> dict[str, int]:
    """Plain (non-atomic, non-function) data members of `owner`, parsed
    from its definition in `model`; name -> line."""
    m = re.search(rf"\b(?:struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?"
                  rf"{re.escape(owner)}\b[^;{{]*\{{",
                  model.masked)
    if m is None:
        return {}
    open_off = m.end() - 1
    close_off = cm.matching_brace(model.masked, open_off)
    if close_off is None:
        return {}
    body = model.masked[open_off + 1:close_off]
    first_line = cm.line_of(model.masked, open_off)
    members: dict[str, int] = {}
    depth = 0
    for i, raw in enumerate(body.split("\n")):
        if depth == 0:
            line = raw.strip()
            if (line and "(" not in line and "atomic" not in raw
                    and not _MEMBER_SKIP_RE.match(raw)):
                dm = _MEMBER_DECL_RE.match(raw)
                if dm:
                    members[dm.group(1)] = first_line + i
        depth += raw.count("{") - raw.count("}")
    return members


def run_shared_plain_pass(models: list[cm.FileModel],
                          cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    scfg = cfg.get("shared", {})
    scan_dirs = scfg.get("scan_dirs", [])
    for row in scfg.get("struct", []):
        owner = row["owner"]
        dfile = row["file"]
        fields = list(row.get("fields", []))
        functions = set(row.get("functions", []))
        tokens = list(row.get("tokens", []))

        decl_model = next(
            (m for m in models if m.path.endswith(dfile)), None)
        if decl_model is None:
            findings.append(Finding(
                "shared-plain", "shared-plain-unknown-field",
                dfile, 0,
                f"[[shared.struct]] row for '{owner}' names file '{dfile}' "
                "which is not in the scanned tree"))
            continue
        members = _plain_members(decl_model, owner)
        if not members:
            findings.append(Finding(
                "shared-plain", "shared-plain-unknown-field",
                decl_model.path, 0,
                f"[[shared.struct]] row for '{owner}': no struct/class "
                f"definition with plain members found in {dfile}"))
            continue
        for f in fields:
            if f not in members:
                findings.append(Finding(
                    "shared-plain", "shared-plain-unknown-field",
                    decl_model.path, 0,
                    f"contracts.toml lists shared field '{owner}::{f}' but "
                    f"the struct definition in {dfile} has no such plain "
                    "member (renamed? made atomic? update the row)"))
        for name, line in sorted(members.items(), key=lambda kv: kv[1]):
            if name not in fields:
                findings.append(Finding(
                    "shared-plain", "shared-plain-unknown-field",
                    decl_model.path, line,
                    f"plain member '{owner}::{name}' is not in the "
                    "[[shared.struct]] roster; every plain member of a "
                    "shared struct needs a declared happens-before licence",
                    _snippet(decl_model, line)))

        if not fields:
            continue
        access_re = re.compile(
            r"(?:\.|->)\s*(" + "|".join(re.escape(f) for f in fields)
            + r")\b")
        for model in models:
            if not (_in_dirs(model.path, scan_dirs)
                    and _file_match(model.path, dfile)):
                continue
            for am in access_re.finditer(model.masked):
                fname = am.group(1)
                fn = _innermost_func(model.funcs, am.start())
                if fn is None:
                    continue  # declaration/default-init, not an access
                if fn.name in functions:
                    continue
                body = model.masked[fn.header_off:fn.close_off]
                if tokens and any(tok in body for tok in tokens):
                    continue
                line = cm.line_of(model.masked, am.start())
                findings.append(Finding(
                    "shared-plain", "shared-plain-access", model.path, line,
                    f"plain access to shared field '{owner}::{fname}' in "
                    f"{fn.name}(), which is not a licensed owner function "
                    f"({sorted(functions)}) and shows no claimed "
                    f"happens-before token ({tokens}); the access races "
                    "unless a lock/guard edge the contract does not know "
                    "about protects it",
                    _snippet(model, line)))
    return findings


def _innermost_func(funcs: list[cm.FuncModel],
                    off: int) -> cm.FuncModel | None:
    best = None
    for fn in funcs:
        if fn.open_off < off <= fn.close_off:
            if best is None or fn.open_off > best.open_off:
                best = fn
    return best


# --------------------------------------------------------------------------
# Pass 7: safe publication
# --------------------------------------------------------------------------
#
# Paper footnote 7: a node is thread-private from allocation until the
# DCAS that links it into the deque; only that privacy makes the plain
# (non-atomic) field initialisation between the two points race-free.
# Pass 7 machine-checks it: every publishing store of a tracked
# allocation must carry a DCD_PUBLISHES(point, fields) licence whose
# point matches the site's DCD_SYNC classification, every rostered field
# of the node type must be written (or explicitly vouched) before the
# publish, and no plain write through the pointer may follow it.

def _pub_node_rows(cfg: dict) -> list[dict]:
    return list(cfg.get("publication", {}).get("node", []))


def _resolve_node_row(rows: list[dict], var: cm.AllocVar,
                      path: str) -> dict | None:
    cands = [r for r in rows if _file_match(path, r.get("file", ""))]
    exact = [r for r in cands if r.get("type") == var.type]
    if exact:
        return exact[0]
    return cands[0] if len(cands) == 1 else None


def run_publication_pass(models: list[cm.FileModel], cfg: dict,
                         roster: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    pcfg = cfg.get("publication", {})
    scan_dirs = pcfg.get("scan_dirs", [])
    alloc_tokens = list(pcfg.get("alloc_tokens", []))
    publish_tokens = list(pcfg.get("publish_tokens", []))
    rows = _pub_node_rows(cfg)
    pseudo = set(cfg.get("sync", {}).get("pseudo", {}).keys())
    if not (scan_dirs and alloc_tokens and publish_tokens):
        return findings

    # Roster rows must name files that are actually scanned, else the
    # field obligations they carry silently evaporate.
    for row in rows:
        if not any(_file_match(m.path, row.get("file", ""))
                   for m in models if _in_dirs(m.path, scan_dirs)):
            findings.append(Finding(
                "publication", "publishes-mismatch", row.get("file", "?"), 0,
                f"[[publication.node]] row for '{row.get('type', '?')}' "
                f"names file '{row.get('file', '?')}' which is not in the "
                "scanned tree"))

    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        pub_by_line: dict[int, list[cm.PublishAnnotation]] = {}
        for ann in model.publishes:
            pub_by_line.setdefault(ann.line, []).append(ann)
        sync_by_line: dict[int, list[str]] = {}
        for sann in model.syncs:
            sync_by_line.setdefault(sann.line, []).extend(sann.points)
        site_lines: set[int] = set()

        for fn in model.funcs:
            allocs, writes, sites = cm.extract_alloc_flow(
                model.masked, fn, alloc_tokens, publish_tokens)
            for var in allocs:
                var_sites = [s for s in sites if s.var == var.name]
                if not var_sites:
                    continue
                first = var_sites[0]
                site_lines.update(s.line for s in var_sites)
                var_writes = [w for w in writes if w.var == var.name]
                row = _resolve_node_row(rows, var, model.path)
                anns = pub_by_line.get(first.line, [])

                for w in var_writes:
                    if w.off > first.off:
                        findings.append(Finding(
                            "publication", "post-publication-plain-write",
                            model.path, w.line,
                            f"{w.kind} write to '{var.name}->{w.field}' in "
                            f"{fn.name}() comes after the publishing store "
                            f"at line {first.line}; once published the node "
                            "is shared and every field write must go "
                            "through its atomic word",
                            _snippet(model, w.line)))

                if not anns:
                    findings.append(Finding(
                        "publication", "unannotated-publication",
                        model.path, first.line,
                        f"publishing store of '{var.name}' (allocated at "
                        f"line {var.line}) in {fn.name}() carries no "
                        "DCD_PUBLISHES(point, fields) licence naming the "
                        "escape point and the plain fields initialised "
                        "before it",
                        _snippet(model, first.line)))
                    continue

                vouched: set[str] = set()
                for ann in anns:
                    vouched.update(ann.fields)
                    if ann.point not in roster and ann.point not in pseudo:
                        findings.append(Finding(
                            "publication", "publishes-mismatch",
                            model.path, ann.line,
                            f"DCD_PUBLISHES point '{ann.point}' is neither "
                            "in the chaos.hpp sync roster nor a declared "
                            "pseudo-point",
                            _snippet(model, ann.line)))
                    sync_points = sync_by_line.get(first.line, [])
                    if sync_points and ann.point not in sync_points:
                        findings.append(Finding(
                            "publication", "publishes-mismatch",
                            model.path, ann.line,
                            f"DCD_PUBLISHES point '{ann.point}' disagrees "
                            "with the site's DCD_SYNC classification "
                            f"({sync_points}); the escape happens at the "
                            "sync point, not beside it",
                            _snippet(model, ann.line)))
                    if row is not None:
                        unknown = [f for f in ann.fields
                                   if f not in row.get("fields", [])]
                        if unknown:
                            findings.append(Finding(
                                "publication", "publishes-mismatch",
                                model.path, ann.line,
                                f"DCD_PUBLISHES fields {unknown} are not in "
                                f"the [[publication.node]] roster for "
                                f"'{row.get('type')}' "
                                f"({row.get('fields', [])})",
                                _snippet(model, ann.line)))
                if row is not None:
                    for f in row.get("fields", []):
                        written = any(w.field == f and w.off < first.off
                                      for w in var_writes)
                        if not written and f not in vouched:
                            findings.append(Finding(
                                "publication", "unpublished-field",
                                model.path, first.line,
                                f"publishing store of '{var.name}' in "
                                f"{fn.name}() is reachable while rostered "
                                f"field '{row.get('type')}::{f}' has no "
                                "observed write and the DCD_PUBLISHES "
                                "licence does not vouch for it; a reader "
                                "can acquire the node with the field "
                                "uninitialised",
                                _snippet(model, first.line)))

        # A licence that attaches to a line with no publishing store is
        # stale — the same staleness check DCD_SYNC orphans get.
        for ann in model.publishes:
            if ann.line not in site_lines:
                findings.append(Finding(
                    "publication", "publishes-mismatch", model.path,
                    ann.line,
                    f"DCD_PUBLISHES({ann.point}, ...) attaches to a line "
                    "with no publishing store of a tracked allocation",
                    _snippet(model, ann.line)))
    return findings


# --------------------------------------------------------------------------
# Pass 8: word-encoding value flow
# --------------------------------------------------------------------------
#
# Every multi-field word (payload/tag/deleted-bit/sentinel encodings,
# descriptor marks, version tags) is packed and unpacked by the helpers
# rostered in [codec]. Raw bit arithmetic on a value loaded from (or
# stored to) a contracted atomic word anywhere else is a finding: it is
# exactly how a second, drifting copy of the word layout enters the tree.
# The rostered helpers are in turn cross-checked against the compile-time
# tag-disjointness audit (concepts.hpp) and the property tests named in
# their rows, so the static roster, the runtime layout, and the tests
# cannot drift apart.

def _codec_rows(cfg: dict) -> list[dict]:
    return list(cfg.get("codec", {}).get("helper", []))


def _rostered_spans(model: cm.FileModel,
                    rows: list[dict]) -> list[tuple[int, int]]:
    names: set[str] = set()
    for row in rows:
        if _file_match(model.path, row.get("file", "")):
            names.update(row.get("functions", []))
    if not names:
        return []
    return [(fn.header_off, fn.close_off) for fn in model.funcs
            if fn.name in names]


def run_codec_pass(models: list[cm.FileModel], cfg: dict,
                   aux_texts: dict[str, str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    ccfg = cfg.get("codec", {})
    scan_dirs = ccfg.get("scan_dirs", [])
    load_tokens = list(ccfg.get("load_tokens", []))
    store_tokens = list(ccfg.get("store_tokens", []))
    rows = _codec_rows(cfg)
    aux_texts = aux_texts or {}
    if not scan_dirs:
        return findings

    # raw-word-arithmetic: tainted-value and store-argument bit ops
    # outside every rostered helper span.
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        licensed = _rostered_spans(model, rows)
        seen_offs: set[int] = set()
        for fn in model.funcs:
            uses = cm.extract_word_flow(model.masked, fn, load_tokens)
            uses += cm.extract_store_arg_bitops(model.masked, fn,
                                                store_tokens)
            for u in uses:
                if u.off in seen_offs:
                    continue  # nested scopes (lambdas) see the same token
                seen_offs.add(u.off)
                if any(s < u.off <= e for s, e in licensed):
                    continue
                what = (f"word value '{u.var}'" if u.var
                        else "a store/CAS value argument")
                findings.append(Finding(
                    "codec", "raw-word-arithmetic", model.path, u.line,
                    f"raw bit operator '{u.op}' on {what} in "
                    f"{fn.name}(), outside every [codec]-rostered helper; "
                    "tag/payload/deleted-bit arithmetic must go through "
                    "the word codec so the layout has exactly one "
                    "implementation",
                    _snippet(model, u.line)))

    # codec-drift: roster rows vs. the tree, the compile-time audit, and
    # the property tests they claim.
    for row in rows:
        rfile = row.get("file", "?")
        # Exact suffix beats the stem fallback: `mcas.cpp` must resolve
        # to the TU holding the helper definitions, not its header.
        model = (next((m for m in models if m.path.endswith(rfile)), None)
                 or next((m for m in models
                          if _file_match(m.path, rfile)), None))
        if model is None:
            findings.append(Finding(
                "codec", "codec-drift", rfile, 0,
                f"[[codec.helper]] row names file '{rfile}' which is not "
                "in the scanned tree"))
            continue
        for name in row.get("functions", []):
            if not re.search(rf"\b{re.escape(name)}\s*\(", model.masked):
                findings.append(Finding(
                    "codec", "codec-drift", model.path, 0,
                    f"rostered codec helper '{name}' has no definition in "
                    f"{rfile}; the roster licenses arithmetic that no "
                    "longer exists"))
        tested_by = row.get("tested_by", "")
        if tested_by:
            text = aux_texts.get(tested_by)
            if text is None:
                findings.append(Finding(
                    "codec", "codec-drift", tested_by, 0,
                    f"[[codec.helper]] row for '{rfile}' names test file "
                    f"'{tested_by}' which does not exist"))
            else:
                for tok in row.get("tested_tokens", []):
                    if tok not in text:
                        findings.append(Finding(
                            "codec", "codec-drift", tested_by, 0,
                            f"claimed test token '{tok}' (codec roster row "
                            f"for '{rfile}') does not appear in "
                            f"{tested_by}; the cross-reference from roster "
                            "to property test is stale"))

    # tag-bits-outside-word: the reserved-bit constants belong to the
    # layout file; only the compile-time audit may also name them.
    tags = ccfg.get("tag_tokens", [])
    homes = [f for f in (ccfg.get("layout", ""), ccfg.get("audit", "")) if f]
    tag_re = re.compile(r"\b(" + "|".join(map(re.escape, tags)) + r")\b")
    for model in models if tags else []:
        if any(model.path.endswith(h) for h in homes):
            continue
        for m in tag_re.finditer(model.masked):
            line = cm.line_of(model.masked, m.start())
            findings.append(Finding(
                "codec", "tag-bits-outside-word", model.path, line,
                f"reserved-bit constant {m.group(1)} used outside the "
                "layout file; encode and decode through its helpers so "
                "the bit layout has one owner",
                _snippet(model, line)))

    # Layout pins: the [codec] section repeats the payload shift and the
    # audit file's key static_assert expressions; disagreement with the
    # tree means the static model and the compile-time audit diverged.
    layout = ccfg.get("layout", "")
    if layout:
        model = next((m for m in models if _file_match(m.path, layout)),
                     None)
        if model is None:
            findings.append(Finding(
                "codec", "codec-drift", layout, 0,
                f"[codec] layout file '{layout}' is not in the scanned "
                "tree"))
        else:
            m = re.search(r"kPayloadShift\s*=\s*(\d+)", model.masked)
            want = ccfg.get("payload_shift")
            if m is None or (want is not None
                             and int(m.group(1)) != int(want)):
                got = m.group(1) if m else "<missing>"
                findings.append(Finding(
                    "codec", "codec-drift", model.path,
                    cm.line_of(model.masked, m.start()) if m else 0,
                    f"kPayloadShift in {layout} is {got} but [codec] "
                    f"payload_shift pins {want}; update the roster and "
                    "every helper the shift feeds"))
    audit = ccfg.get("audit", "")
    if audit:
        model = next((m for m in models if _file_match(m.path, audit)),
                     None)
        if model is None:
            findings.append(Finding(
                "codec", "codec-drift", audit, 0,
                f"[codec] audit file '{audit}' is not in the scanned tree"))
        else:
            text = "\n".join(model.lines)
            for needle in ccfg.get("audit_needles", []):
                if needle not in text:
                    findings.append(Finding(
                        "codec", "codec-drift", model.path, 0,
                        f"compile-time audit expression '{needle}' is "
                        f"missing from {audit}; the tag-disjointness "
                        "static_asserts no longer pin the layout the "
                        "codec roster assumes"))
    return findings


# --------------------------------------------------------------------------
# Annotation roster: unknown DCD_* tokens
# --------------------------------------------------------------------------

_DCD_TOKEN_RE = re.compile(r"\bDCD_[A-Z][A-Z0-9_]*\b")


_NOSANITIZE_RE = re.compile(r"\bDCD_NO_SANITIZE_(?:THREAD|ADDRESS)\b")
_PREPROCESSOR_RE = re.compile(r"^\s*#\s*(?:define|undef|if|ifdef|ifndef|elif)")
NOSANITIZE_COMMENT_WINDOW = 5


def run_annotation_pass(models: list[cm.FileModel],
                        cfg: dict) -> list[Finding]:
    """Any DCD_* token (code or comment) outside the known roster is a
    finding — typos in load-bearing annotations must not vanish. A
    sanitizer opt-out (DCD_NO_SANITIZE_*) outside its definition needs a
    comment on its line or within NOSANITIZE_COMMENT_WINDOW lines above
    saying which race it blesses."""
    findings: list[Finding] = []
    for model in models:
        for lineno, text in enumerate(model.lines, start=1):
            m = _NOSANITIZE_RE.search(text)
            if m is None or _PREPROCESSOR_RE.match(text):
                continue
            window = model.lines[max(0, lineno - 1
                                     - NOSANITIZE_COMMENT_WINDOW):lineno]
            if any("//" in w or "/*" in w or "*/" in w for w in window):
                continue
            findings.append(Finding(
                "annotation", "unjustified-nosanitize", model.path, lineno,
                f"{m.group(0)} without a comment on its line or the "
                f"{NOSANITIZE_COMMENT_WINDOW} above; say which benign race "
                "it blesses and why it is benign",
                _snippet(model, lineno)))
    known = cfg.get("annotations", {}).get("known", [])
    if not known:
        return findings
    exact = {k for k in known if not k.endswith("*")}
    prefixes = tuple(k[:-1] for k in known if k.endswith("*"))
    for model in models:
        for lineno, text in enumerate(model.lines, start=1):
            for m in _DCD_TOKEN_RE.finditer(text):
                tok = m.group(0)
                if tok in exact or (prefixes and tok.startswith(prefixes)):
                    continue
                findings.append(Finding(
                    "annotation", "unknown-annotation", model.path, lineno,
                    f"'{tok}' is not in the known DCD_* annotation roster "
                    f"({', '.join(sorted(known))}); a typo here silently "
                    "disables the contract the annotation was meant to "
                    "carry",
                    _snippet(model, lineno)))
    return findings


# --------------------------------------------------------------------------
# Proof-map emission
# --------------------------------------------------------------------------

def emit_proof_map(models: list[cm.FileModel], cfg: dict,
                   clauses: set[str]) -> str:
    lcfg = cfg.get("lp", {})
    scan_dirs = lcfg.get("scan_dirs", [])
    rows = []
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        sites_by_line = {}
        for s in model.cas_sites:
            if s.form != "notify":
                sites_by_line[s.line] = s
        for lp in sorted(model.lps, key=lambda a: a.line):
            site = sites_by_line.get(lp.line)
            rows.append((model.path, lp.line,
                         site.function if site else "?",
                         site.callee if site else "?", lp))
    rows.sort(key=lambda r: (r[0], r[1]))

    out = []
    out.append("# Linearization-point proof map")
    out.append("")
    out.append("<!-- GENERATED FILE — do not edit by hand. -->")
    out.append("<!-- Regenerate: python3 tools/analyze/analyze.py"
               " --emit-proof-map docs/PROOF_MAP.md -->")
    out.append("")
    out.append("Every DCAS/CAS call site in `src/deque` carries a structured")
    out.append("`DCD_LP(fig:lines, sync-point[, aux], inv=clauses, \"cond\")`")
    out.append("annotation. This file is the rendered map: each row is a")
    out.append("proof obligation in the sense of the paper's §5 — the DCAS")
    out.append("transition must preserve the listed `RepAuditor` clauses,")
    out.append("and non-`aux` rows are the operations' linearization points")
    out.append("under the stated condition. `aux` rows are structural steps")
    out.append("(helping, physical deletion, elimination bookkeeping) that")
    out.append("change the representation but not the abstract deque value.")
    out.append("")
    cur_file = None
    covered: dict[str, int] = {c: 0 for c in sorted(clauses)}
    n_lp = n_aux = 0
    for path, line, func, callee, lp in rows:
        if path != cur_file:
            if cur_file is not None:
                out.append("")
            cur_file = path
            out.append(f"## `{path}`")
            out.append("")
            out.append("| Site | Operation | Paper ref | Sync point | Kind |"
                       " Preserves | Linearization condition |")
            out.append("|---|---|---|---|---|---|---|")
        kind = "aux" if lp.aux else "**LP**"
        if lp.aux:
            n_aux += 1
        else:
            n_lp += 1
        for c in lp.inv:
            if c in covered:
                covered[c] += 1
        inv = "<br>".join(f"`{c}`" for c in lp.inv)
        out.append(f"| `{pathlib.PurePosixPath(path).name}:{line}` "
                   f"| `{func}` ({callee}) "
                   f"| {lp.figure} l.{lp.fig_lines} "
                   f"| `{lp.point}` | {kind} | {inv} "
                   f"| {lp.condition} |")
    out.append("")
    out.append("## Coverage against the `RepAuditor` clause roster")
    out.append("")
    out.append(f"{n_lp} linearization points, {n_aux} auxiliary transitions.")
    out.append("Each clause below is discharged by the listed number of")
    out.append("annotated transitions (validated by pass 4; a clause with")
    out.append("zero references fails the build):")
    out.append("")
    out.append("| RepAuditor clause | Referencing obligations |")
    out.append("|---|---|")
    for c in sorted(covered):
        out.append(f"| `{c}` | {covered[c]} |")
    out.append("")
    return "\n".join(out)


# --------------------------------------------------------------------------
# Guard-map emission
# --------------------------------------------------------------------------

def emit_guard_map(models: list[cm.FileModel], cfg: dict) -> str:
    """Render docs/GUARD_MAP.md: per-function guard obligations and their
    discharge sites, drift-gated like PROOF_MAP.md."""
    gcfg = cfg.get("guard", {})
    scan_dirs = gcfg.get("scan_dirs", [])
    roster = guard_roster(models, cfg)

    out = []
    out.append("# Guard-scope reclamation map")
    out.append("")
    out.append("<!-- GENERATED FILE — do not edit by hand. -->")
    out.append("<!-- Regenerate: python3 tools/analyze/analyze.py"
               " --emit-guard-map docs/GUARD_MAP.md -->")
    out.append("")
    out.append("The paper assumes garbage collection; this repo discharges")
    out.append("that assumption with EBR guards and LFRC references, and")
    out.append("pass 5 (`guard`, docs/STATIC_ANALYSIS.md §4) checks the")
    out.append("discharge statically. Each row below is one function that")
    out.append("touches pool-allocated nodes: its **obligation** (how the")
    out.append("node stays reclamation-safe) and its **discharge** (the")
    out.append("guard declaration, the caller contract, or the recorded")
    out.append("exemption). Derefs/calls count the sites pass 5 verified.")
    out.append("")
    n_req = n_exempt = n_local = 0
    for model in sorted(models, key=lambda m: m.path):
        if not _in_dirs(model.path, scan_dirs):
            continue
        rows = []
        for fn in sorted(model.funcs, key=lambda f: f.line):
            interesting = (fn.requires_guard is not None
                           or fn.exempt is not None
                           or fn.guard_spans
                           or fn.derefs
                           or any(c[0] in roster for c in fn.calls))
            if not interesting:
                continue
            if fn.requires_guard is not None:
                obligation = "caller-provided guard"
                discharge = f"`DCD_REQUIRES_GUARD` — {fn.requires_guard}"
                n_req += 1
            elif fn.exempt is not None:
                obligation = "exempt"
                discharge = f"`DCD_GUARD_EXEMPT` — {fn.exempt}"
                n_exempt += 1
            elif fn.guard_spans:
                obligation = "local guard scope"
                discharge = ("Guard at l." +
                             ", l.".join(str(ln) for ln in fn.guard_lines))
                n_local += 1
            else:
                obligation = "LFRC reference"
                discharge = "acquired reference carries its own protection"
            guarded_calls = sorted({c[0] for c in fn.calls
                                    if c[0] in roster})
            rows.append((fn, obligation, discharge, guarded_calls))
        if not rows:
            continue
        out.append(f"## `{model.path}`")
        out.append("")
        out.append("| Function | Obligation | Discharge | Node derefs |"
                   " Guarded callees |")
        out.append("|---|---|---|---|---|")
        for fn, obligation, discharge, guarded_calls in rows:
            callees = (", ".join(f"`{c}`" for c in guarded_calls)
                       if guarded_calls else "—")
            out.append(f"| `{fn.name}` (l.{fn.line}) | {obligation} "
                       f"| {discharge} | {len(fn.derefs)} | {callees} |")
        out.append("")
    out.append("## Caller-contract roster")
    out.append("")
    out.append("Functions a caller may only invoke while holding a live")
    out.append("protection scope (pass 5 flags any unprotected call):")
    out.append("")
    out.append("| Function | Declared at | Contract note |")
    out.append("|---|---|---|")
    for name in sorted(roster):
        for path, line, note in roster[name]:
            out.append(f"| `{name}` "
                       f"| `{pathlib.PurePosixPath(path).name}:{line}` "
                       f"| {note} |")
    out.append("")
    out.append(f"{n_req} caller-contract functions, {n_local} with local "
               f"guard scopes, {n_exempt} recorded exemptions.")
    out.append("")
    return "\n".join(out)


# --------------------------------------------------------------------------
# Publication-map emission
# --------------------------------------------------------------------------

def emit_publication_map(models: list[cm.FileModel], cfg: dict) -> str:
    """Render docs/PUBLICATION_MAP.md: every tracked allocation's publishing
    store, its licence, and the verified-vs-vouched state of each rostered
    field. Drift-gated like PROOF_MAP.md / GUARD_MAP.md."""
    pcfg = cfg.get("publication", {})
    scan_dirs = pcfg.get("scan_dirs", [])
    alloc_tokens = list(pcfg.get("alloc_tokens", []))
    publish_tokens = list(pcfg.get("publish_tokens", []))
    rows_cfg = _pub_node_rows(cfg)

    out = []
    out.append("# Safe-publication map")
    out.append("")
    out.append("<!-- GENERATED FILE — do not edit by hand. -->")
    out.append("<!-- Regenerate: python3 tools/analyze/analyze.py"
               " --emit-publication-map docs/PUBLICATION_MAP.md -->")
    out.append("")
    out.append("Paper footnote 7: a pool node is thread-private from its")
    out.append("allocation until the DCAS that links it into the structure,")
    out.append("and only that privacy makes the plain field initialisation")
    out.append("in between race-free. Pass 7 (`publication`,")
    out.append("docs/STATIC_ANALYSIS.md §5) checks the discipline; this file")
    out.append("is the rendered evidence. Each row is one publishing store:")
    out.append("its `DCD_PUBLISHES` licence, and per rostered field whether")
    out.append("the pass **verified** a write before the publish (with its")
    out.append("line) or the licence **vouches** for a write the token model")
    out.append("cannot see (an init helper, a callee).")
    out.append("")
    n_sites = n_verified = n_vouched = 0
    for model in sorted(models, key=lambda m: m.path):
        if not _in_dirs(model.path, scan_dirs):
            continue
        pub_by_line: dict[int, list[cm.PublishAnnotation]] = {}
        for ann in model.publishes:
            pub_by_line.setdefault(ann.line, []).append(ann)
        file_rows = []
        for fn in sorted(model.funcs, key=lambda f: f.line):
            allocs, writes, sites = cm.extract_alloc_flow(
                model.masked, fn, alloc_tokens, publish_tokens)
            for var in allocs:
                var_sites = [s for s in sites if s.var == var.name]
                if not var_sites:
                    continue
                first = var_sites[0]
                anns = pub_by_line.get(first.line, [])
                point = anns[0].point if anns else "—"
                vouched: set[str] = set()
                for ann in anns:
                    vouched.update(ann.fields)
                row = _resolve_node_row(rows_cfg, var, model.path)
                fields = (list(row.get("fields", [])) if row is not None
                          else sorted(vouched))
                cells = []
                for f in fields:
                    w = next((w for w in writes
                              if w.var == var.name and w.field == f
                              and w.off < first.off), None)
                    if w is not None:
                        cells.append(f"`{f}` ✓ l.{w.line}")
                        n_verified += 1
                    elif f in vouched:
                        cells.append(f"`{f}` (vouched)")
                        n_vouched += 1
                    else:
                        cells.append(f"`{f}` ✗")
                file_rows.append((first.line, fn.name, var, point,
                                  "<br>".join(cells)))
                n_sites += 1
        if not file_rows:
            continue
        out.append(f"## `{model.path}`")
        out.append("")
        out.append("| Publish site | Function | Node | Escape point |"
                   " Fields before publish |")
        out.append("|---|---|---|---|---|")
        for line, func, var, point, cells in sorted(file_rows):
            out.append(f"| `{pathlib.PurePosixPath(model.path).name}:{line}`"
                       f" | `{func}` | `{var.name}` ({var.type}, alloc "
                       f"l.{var.line}) | `{point}` | {cells} |")
        out.append("")
    out.append("## Node-field roster")
    out.append("")
    out.append("The plain fields each node type must have written (or")
    out.append("vouched) before its publishing store:")
    out.append("")
    out.append("| Type | Declared in | Fields | Why |")
    out.append("|---|---|---|---|")
    for row in rows_cfg:
        fields = ", ".join(f"`{f}`" for f in row.get("fields", []))
        why = " ".join(row.get("why", "").split())
        out.append(f"| `{row.get('type', '?')}` | `{row.get('file', '?')}` "
                   f"| {fields} | {why} |")
    out.append("")
    out.append(f"{n_sites} publishing stores; {n_verified} field writes "
               f"verified textually, {n_vouched} vouched by licence.")
    out.append("")
    return "\n".join(out)

# --------------------------------------------------------------------------
# Pass 9: happens-before edge prover
# --------------------------------------------------------------------------

HB_RELEASE_ROLES = {"release", "fence-release"}
HB_ACQUIRE_ROLES = {"acquire", "fence-acquire"}
HB_FENCE_ROLES = {"fence-release", "fence-acquire"}

# How far around a fence (within its enclosing function) the pass looks for
# the relaxed access that completes the SC-fence shape. Generous: the shape
# check guards against a fence annotated onto an edge whose fields the
# surrounding code never touches, not against formatting.
FENCE_ADJACENCY_SPAN = 800


def _hb_field_names(edge: dict) -> set[str]:
    """Bare member names from the edge's `fields` list (``Owner::member``
    rows keep the owner for display; accesses only know the member)."""
    return {str(f).split("::")[-1] for f in edge.get("fields", [])}


def _hb_order(acc: cm.AtomicAccess) -> str:
    """Effective order of an access: the success order of a CAS, seq_cst
    when no order argument was given."""
    return acc.orders[0] if acc.orders else "seq_cst"


def _func_span(model: cm.FileModel, off: int) -> tuple[int, int]:
    best = None
    for fn in model.funcs:
        if fn.header_off <= off <= fn.close_off:
            if best is None or fn.header_off > best.header_off:
                best = fn
    if best is None:
        return 0, len(model.masked)
    return best.header_off, best.close_off


def _fence_has_adjacent_field(model: cm.FileModel, fence: cm.FenceSite,
                              fields: set[str], before: bool) -> bool:
    lo, hi = _func_span(model, fence.off)
    if before:
        lo, hi = max(lo, fence.off - FENCE_ADJACENCY_SPAN), fence.off
    else:
        lo, hi = fence.off, min(hi, fence.off + FENCE_ADJACENCY_SPAN)
    window = model.masked[lo:hi]
    return any(re.search(r"\b" + re.escape(f) + r"\b", window)
               for f in fields)


def _validate_hb_roster(edges: list, roster: set[str], scenarios: set[str],
                        origin: str) -> tuple[dict, list[Finding]]:
    """Checks the [[hb.edge]] rows themselves; returns (rows-by-name,
    findings). Every edge must resolve to a tested artifact: a chaos
    sync point (roster or declared pseudo-point) or an mc scenario."""
    findings: list[Finding] = []
    by_name: dict[str, dict] = {}
    for e in edges:
        name = str(e.get("name", ""))
        if not name:
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                "[[hb.edge]] row with no name"))
            continue
        if name in by_name:
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' is declared twice"))
            continue
        by_name[name] = e
        if e.get("kind", "sync") not in ("sync", "fence"):
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' has unknown kind "
                f"'{e.get('kind')}' (expected sync or fence)"))
        if not _hb_field_names(e):
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' has an empty fields list: an edge "
                "with no fields can license nothing"))
        sp = str(e.get("sync_point", ""))
        sc = str(e.get("mc_scenario", ""))
        if not sp and not sc:
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' names neither a sync_point nor an "
                "mc_scenario: a proven edge must also be a tested edge"))
        if sp and sp not in roster:
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' sync_point '{sp}' is not in the "
                "chaos.hpp roster"))
        if sc and sc not in scenarios:
            findings.append(Finding(
                "hb", "unrostered-hb-edge", origin, 0,
                f"[[hb.edge]] '{name}' mc_scenario '{sc}' is not a "
                "scenario name in src/mc"))
    return by_name, findings


def run_hb_pass(models: list[cm.FileModel], cfg: dict, roster: set[str],
                scenarios: set[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    hcfg = cfg.get("hb", {})
    edges = hcfg.get("edge", [])
    scan_dirs = hcfg.get("scan_dirs", [])
    if not edges and not scan_dirs:
        return findings
    origin = hcfg.get("origin", "contracts.toml")

    by_name, roster_findings = _validate_hb_roster(
        edges, roster, scenarios or set(), origin)
    findings += roster_findings

    # --- endpoint sweep: each DCD_HB must land on a compatible site ------
    endpoints: dict[str, list[tuple[str, str, int]]] = {
        name: [] for name in by_name}
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        acc_by_line: dict[int, list[cm.AtomicAccess]] = {}
        for a in model.accesses:
            acc_by_line.setdefault(a.line, []).append(a)
        fence_by_line: dict[int, list[cm.FenceSite]] = {}
        for f in model.fences:
            fence_by_line.setdefault(f.line, []).append(f)
        for ann in model.hbs:
            edge = by_name.get(ann.edge)
            if edge is None:
                findings.append(Finding(
                    "hb", "unrostered-hb-edge", ann.path, ann.line,
                    f"DCD_HB names edge '{ann.edge}' which has no "
                    "[[hb.edge]] roster row in contracts.toml",
                    _snippet(model, ann.line)))
                continue
            fields = _hb_field_names(edge)
            kind = edge.get("kind", "sync")
            if ann.role in HB_FENCE_ROLES:
                fences = fence_by_line.get(ann.line, [])
                if not fences:
                    findings.append(Finding(
                        "hb", "unrostered-hb-edge", ann.path, ann.line,
                        f"DCD_HB({ann.edge}, role={ann.role}) attaches to a "
                        "line with no std::atomic_thread_fence call",
                        _snippet(model, ann.line)))
                    continue
                fence = fences[0]
                # SC (Dekker) edges need seq_cst fences; a sync-kind edge
                # routed through a fence needs at least the directional
                # strength of the claimed role.
                need = ({"seq_cst"} if kind == "fence"
                        else (RELEASING_WRITE if ann.role == "fence-release"
                              else ACQUIRING_READ))
                if fence.order not in need:
                    findings.append(Finding(
                        "hb", "insufficient-order-for-edge", ann.path,
                        ann.line,
                        f"atomic_thread_fence({fence.order}) is too weak "
                        f"for role={ann.role} on {kind}-kind edge "
                        f"'{ann.edge}' (need {sorted(need)})",
                        _snippet(model, ann.line)))
                elif not _fence_has_adjacent_field(
                        model, fence, fields,
                        before=(ann.role == "fence-release")):
                    where = ("before" if ann.role == "fence-release"
                             else "after")
                    findings.append(Finding(
                        "hb", "insufficient-order-for-edge", ann.path,
                        ann.line,
                        f"role={ann.role} fence has no access to any of "
                        f"edge '{ann.edge}''s fields ({sorted(fields)}) "
                        f"{where} it in the enclosing function — the "
                        "fence+adjacent-access SC-fence shape is missing",
                        _snippet(model, ann.line)))
                endpoints[ann.edge].append((ann.role, ann.path, ann.line))
            else:
                cands = [a for a in acc_by_line.get(ann.line, [])
                         if a.member in fields]
                if not cands:
                    findings.append(Finding(
                        "hb", "unrostered-hb-edge", ann.path, ann.line,
                        f"DCD_HB({ann.edge}, role={ann.role}) attaches to "
                        "a line with no atomic access to the edge's fields "
                        f"({sorted(fields)})",
                        _snippet(model, ann.line)))
                    continue
                a = cands[0]
                order = _hb_order(a)
                if ann.role == "release":
                    if a.op == "load" or order not in RELEASING_WRITE:
                        findings.append(Finding(
                            "hb", "insufficient-order-for-edge", ann.path,
                            ann.line,
                            f"role=release endpoint {a.member}.{a.op}"
                            f"({order}) cannot head edge '{ann.edge}': "
                            "need a store/RMW/CAS with release, acq_rel "
                            "or seq_cst",
                            _snippet(model, ann.line)))
                else:  # acquire
                    if a.op == "store" or order not in ACQUIRING_READ:
                        findings.append(Finding(
                            "hb", "insufficient-order-for-edge", ann.path,
                            ann.line,
                            f"role=acquire endpoint {a.member}.{a.op}"
                            f"({order}) cannot complete edge "
                            f"'{ann.edge}': need a load/RMW/CAS with "
                            "acquire, acq_rel or seq_cst",
                            _snippet(model, ann.line)))
                endpoints[ann.edge].append((ann.role, ann.path, ann.line))

    # --- two-sidedness: an edge with endpoints on one side only ----------
    for name in sorted(by_name):
        eps = endpoints[name]
        for side, roles in (("release", HB_RELEASE_ROLES),
                            ("acquire", HB_ACQUIRE_ROLES)):
            if not any(r in roles for r, _, _ in eps):
                path = eps[0][1] if eps else origin
                line = eps[0][2] if eps else 0
                findings.append(Finding(
                    "hb", "one-sided-hb-edge", path, line,
                    f"[[hb.edge]] '{name}' has no {side}-side endpoint "
                    f"(no DCD_HB with role in {sorted(roles)}): the edge "
                    "is asserted but only half-proven"))

    # --- licensing sweep: acquire-or-stronger loads and all fences -------
    licensed_fields: set[str] = set()
    for e in by_name.values():
        licensed_fields |= _hb_field_names(e)
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        hb_lines = {a.line for a in model.hbs}
        exempt_lines = {x.line for x in model.hb_exempts}
        acq_load_lines: set[int] = set()
        for a in model.accesses:
            if a.op != "load" or _hb_order(a) not in ACQUIRING_READ:
                continue
            acq_load_lines.add(a.line)
            if a.line in hb_lines or a.line in exempt_lines:
                continue
            if a.member in licensed_fields:
                continue
            findings.append(Finding(
                "hb", "unrostered-hb-edge", a.path, a.line,
                f"acquire-or-stronger load of '{a.member}' is covered by "
                "no [[hb.edge]] row's fields and carries no DCD_HB / "
                "DCD_HB_EXEMPT: the ordering it relies on is unproven",
                _snippet(model, a.line)))
        for f in model.fences:
            if f.line in exempt_lines:
                continue
            if any(a.line == f.line and a.role in HB_FENCE_ROLES
                   for a in model.hbs):
                continue
            findings.append(Finding(
                "hb", "fence-without-edge", f.path, f.line,
                f"atomic_thread_fence({f.order}) in "
                f"{f.function or '?'}() belongs to no rostered "
                "happens-before edge: annotate with DCD_HB(edge, "
                "role=fence-release|fence-acquire) or DCD_HB_EXEMPT(why)",
                _snippet(model, f.line)))
        fence_lines = {f.line for f in model.fences}
        for x in model.hb_exempts:
            if x.line not in acq_load_lines and x.line not in fence_lines:
                findings.append(Finding(
                    "hb", "unrostered-hb-edge", x.path, x.line,
                    "DCD_HB_EXEMPT attaches to a line with no "
                    "acquire-or-stronger load and no fence",
                    _snippet(model, x.line)))
    return findings


def emit_hb_map(models: list[cm.FileModel], cfg: dict) -> str:
    """docs/HB_MAP.md — the proven synchronizes-with edges, one section per
    [[hb.edge]] row, in the PROOF_MAP/GUARD_MAP/PUBLICATION_MAP style."""
    hcfg = cfg.get("hb", {})
    edges = hcfg.get("edge", [])
    scan_dirs = hcfg.get("scan_dirs", [])
    by_name = {str(e.get("name", "")): e for e in edges}

    # (edge -> [(role, path, line, label)]), plus the licensing tallies.
    details: dict[str, list[tuple[str, str, int, str]]] = {
        n: [] for n in by_name}
    exemptions: list[tuple[str, int, str]] = []
    licensed_fields: set[str] = set()
    for e in edges:
        licensed_fields |= _hb_field_names(e)
    n_field_licensed = 0
    for model in models:
        if not _in_dirs(model.path, scan_dirs):
            continue
        acc_by_line: dict[int, list[cm.AtomicAccess]] = {}
        for a in model.accesses:
            acc_by_line.setdefault(a.line, []).append(a)
        fence_by_line = {f.line: f for f in model.fences}
        hb_lines = {a.line for a in model.hbs}
        exempt_lines = {x.line for x in model.hb_exempts}
        for ann in model.hbs:
            if ann.edge not in by_name:
                continue
            fields = _hb_field_names(by_name[ann.edge])
            if ann.role in HB_FENCE_ROLES:
                f = fence_by_line.get(ann.line)
                label = (f"atomic_thread_fence({f.order})" if f else "?")
            else:
                a = next((a for a in acc_by_line.get(ann.line, [])
                          if a.member in fields), None)
                label = (f"{a.member}.{a.op}({_hb_order(a)})" if a else "?")
            details[ann.edge].append((ann.role, ann.path, ann.line, label))
        for x in model.hb_exempts:
            exemptions.append((x.path, x.line, " ".join(x.why.split())))
        for a in model.accesses:
            if (a.op == "load" and _hb_order(a) in ACQUIRING_READ
                    and a.line not in hb_lines
                    and a.line not in exempt_lines
                    and a.member in licensed_fields):
                n_field_licensed += 1

    out = [
        "# Happens-Before Edge Map",
        "",
        "<!-- GENERATED FILE — do not edit by hand. -->",
        "<!-- Regenerate: python3 tools/analyze/analyze.py"
        " --emit-hb-map docs/HB_MAP.md -->",
        "",
        "Every intended synchronizes-with edge in the concurrent core",
        "(`[[hb.edge]]` in tools/analyze/contracts.toml), with its",
        "DCD_HB-annotated release-side and acquire-side endpoints and the",
        "chaos sync point or mc scenario that exercises it. `fence-*`",
        "roles are `std::atomic_thread_fence` endpoints (the SC-fence",
        "Dekker shape); plain roles are release/acquire accesses. Checked",
        "by analyzer pass 9 (`tools/analyze/README.md`).",
        "",
    ]
    n_endpoints = 0
    n_fence_edges = 0
    for name in sorted(by_name):
        e = by_name[name]
        kind = e.get("kind", "sync")
        if kind == "fence":
            n_fence_edges += 1
        out.append(f"## `{name}` — {kind}")
        out.append("")
        why = " ".join(str(e.get("why", "")).split())
        if why:
            out.append(why)
            out.append("")
        fields = ", ".join(f"`{f}`" for f in e.get("fields", []))
        tested = []
        if e.get("sync_point"):
            tested.append(f"chaos `{e['sync_point']}`")
        if e.get("mc_scenario"):
            tested.append(f"mc `{e['mc_scenario']}`")
        out.append(f"Fields: {fields} · Tested by: "
                   f"{' and '.join(tested) if tested else '—'}")
        out.append("")
        out.append("| Role | Site | Endpoint |")
        out.append("|---|---|---|")
        eps = sorted(details.get(name, []),
                     key=lambda d: (d[0] not in HB_RELEASE_ROLES,
                                    d[1], d[2]))
        for role, path, line, label in eps:
            out.append(f"| {role} | `{path}:{line}` | `{label}` |")
            n_endpoints += 1
        out.append("")
    if exemptions:
        out.append("## Exemptions")
        out.append("")
        out.append("Acquire loads / fences that deliberately belong to no")
        out.append("edge, each with its DCD_HB_EXEMPT justification:")
        out.append("")
        out.append("| Site | Why |")
        out.append("|---|---|")
        for path, line, why in sorted(exemptions):
            out.append(f"| `{path}:{line}` | {why} |")
        out.append("")
    out.append(f"{len(by_name)} edges ({n_fence_edges} fence-paired), "
               f"{n_endpoints} annotated endpoints, {n_field_licensed} "
               "acquire loads licensed by edge-field membership, "
               f"{len(exemptions)} exemptions.")
    out.append("")
    return "\n".join(out)
