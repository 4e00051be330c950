#!/usr/bin/env python3
"""AST-grade concurrency analyzer for the DCAS deque tree.

Nine passes over src/ (see passes.py and tools/analyze/README.md):

  contract     every atomic access checked against the per-field
               memory-order contract table in contracts.toml (pairing,
               guard loads, implicit orders in call and operator form)
  sync         every CAS/DCAS call site in src/deque, src/reclaim, src/dcas
               maps to a classified sync point from chaos.hpp's roster
               (ChaosController::arm_park checks the other direction)
  progress     every CAS-failure retry loop reaches a backoff or helping
               edge on its failure path (the non-blocking claim as a CFG
               obligation)
  lp           every DCAS site in src/deque carries a DCD_LP
               proof-obligation annotation; coverage is validated against
               the RepAuditor clause roster and rendered into
               docs/PROOF_MAP.md
  guard        every dereference of a pool-allocated node is dominated by
               a live protection scope (Guard object, LFRC acquisition, or
               a DCD_REQUIRES_GUARD caller contract propagated through the
               call graph); escapes, unprotected calls and raw new/delete
               in the pool-owned directories are findings,
               DCD_GUARD_EXEMPT(why) records justified exceptions; the map
               is rendered into docs/GUARD_MAP.md
  shared-plain plain (non-atomic) accesses to the shared-reachable fields
               rostered in [[shared.struct]] must show the claimed
               happens-before licence (owner function or lock token)
  publication  pool nodes stay thread-private from allocation through
               plain field init to the publishing CAS/DCAS; the escape is
               licensed by DCD_PUBLISHES(point, fields), validated against
               the sync roster and the [[publication.node]] field roster,
               and rendered into docs/PUBLICATION_MAP.md
  codec        raw bit arithmetic on values loaded from / stored to
               contracted atomic words must live in the [codec]-rostered
               helpers, which are cross-checked against the compile-time
               tag-disjointness audit and the property tests their roster
               rows name; the reserved-bit constants appear only in the
               layout file and that audit
  hb           every intended synchronizes-with edge is named in the
               [[hb.edge]] roster and proven two-sided by DCD_HB
               endpoint annotations (release/acquire, or the SC-fence
               pair shape for kind="fence" edges); every
               acquire-or-stronger load and every atomic_thread_fence
               must be licensed by an edge or DCD_HB_EXEMPT(why); each
               edge cross-references a chaos sync point or mc scenario,
               and the map is rendered into docs/HB_MAP.md

Plus the annotation roster check: any DCD_* token outside the known set
([annotations] in contracts.toml) is an `unknown-annotation` finding, and a
DCD_NO_SANITIZE_* opt-out needs an adjacent comment.

Exit codes: 0 clean, 1 findings, 2 configuration error. Suppressions use
the format of tools/pylib/suppressions.py
(`<path-suffix> : <rule> : <substring>  # justification`).

Frontends: the token frontend (cpp_model.py) is dependency-free and
authoritative. When the clang python bindings + compile_commands.json are
present (CI's analyze job), clang_frontend.py re-derives atomic accesses
from the real AST and any divergence is itself a finding.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "pylib"))

import cpp_model as cm
import passes
import clang_frontend
import suppressions as sup

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None

RULE_IDS = (
    # pass 1: contract
    "uncontracted-atomic-field", "unresolved-atomic-access",
    "ambiguous-field", "memory-order-contract", "relaxed-guard-load",
    "implicit-operator-access", "implicit-seq-cst",
    "unpaired-release-store", "acquire-without-release",
    # pass 2: sync
    "unannotated-sync-site", "unknown-sync-point",
    "orphan-sync-annotation", "sync-roster-gap",
    # pass 3: progress
    "retry-loop-no-progress", "retry-loop-fallthrough-no-progress",
    "retry-loop-unguarded-continue",
    # pass 4: lp
    "lp-unknown-figure", "lp-unknown-point", "lp-unknown-clause",
    "lp-unattached", "lp-missing", "lp-clause-roster-gap",
    # pass 5: guard
    "unguarded-node-deref", "guard-escape", "unprotected-guarded-call",
    "raw-new-delete",
    # pass 6: shared-plain
    "shared-plain-access", "shared-plain-unknown-field",
    # pass 7: publication
    "unannotated-publication", "unpublished-field",
    "post-publication-plain-write", "publishes-mismatch",
    # pass 8: codec
    "raw-word-arithmetic", "codec-drift", "tag-bits-outside-word",
    # pass 9: hb
    "unrostered-hb-edge", "one-sided-hb-edge", "fence-without-edge",
    "insufficient-order-for-edge",
    # cross-cutting
    "unknown-annotation", "malformed-annotation", "unjustified-nosanitize",
    "frontend-divergence",
)


def config_error(msg: str) -> None:
    print(f"analyze: config error: {msg}", file=sys.stderr)
    raise SystemExit(2)


# --- suppressions (format/parser: tools/pylib/suppressions.py) -------------
#
# The substring is matched against both the snippet and the finding
# message.

Suppression = sup.Suppression


def parse_suppressions(text: str, origin: str) -> list[sup.Suppression]:
    return sup.parse(text, origin, RULE_IDS, on_error=config_error)


def apply_suppressions(findings: list[passes.Finding],
                       sups: list[sup.Suppression]) -> list[passes.Finding]:
    return sup.apply(findings, sups,
                     lambda f: (f.path, f.rule, (f.snippet, f.message)))


# --- model building --------------------------------------------------------

def load_config(path: pathlib.Path) -> dict:
    if tomllib is None:
        config_error("python >= 3.11 (tomllib) required")
    if not path.is_file():
        config_error(f"contract table missing: {path}")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def scan_dir_union(cfg: dict) -> list[str]:
    dirs: list[str] = []
    for section in ("contract", "sync", "progress", "lp", "guard", "shared",
                    "publication", "codec", "hb"):
        for d in cfg.get(section, {}).get("scan_dirs", []):
            if d not in dirs:
                dirs.append(d)
    return dirs or ["src"]


def build_models(root: pathlib.Path,
                 cfg: dict) -> tuple[list[cm.FileModel],
                                     list[passes.Finding]]:
    tokens = cfg.get("progress", {}).get("tokens", [])
    models: list[cm.FileModel] = []
    malformed: list[passes.Finding] = []
    for d in scan_dir_union(cfg):
        base = root / d
        if not base.is_dir():
            config_error(f"scan directory missing: {base}")
        for p in sorted(base.rglob("*")):
            if p.suffix not in cm.SOURCE_EXTENSIONS or not p.is_file():
                continue
            rel = p.relative_to(root).as_posix()
            if any(m.path == rel for m in models):
                continue
            model, bad = cm.build_file_model(rel, p.read_text(), tokens,
                                             cfg.get("guard", {}))
            models.append(model)
            for line, msg in bad:
                malformed.append(passes.Finding(
                    "driver", "malformed-annotation", rel, line, msg,
                    cm.line_text_at(model.lines, line).strip()[:160]))
    return models, malformed


def load_rosters(root: pathlib.Path,
                 cfg: dict) -> tuple[set[str], set[str], set[str]]:
    reg = root / cfg.get("sync", {}).get(
        "registry", "src/dcas/include/dcd/dcas/chaos.hpp")
    if not reg.is_file():
        config_error(f"sync-point registry missing: {reg}")
    roster = cm.parse_sync_roster(reg.read_text())
    if not roster:
        config_error(f"no sync-point declarations found in {reg}")
    aud = root / cfg.get("lp", {}).get(
        "auditor", "src/verify/src/rep_auditor.cpp")
    if not aud.is_file():
        config_error(f"RepAuditor source missing: {aud}")
    clauses = cm.parse_auditor_roster(aud.read_text())
    if not clauses:
        config_error(f"no audit clauses found in {aud}")
    scenarios: set[str] = set()
    scen = cfg.get("hb", {}).get("scenarios", "")
    if scen:
        sp = root / scen
        if not sp.is_file():
            config_error(f"mc scenario source missing: {sp}")
        scenarios = cm.parse_scenario_roster(sp.read_text())
        if not scenarios:
            config_error(f"no scenario names found in {sp}")
    return roster, clauses, scenarios


def load_codec_aux(root: pathlib.Path, cfg: dict) -> dict[str, str]:
    """Read the test files the [[codec.helper]] rows cross-reference.

    Missing files stay absent from the dict; pass 8 reports them as
    codec-drift rather than erroring out."""
    aux: dict[str, str] = {}
    for row in cfg.get("codec", {}).get("helper", []):
        tested_by = row.get("tested_by", "")
        if tested_by and tested_by not in aux:
            p = root / tested_by
            if p.is_file():
                aux[tested_by] = p.read_text()
    return aux


def run_all_passes(models: list[cm.FileModel], cfg: dict, roster: set[str],
                   clauses: set[str],
                   codec_aux: dict[str, str] | None = None,
                   scenarios: set[str] | None = None
                   ) -> list[passes.Finding]:
    findings: list[passes.Finding] = []
    findings += passes.run_contract_pass(models, cfg)
    findings += passes.run_sync_pass(models, cfg, roster)
    findings += passes.run_progress_pass(models, cfg)
    findings += passes.run_lp_pass(models, cfg, roster, clauses)
    findings += passes.run_guard_pass(models, cfg)
    findings += passes.run_shared_plain_pass(models, cfg)
    findings += passes.run_publication_pass(models, cfg, roster)
    findings += passes.run_codec_pass(models, cfg, codec_aux)
    findings += passes.run_hb_pass(models, cfg, roster, scenarios)
    findings += passes.run_annotation_pass(models, cfg)
    return findings


# --- driver ----------------------------------------------------------------

def render(f: passes.Finding) -> str:
    loc = f"{f.path}:{f.line}" if f.line else f.path
    out = f"{loc}: [{f.pass_id}/{f.rule}] {f.message}"
    if f.snippet:
        out += f"\n    {f.snippet}"
    return out


def run_analysis(args) -> int:
    root = args.root.resolve()
    cfg = load_config(args.contracts)
    roster, clauses, scenarios = load_rosters(root, cfg)
    models, malformed = build_models(root, cfg)
    codec_aux = load_codec_aux(root, cfg)
    findings = malformed + run_all_passes(models, cfg, roster, clauses,
                                          codec_aux, scenarios)

    if args.frontend in ("auto", "clang"):
        divergences, notes = clang_frontend.cross_check(
            str(root), str(root / args.build_dir), models,
            verbose=args.verbose)
        if args.frontend == "clang" and not clang_frontend.HAVE_CLANG:
            config_error("--frontend clang requested but the clang python "
                         "bindings are not importable")
        for d in divergences:
            path, _, rest = d.partition(":")
            line = int(rest.split(":", 1)[0]) if rest.split(":", 1)[0].isdigit() else 0
            findings.append(passes.Finding(
                "driver", "frontend-divergence", path, line, d))
        if args.verbose:
            for n in notes:
                print(f"note: {n}", file=sys.stderr)

    sups: list[Suppression] = []
    if args.suppressions.is_file():
        sups = parse_suppressions(args.suppressions.read_text(),
                                  str(args.suppressions))
    total = len(findings)
    findings = apply_suppressions(findings, sups)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    for f in findings:
        print(render(f))
    unused = [s for s in sups if not s.used]
    for s in unused:
        level = "error" if args.strict else "warning"
        print(f"{level}: unused suppression "
              f"({args.suppressions.name}:{s.source_line}): "
              f"{s.path_suffix} : {s.rule} : {s.substring}", file=sys.stderr)

    if args.json:
        payload = {
            "schema": 1,
            "root": str(root),
            "files_scanned": len(models),
            "raw_findings": total,
            "suppressed": total - len(findings),
            "findings": [f.to_dict() for f in findings],
            "unused_suppressions": [dataclasses.asdict(s) for s in unused],
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")

    if args.emit_proof_map or args.check_proof_map:
        text = passes.emit_proof_map(models, cfg, clauses)
        target = args.emit_proof_map or args.check_proof_map
        if args.emit_proof_map:
            target.write_text(text)
            print(f"analyze: wrote {target}", file=sys.stderr)
        else:
            on_disk = target.read_text() if target.is_file() else ""
            if on_disk != text:
                print(f"analyze: {target} is stale; regenerate with "
                      "`python3 tools/analyze/analyze.py --emit-proof-map "
                      f"{target}`", file=sys.stderr)
                return 1

    if args.emit_guard_map or args.check_guard_map:
        text = passes.emit_guard_map(models, cfg)
        target = args.emit_guard_map or args.check_guard_map
        if args.emit_guard_map:
            target.write_text(text)
            print(f"analyze: wrote {target}", file=sys.stderr)
        else:
            on_disk = target.read_text() if target.is_file() else ""
            if on_disk != text:
                print(f"analyze: {target} is stale; regenerate with "
                      "`python3 tools/analyze/analyze.py --emit-guard-map "
                      f"{target}`", file=sys.stderr)
                return 1

    if args.emit_publication_map or args.check_publication_map:
        text = passes.emit_publication_map(models, cfg)
        target = args.emit_publication_map or args.check_publication_map
        if args.emit_publication_map:
            target.write_text(text)
            print(f"analyze: wrote {target}", file=sys.stderr)
        else:
            on_disk = target.read_text() if target.is_file() else ""
            if on_disk != text:
                print(f"analyze: {target} is stale; regenerate with "
                      "`python3 tools/analyze/analyze.py "
                      f"--emit-publication-map {target}`", file=sys.stderr)
                return 1

    if args.emit_hb_map or args.check_hb_map:
        text = passes.emit_hb_map(models, cfg)
        target = args.emit_hb_map or args.check_hb_map
        if args.emit_hb_map:
            target.write_text(text)
            print(f"analyze: wrote {target}", file=sys.stderr)
        else:
            on_disk = target.read_text() if target.is_file() else ""
            if on_disk != text:
                print(f"analyze: {target} is stale; regenerate with "
                      "`python3 tools/analyze/analyze.py --emit-hb-map "
                      f"{target}`", file=sys.stderr)
                return 1

    if args.verbose or findings:
        print(f"analyze: {len(models)} files, {total} raw findings, "
              f"{total - len(findings)} suppressed, "
              f"{len(findings)} reported, {len(sups) - len(unused)}/"
              f"{len(sups)} suppressions used", file=sys.stderr)
    if findings:
        return 1
    if unused and args.strict:
        return 1
    return 0


# --- self test -------------------------------------------------------------

SELF_TEST_CONFIG = {
    "contract": {
        "scan_dirs": ["src"],
        "field": [
            {"owner": "Foo", "member": "guard_", "loads": ["acquire"],
             "stores": ["release"], "rmw": [], "guards": True,
             "pairing": "internal", "why": "seeded publication field"},
        ],
    },
    "sync": {
        "scan_dirs": ["src/deque"],
        "pseudo": {"policy-internal": "seeded"},
    },
    "progress": {
        "scan_dirs": ["src/deque"],
        "tokens": ["backoff.pause("],
    },
    "lp": {
        "scan_dirs": ["src/deque"],
        "figures": ["Fig3"],
    },
}

SELF_TEST_ROSTER = {"dcas.any", "pop.commit"}
SELF_TEST_CLAUSES = {"array.index_range", "array.segment_full"}

SELF_TEST_CASES = [
    # (path, source, expected rule ids) — at least one seeded violation per
    # pass.
    ("src/other/contract_bad.hpp",
     "struct Foo {\n"
     "  std::atomic<int> guard_;\n"
     "  std::atomic<int> orphan_;\n"
     "  int read() { return guard_.load(std::memory_order_relaxed); }\n"
     "  void bump() { guard_ += 2; }\n"
     "  void set() { guard_.store(1, std::memory_order_release); }\n"
     "};\n",
     ["uncontracted-atomic-field",        # orphan_ has no contract row
      "memory-order-contract",            # relaxed load vs loads=[acquire]
      "relaxed-guard-load",               # guards=true field read relaxed
      "implicit-operator-access",         # guard_ += 2
      "unpaired-release-store",           # release store, no acquire load
      "lp-clause-roster-gap",             # no LP annotations at all ...
      "lp-clause-roster-gap",             # ... so both clauses uncovered
      "sync-roster-gap",                  # nothing claims dcas.any ...
      "sync-roster-gap"]),                # ... or pop.commit
    ("src/deque/sync_bad.hpp",
     "struct D {\n"
     "  bool f(W& w) {\n"
     "    // DCD_SYNC(dcas.any)\n"
     "    // DCD_LP(Fig3:5-6, dcas.any, inv=array.index_range, \"pub\")\n"
     "    if (Dcas::dcas(w.a, w.b, o1, o2, n1, n2)) return true;\n"
     "    Dcas::cas(w.a, o1, n1);\n"
     "    return false;\n"
     "  }\n"
     "};\n",
     ["unannotated-sync-site",            # the bare Dcas::cas site
      "lp-missing",                       # ... which also lacks a DCD_LP
      "lp-clause-roster-gap",             # array.segment_full uncovered
      "sync-roster-gap"]),                # pop.commit never claimed
    ("src/deque/sync_unknown.hpp",
     "struct D {\n"
     "  void g(W& w) {\n"
     "    // DCD_SYNC(bogus.point)\n"
     "    // DCD_LP(Fig99:1, bogus.point, inv=not.a.clause, \"x\")\n"
     "    Dcas::cas(w.a, o1, n1);\n"
     "  }\n"
     "};\n",
     ["unknown-sync-point",               # bogus.point not in roster/pseudo
      "lp-unknown-figure",                # Fig99
      "lp-unknown-point",                 # bogus.point
      "lp-unknown-clause",                # not.a.clause
      "lp-clause-roster-gap",             # both clauses uncovered
      "lp-clause-roster-gap",
      "sync-roster-gap",                  # dcas.any and pop.commit
      "sync-roster-gap"]),
    ("src/deque/exec_notify_bad.hpp",
     # Notify-form site (executor idiom: the constant IS the claim) against
     # an exec point the seeded roster does not declare: the park rule it
     # feeds could never be armed, so the site must be flagged.
     "struct E {\n"
     "  static void fire(dcas::ChaosController* c) {\n"
     "    c->notify(sync_point::kExecPark);\n"
     "  }\n"
     "};\n",
     ["unknown-sync-point",               # exec.park absent from roster
      "lp-clause-roster-gap",             # no LP annotations at all ...
      "lp-clause-roster-gap",             # ... so both clauses uncovered
      "sync-roster-gap",                  # dcas.any never claimed ...
      "sync-roster-gap"]),                # ... nor pop.commit
    ("src/deque/progress_bad.hpp",
     "struct D {\n"
     "  void h(W& w) {\n"
     "    for (;;) {\n"
     "      // DCD_SYNC(dcas.any)\n"
     "      // DCD_LP(Fig3:7, dcas.any, inv=array.index_range, \"pub\")\n"
     "      if (Dcas::cas(w.a, o1, n1)) return;\n"
     "      if (spin()) continue;\n"
     "      backoff.pause();\n"
     "    }\n"
     "  }\n"
     "  void i(W& w) {\n"
     "    for (;;) {\n"
     "      backoff.pause();\n"
     "      // DCD_SYNC(pop.commit)\n"
     "      // DCD_LP(Fig3:9, pop.commit, aux, inv=array.segment_full,"
     " \"q\")\n"
     "      if (Dcas::cas(w.b, o2, n2)) return;\n"
     "    }\n"
     "  }\n"
     "  void j(W& w) {\n"
     "    for (;;) {\n"
     "      // DCD_SYNC(dcas.any)\n"
     "      // DCD_LP(Fig3:11, dcas.any, inv=array.index_range, \"r\")\n"
     "      if (Dcas::cas(w.c, o3, n3)) return;\n"
     "    }\n"
     "  }\n"
     "};\n",
     ["retry-loop-unguarded-continue",      # h: `continue` skips the pause
      "retry-loop-fallthrough-no-progress",  # i: pause precedes the CAS
      "retry-loop-no-progress"]),            # j: no progress edge at all
]

# Passes 5/6 + the annotation roster get their own config so the seeded
# sources are checked by the new passes alone (no sync/lp roster noise).
GUARD_TEST_CONFIG = {
    "guard": {
        "scan_dirs": ["src/guard"],
        "node_types": ["Node"],
        "lfrc_tokens": ["R::load("],
    },
    "shared": {
        "scan_dirs": ["src/guard"],
        "struct": [{
            "owner": "Box", "file": "shared_bad.hpp",
            "fields": ["a", "b"], "functions": ["locked_get"],
            "tokens": ["lock.exchange(true"],
            "why": "seeded try-lock protocol",
        }],
    },
    "annotations": {
        "known": ["DCD_SYNC", "DCD_LP", "DCD_PROGRESS",
                  "DCD_REQUIRES_GUARD", "DCD_GUARD_EXEMPT",
                  "DCD_NO_SANITIZE_*"],
    },
}

GUARD_BAD_SRC = (
    "struct D {\n"
    "  int peek() {\n"
    "    Node* n = head();\n"
    "    return n->value;\n"              # unguarded-node-deref
    "  }\n"
    "  Node* grab() {\n"
    "    Reclaim::Guard guard(dom_);\n"
    "    Node* n = head();\n"
    "    use(n->value);\n"
    "    return n;\n"                     # guard-escape
    "  }\n"
    "  void caller() {\n"
    "    fetch();\n"                      # unprotected-guarded-call
    "  }\n"
    "  // DCD_REQUIRES_GUARD(caller pins the EBR domain)\n"
    "  Node* fetch() {\n"
    "    Node* n = head();\n"
    "    use(n->value);\n"
    "    return n;\n"
    "  }\n"
    "};\n")

GUARD_CLEAN_SRC = (
    "struct D {\n"
    "  void walk() {\n"
    "    Reclaim::Guard guard(dom_);\n"
    "    Node* n = head();\n"
    "    use(n->value);\n"
    "    fetch();\n"
    "  }\n"
    "  // DCD_GUARD_EXEMPT(single-threaded teardown)\n"
    "  ~D() {\n"
    "    Node* n = head();\n"
    "    use(n->value);\n"
    "  }\n"
    "  // DCD_REQUIRES_GUARD(caller pins the EBR domain)\n"
    "  Node* fetch() {\n"
    "    Node* t = R::load(top_);\n"
    "    use(t->value);\n"
    "    return t;\n"
    "  }\n"
    "};\n")

SHARED_BAD_SRC = (
    "struct Box {\n"
    "  std::atomic<bool> lock{false};\n"
    "  int a = 0;\n"
    "  int b = 0;\n"
    "  int c = 0;\n"                      # not rostered: drift finding
    "};\n"
    "struct M {\n"
    "  int locked_get(Box& x) { return x.a; }\n"
    "  void put(Box& x) {\n"
    "    while (x.lock.exchange(true, std::memory_order_acquire)) {}\n"
    "    x.a = 1;\n"                      # licensed by the lock token
    "    x.lock.store(false, std::memory_order_release);\n"
    "  }\n"
    "  int steal(Box& x) { return x.b; }\n"  # shared-plain-access
    "};\n")


# Passes 7/8 likewise get their own scoped configs: the publication cases
# exercise the allocation->init->publish flow, the codec cases the
# tainted-value / store-argument bit-op screens and the roster drift gate.
PUB_TEST_CONFIG = {
    "sync": {"pseudo": {"policy-internal": "seeded"}},
    "publication": {
        "scan_dirs": ["src/pub"],
        "alloc_tokens": ["allocate_node("],
        "publish_tokens": ["Dcas::dcas(", "Dcas::cas("],
        "node": [
            {"type": "Node", "file": "pub_bad.hpp",
             "fields": ["left", "right", "value"], "why": "seeded"},
            {"type": "Node", "file": "pub_clean.hpp",
             "fields": ["left", "right", "value"], "why": "seeded"},
        ],
    },
}

PUB_BAD_SRC = (
    "struct D {\n"
    "  void push_a(W& w) {\n"
    "    Node* n = allocate_node();\n"
    "    store_init(n->left, l);\n"
    "    Dcas::dcas(w.a, w.b, o1, o2, ptr(n), ptr(n));\n"  # unannotated
    "  }\n"
    "  void push_b(W& w) {\n"
    "    Node* n = allocate_node();\n"
    "    store_init(n->left, l);\n"
    "    // DCD_PUBLISHES(dcas.any, left+right)\n"
    "    Dcas::dcas(w.a, w.b, o1, o2, ptr(n), ptr(n));\n"  # value unwritten
    "    n->value = v;\n"                        # post-publication write
    "  }\n"
    "  void push_c(W& w) {\n"
    "    Node* n = allocate_node();\n"
    "    store_init(n->left, l);\n"
    "    store_init(n->right, r);\n"
    "    store_init(n->value, v);\n"
    "    // DCD_PUBLISHES(bogus.point, left+right+value)\n"
    "    Dcas::cas(w.a, o1, ptr(n));\n"          # unknown escape point
    "  }\n"
    "};\n")

PUB_CLEAN_SRC = (
    "struct D {\n"
    "  void push(W& w) {\n"
    "    for (;;) {\n"
    "      Node* n = allocate_node();\n"
    "      store_init(n->left, l);\n"
    "      store_init(n->right, r);\n"
    "      init_value(n);\n"                     # vouched, not observed
    "      // DCD_PUBLISHES(dcas.any, left+right+value)\n"
    "      if (Dcas::dcas(w.a, w.b, o1, o2, ptr(n), ptr(n))) return;\n"
    "    }\n"
    "  }\n"
    "};\n")

CODEC_TEST_CONFIG = {
    "codec": {
        "scan_dirs": ["src/codec"],
        "load_tokens": ["Dcas::load("],
        "store_tokens": ["store_init("],
        "layout": "src/codec/word_seed.hpp",
        "payload_shift": 3,
        "audit": "src/codec/word_seed.hpp",
        "audit_needles": ["kMaxPayload == (~0ull >> kPayloadShift)"],
        "helper": [
            {"file": "word_seed.hpp",
             "functions": ["encode_payload", "decode_payload"],
             "tested_by": "tests/seed_test.cpp",
             "tested_tokens": ["encode_payload"], "why": "seeded"},
            {"file": "word_seed.hpp", "functions": ["ghost_helper"],
             "why": "seeded drift: helper vanished from the tree"},
        ],
    },
}

CODEC_SEED_SRC = (
    "inline constexpr std::uint64_t kPayloadShift = 3;\n"
    "static_assert(kMaxPayload == (~0ull >> kPayloadShift));\n"
    "constexpr std::uint64_t encode_payload(std::uint64_t p) noexcept {\n"
    "  return p << kPayloadShift;\n"
    "}\n"
    "constexpr std::uint64_t decode_payload(std::uint64_t w) noexcept {\n"
    "  return w >> kPayloadShift;\n"
    "}\n")

CODEC_BAD_SRC = (
    "struct D {\n"
    "  bool f(W& w) {\n"
    "    const std::uint64_t v = Dcas::load(w.a);\n"
    "    if ((v & kDeletedBit) != 0) return true;\n"   # tainted bit-and
    "    store_init(w.b, x | kDeletedBit);\n"          # store-arg bit-or
    "    return false;\n"
    "  }\n"
    "};\n")

CODEC_CLEAN_SRC = (
    "struct D {\n"
    "  bool g(W& w) {\n"
    "    const std::uint64_t v = Dcas::load(w.a);\n"
    "    if (is_deleted(v)) return true;\n"
    "    store_init(w.b, encode_payload(p));\n"
    "    return false;\n"
    "  }\n"
    "};\n")

CODEC_AUX = {"tests/seed_test.cpp":
             "TEST(Seed, RoundTrip) { encode_payload(1); }\n"}


# Pass 9 gets its own scoped config: the clean file proves a sync-kind edge
# and a fence-kind (Dekker) edge; the bad file seeds one violation per hb
# rule when run alongside it.
HB_CLEAN_CONFIG = {
    "hb": {
        "scan_dirs": ["src/hb"],
        "edge": [
            {"name": "seed.flag.publish", "fields": ["Seed::flag_"],
             "sync_point": "dcas.any", "why": "seeded sync edge"},
            {"name": "seed.park.dekker", "kind": "fence",
             "fields": ["Seed::parked_"], "sync_point": "pop.commit",
             "why": "seeded Dekker edge"},
        ],
    },
}

HB_BAD_CONFIG = {
    "hb": {
        "scan_dirs": ["src/hb"],
        "edge": HB_CLEAN_CONFIG["hb"]["edge"] + [
            {"name": "seed.lonely", "fields": ["Seed::lone_"],
             "sync_point": "dcas.any", "why": "seeded one-sided edge"},
        ],
    },
}

HB_CLEAN_SRC = (
    "struct Seed {\n"
    "  std::atomic<int> flag_;\n"
    "  std::atomic<int> parked_;\n"
    "  void pub() {\n"
    "    // DCD_HB(seed.flag.publish, role=release)\n"
    "    flag_.store(1, std::memory_order_release);\n"
    "  }\n"
    "  int get() {\n"
    "    // DCD_HB(seed.flag.publish, role=acquire)\n"
    "    return flag_.load(std::memory_order_acquire);\n"
    "  }\n"
    "  void park() {\n"
    "    parked_.fetch_add(1, std::memory_order_relaxed);\n"
    "    // DCD_HB(seed.park.dekker, role=fence-release)\n"
    "    std::atomic_thread_fence(std::memory_order_seq_cst);\n"
    "    recheck();\n"
    "  }\n"
    "  void wake() {\n"
    "    // DCD_HB(seed.park.dekker, role=fence-acquire)\n"
    "    std::atomic_thread_fence(std::memory_order_seq_cst);\n"
    "    if (parked_.load(std::memory_order_relaxed) != 0) notify();\n"
    "  }\n"
    "  // DCD_HB_EXEMPT(seeded telemetry snapshot)\n"
    "  int snap() { return parked_.load(std::memory_order_seq_cst); }\n"
    "};\n")

HB_BAD_SRC = (
    "struct Seed {\n"
    "  std::atomic<int> flag_;\n"
    "  std::atomic<int> lone_;\n"
    "  void ghost() {\n"
    "    // DCD_HB(seed.bogus, role=release)\n"
    "    flag_.store(1, std::memory_order_release);\n"   # unrostered edge
    "  }\n"
    "  void weak() {\n"
    "    // DCD_HB(seed.flag.publish, role=release)\n"
    "    flag_.store(1, std::memory_order_relaxed);\n"   # too weak
    "  }\n"
    "  void bare() {\n"
    "    std::atomic_thread_fence(std::memory_order_seq_cst);\n"  # no edge
    "  }\n"
    "  int lonely_read() {\n"
    "    // DCD_HB(seed.lonely, role=acquire)\n"
    "    return lone_.load(std::memory_order_acquire);\n"  # no release side
    "  }\n"
    "};\n")


# The hygiene rules (pass 1 implicit-seq-cst, pass 5 raw-new-delete, pass 8
# tag-bits-outside-word, annotation unjustified-nosanitize) on the shapes
# that need care: multiline argument lists, comments and strings, `= delete`,
# directories outside the pool-owned set, a justified opt-out, the layout
# file itself. Only these four rules are compared.
HYGIENE_RULES = {"implicit-seq-cst", "raw-new-delete",
                 "tag-bits-outside-word", "unjustified-nosanitize"}
HYGIENE_CONFIG = {
    "contract": {"scan_dirs": ["src"], "field": [
        {"member": "a", "loads": ["seq_cst"], "stores": ["seq_cst"],
         "rmw": ["relaxed"], "cas_success": ["acq_rel"], "pairing": "none",
         "why": "seeded: seq_cst allowed, implicitness still flagged"}]},
    "guard": {"new_delete_dirs": ["src/deque", "src/reclaim"]},
    "codec": {"scan_dirs": ["src"], "layout": "src/dcas/word.hpp",
              "tag_tokens": ["kDeletedBit"]},
}
HYGIENE_CASES = [
    ("src/deque/atomic.hpp",
     "void f(std::atomic<int>& a) {\n  a.load();\n  a.store(1);\n"
     "  a.fetch_add(2, std::memory_order_relaxed);\n}\n",
     ["implicit-seq-cst", "implicit-seq-cst"]),
    ("src/deque/multiline.hpp",
     "bool g(std::atomic<long>& a, long& e) {\n"
     "  return a.compare_exchange_strong(\n      e, 42,\n"
     "      std::memory_order_acq_rel);\n}\n"
     "long h(std::atomic<long>& a) {\n  return a.load(\n  );\n}\n",
     ["implicit-seq-cst"]),
    ("src/deque/masked.hpp",
     "// a.load() in a comment is fine\n/* so is a.store(1) here */\n"
     "const char* s = \"x.load() delete\";\n",
     []),
    ("src/reclaim/new.hpp",
     "#include <new>\nstruct S { S(const S&) = delete; };\n"
     "void f() {\n  auto* n = new S();\n  delete n;\n}\n",
     ["raw-new-delete", "raw-new-delete"]),
    ("src/util/new.hpp", "void f() { auto* p = new int; delete p; }\n", []),
    ("src/util/nosan.hpp",
     "DCD_NO_SANITIZE_THREAD\nvoid naked() {}\n\n"
     "// LFRC re-init of recycled headers: stale readers discard the value\n"
     "// via a failed validation DCAS, so the overlap is benign.\n"
     "DCD_NO_SANITIZE_ADDRESS\nvoid justified() {}\n",
     ["unjustified-nosanitize"]),
    ("src/dcas/bits.hpp",
     "bool weird(std::uint64_t w) {\n  return (w & kDeletedBit) != 0;\n}\n",
     ["tag-bits-outside-word"]),
    ("src/dcas/word.hpp",
     "inline constexpr std::uint64_t kDeletedBit = 1ull << 1;\n", []),
]


def self_test() -> int:
    failures = []
    for path, source, expected in HYGIENE_CASES:
        model, _ = cm.build_file_model(path, source, [])
        findings = (passes.run_contract_pass([model], HYGIENE_CONFIG)
                    + passes.run_guard_pass([model], HYGIENE_CONFIG)
                    + passes.run_codec_pass([model], HYGIENE_CONFIG)
                    + passes.run_annotation_pass([model], HYGIENE_CONFIG))
        got = sorted(f.rule for f in findings if f.rule in HYGIENE_RULES)
        if got != sorted(expected):
            failures.append(f"{path}: expected {sorted(expected)}, got {got}")

    for path, source, expected in SELF_TEST_CASES:
        tokens = SELF_TEST_CONFIG["progress"]["tokens"]
        model, malformed = cm.build_file_model(path, source, tokens)
        findings = run_all_passes([model], SELF_TEST_CONFIG,
                                  SELF_TEST_ROSTER, SELF_TEST_CLAUSES)
        got = [f.rule for f in findings] + [m for _, m in malformed]
        if sorted(got) != sorted(expected):
            failures.append(f"{path}: expected {sorted(expected)}, "
                            f"got {sorted(got)}")

    # A clean seeded file must produce zero findings (all four passes).
    clean_src = (
        "struct D {\n"
        "  std::atomic<int> guard_;\n"
        "  bool f(W& w) {\n"
        "    for (;;) {\n"
        "      int g = guard_.load(std::memory_order_acquire);\n"
        "      // DCD_SYNC(dcas.any)\n"
        "      // DCD_LP(Fig3:5-6, dcas.any, inv=array.index_range,"
        " \"published\")\n"
        "      if (Dcas::dcas(w.a, w.b, o1, o2, n1, n2)) return g != 0;\n"
        "      // DCD_SYNC(pop.commit)\n"
        "      // DCD_LP(Fig3:9, pop.commit, inv=array.segment_full,"
        " \"emptied\")\n"
        "      if (Dcas::cas(w.a, o1, n1)) return true;\n"
        "      backoff.pause();\n"
        "    }\n"
        "  }\n"
        "  void set() { guard_.store(1, std::memory_order_release); }\n"
        "};\n")
    model, malformed = cm.build_file_model(
        "src/deque/clean.hpp", clean_src,
        SELF_TEST_CONFIG["progress"]["tokens"])
    findings = run_all_passes([model], SELF_TEST_CONFIG, SELF_TEST_ROSTER,
                              SELF_TEST_CLAUSES)
    if findings or malformed:
        failures.append("clean seeded file produced findings: "
                        + "; ".join(f.rule for f in findings))

    # The proof map renders both annotations from the clean file.
    pm = passes.emit_proof_map([model], SELF_TEST_CONFIG, SELF_TEST_CLAUSES)
    for needle in ("clean.hpp:8", "clean.hpp:11", "`array.index_range`",
                   "Fig3 l.5-6", "2 linearization points"):
        if needle not in pm:
            failures.append(f"proof map missing '{needle}'")

    # Suppressions: a justified entry suppresses and is marked used; a
    # missing justification is a config error (exit 2).
    bad_model, _ = cm.build_file_model(
        "src/other/contract_bad.hpp", SELF_TEST_CASES[0][1], [])
    findings = passes.run_contract_pass([bad_model], SELF_TEST_CONFIG)
    sups = parse_suppressions(
        "contract_bad.hpp : implicit-operator-access : guard_ "
        " # seeded operator case\n", "<selftest>")
    left = apply_suppressions(findings, sups)
    if any(f.rule == "implicit-operator-access" for f in left) \
            or not sups[0].used:
        failures.append("justified suppression did not apply")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parse_suppressions("x.hpp : lp-missing : foo\n", "<selftest>")
        failures.append("missing justification was accepted")
    except SystemExit as e:
        if e.code != 2:
            failures.append("config error must exit 2")

    # A malformed DCD_LP is reported, not silently ignored.
    _, bad = cm.build_file_model(
        "src/deque/malformed.hpp",
        "// DCD_LP(Fig3, no-inv-clause)\nbool f();\n", [])
    if not bad:
        failures.append("malformed DCD_LP not reported")

    # Pass 5: one seeded violation per guard rule, plus a clean file.
    gcfg = GUARD_TEST_CONFIG["guard"]
    gbad_model, gbad_ann = cm.build_file_model(
        "src/guard/guard_bad.hpp", GUARD_BAD_SRC, [], gcfg)
    got = sorted(f.rule for f in passes.run_guard_pass([gbad_model],
                                                       GUARD_TEST_CONFIG))
    want = ["guard-escape", "unguarded-node-deref",
            "unprotected-guarded-call"]
    if got != want or gbad_ann:
        failures.append(f"guard seeded case: expected {want}, got {got}")

    gclean_model, gclean_ann = cm.build_file_model(
        "src/guard/guard_clean.hpp", GUARD_CLEAN_SRC, [], gcfg)
    gf = passes.run_guard_pass([gclean_model], GUARD_TEST_CONFIG)
    if gf or gclean_ann:
        failures.append("guard-clean seeded file produced findings: "
                        + "; ".join(f.rule for f in gf))

    # The guard map renders all three discharge kinds from the clean file.
    gmap = passes.emit_guard_map([gclean_model], GUARD_TEST_CONFIG)
    for needle in ("`fetch`", "caller-provided guard", "local guard scope",
                   "`DCD_GUARD_EXEMPT` — single-threaded teardown"):
        if needle not in gmap:
            failures.append(f"guard map missing '{needle}'")

    # Pass 6: a plain access outside the licence + a drifted plain member;
    # the token-licensed and owner-function accesses stay silent.
    smodel, _ = cm.build_file_model("src/guard/shared_bad.hpp",
                                    SHARED_BAD_SRC, [], gcfg)
    got = sorted(f.rule for f in passes.run_shared_plain_pass(
        [smodel], GUARD_TEST_CONFIG))
    want = ["shared-plain-access", "shared-plain-unknown-field"]
    if got != want:
        failures.append(f"shared-plain seeded case: expected {want}, "
                        f"got {got}")

    # unknown-annotation: a typoed DCD_ token is a finding.
    amodel, _ = cm.build_file_model(
        "src/guard/ann_bad.hpp", "// DCD_SYNCC(dcas.any)\nvoid f();\n", [])
    got = [f.rule for f in passes.run_annotation_pass([amodel],
                                                      GUARD_TEST_CONFIG)]
    if got != ["unknown-annotation"]:
        failures.append(f"unknown-annotation seeded case got {got}")

    # Malformed guard annotations (empty why, or attaching to no function)
    # are reported, not silently dropped.
    _, gbad1 = cm.build_file_model(
        "src/guard/empty.hpp", "// DCD_GUARD_EXEMPT()\nvoid f() {}\n", [])
    _, gbad2 = cm.build_file_model(
        "src/guard/orphan.hpp", "// DCD_REQUIRES_GUARD(note)\nint x = 3;\n",
        [])
    if not gbad1 or not gbad2:
        failures.append("malformed guard annotation not reported")

    # Pass 7: the seeded file walks one violation per publication rule —
    # an unannotated escape, an unwritten rostered field, a plain write
    # after the publishing DCAS, and an escape point outside the roster.
    pbad_model, pbad_ann = cm.build_file_model(
        "src/pub/pub_bad.hpp", PUB_BAD_SRC, [])
    pclean_model, pclean_ann = cm.build_file_model(
        "src/pub/pub_clean.hpp", PUB_CLEAN_SRC, [])
    pub_findings = passes.run_publication_pass(
        [pbad_model, pclean_model], PUB_TEST_CONFIG, SELF_TEST_ROSTER)
    got = sorted(f.rule for f in pub_findings)
    want = ["post-publication-plain-write", "publishes-mismatch",
            "unannotated-publication", "unpublished-field"]
    if got != want or pbad_ann:
        failures.append(f"publication seeded case: expected {want}, "
                        f"got {got}")
    pf = [f for f in pub_findings if f.path.endswith("pub_clean.hpp")]
    if pf or pclean_ann:
        failures.append("publication-clean seeded file produced findings: "
                        + "; ".join(f.rule for f in pf))

    # The publication map renders verified and vouched fields distinctly.
    pmap = passes.emit_publication_map([pclean_model], PUB_TEST_CONFIG)
    for needle in ("(vouched)", "✓ l.", "1 publishing stores",
                   "dcas.any"):
        if needle not in pmap:
            failures.append(f"publication map missing '{needle}'")

    # A malformed DCD_PUBLISHES is reported, not silently ignored.
    _, bad = cm.build_file_model(
        "src/pub/malformed.hpp",
        "// DCD_PUBLISHES(dcas.any)\nbool f();\n", [])
    if not bad:
        failures.append("malformed DCD_PUBLISHES not reported")

    # Pass 8: a tainted bit-and, a raw store-argument bit-or, and a
    # rostered helper that vanished from the tree (codec-drift).
    cseed_model, _ = cm.build_file_model(
        "src/codec/word_seed.hpp", CODEC_SEED_SRC, [])
    cbad_model, _ = cm.build_file_model(
        "src/codec/codec_bad.hpp", CODEC_BAD_SRC, [])
    got = sorted(f.rule for f in passes.run_codec_pass(
        [cbad_model, cseed_model], CODEC_TEST_CONFIG, CODEC_AUX))
    want = ["codec-drift", "raw-word-arithmetic", "raw-word-arithmetic"]
    if got != want:
        failures.append(f"codec seeded case: expected {want}, got {got}")

    # A helper-routed clean file raises no raw-word-arithmetic.
    cclean_model, _ = cm.build_file_model(
        "src/codec/codec_clean.hpp", CODEC_CLEAN_SRC, [])
    cf = [f for f in passes.run_codec_pass(
        [cclean_model, cseed_model], CODEC_TEST_CONFIG, CODEC_AUX)
        if f.rule == "raw-word-arithmetic"]
    if cf:
        failures.append("codec-clean seeded file produced findings: "
                        + "; ".join(f.message for f in cf))

    # Layout drift: a payload_shift pin disagreeing with the header fails.
    drift_cfg = {"codec": dict(CODEC_TEST_CONFIG["codec"],
                               payload_shift=4, helper=[])}
    got = [f.rule for f in passes.run_codec_pass(
        [cseed_model], drift_cfg, CODEC_AUX)]
    if got != ["codec-drift"]:
        failures.append(f"codec layout-drift seeded case got {got}")

    # Pass 9: one seeded violation per hb rule (the clean file supplies the
    # proven edges the bad file half-uses), then the clean file alone.
    hclean_model, hclean_ann = cm.build_file_model(
        "src/hb/hb_clean.hpp", HB_CLEAN_SRC, [])
    hbad_model, hbad_ann = cm.build_file_model(
        "src/hb/hb_bad.hpp", HB_BAD_SRC, [])
    got = sorted(f.rule for f in passes.run_hb_pass(
        [hbad_model, hclean_model], HB_BAD_CONFIG, SELF_TEST_ROSTER))
    want = ["fence-without-edge", "insufficient-order-for-edge",
            "one-sided-hb-edge", "unrostered-hb-edge"]
    if got != want or hbad_ann or hclean_ann:
        failures.append(f"hb seeded case: expected {want}, got {got}")

    hf = passes.run_hb_pass([hclean_model], HB_CLEAN_CONFIG,
                            SELF_TEST_ROSTER)
    if hf:
        failures.append("hb-clean seeded file produced findings: "
                        + "; ".join(f.rule for f in hf))

    # Deleting a fence-side DCD_HB must turn the tree red two ways: the
    # fence loses its licence and the Dekker edge goes one-sided.
    dropped = HB_CLEAN_SRC.replace(
        "    // DCD_HB(seed.park.dekker, role=fence-acquire)\n", "")
    hdrop_model, _ = cm.build_file_model("src/hb/hb_clean.hpp", dropped, [])
    got = sorted(f.rule for f in passes.run_hb_pass(
        [hdrop_model], HB_CLEAN_CONFIG, SELF_TEST_ROSTER))
    if got != ["fence-without-edge", "one-sided-hb-edge"]:
        failures.append(f"hb fence-deletion seeded case got {got}")

    # Roster validation: an edge whose mc_scenario resolves nowhere (and
    # has no endpoints) is unrostered + one-sided on both ends.
    ghost_cfg = {"hb": {"scan_dirs": ["src/hb"], "edge": [
        {"name": "seed.ghost", "fields": ["Seed::flag_"],
         "mc_scenario": "not-a-scenario", "why": "seeded"}]}}
    got = sorted(f.rule for f in passes.run_hb_pass(
        [], ghost_cfg, SELF_TEST_ROSTER, {"list-mixed"}))
    if got != ["one-sided-hb-edge", "one-sided-hb-edge",
               "unrostered-hb-edge"]:
        failures.append(f"hb ghost-scenario seeded case got {got}")

    # The HB map renders both edge kinds, the endpoint table, and the
    # exemption row from the clean file.
    hmap = passes.emit_hb_map([hclean_model], HB_CLEAN_CONFIG)
    for needle in ("## `seed.park.dekker` — fence",
                   "`atomic_thread_fence(seq_cst)`",
                   "`flag_.store(release)`", "chaos `dcas.any`",
                   "seeded telemetry snapshot",
                   "2 edges (1 fence-paired), 4 annotated endpoints"):
        if needle not in hmap:
            failures.append(f"hb map missing '{needle}'")

    # A malformed DCD_HB / DCD_HB_EXEMPT is reported, not dropped.
    _, bad = cm.build_file_model(
        "src/hb/malformed.hpp",
        "// DCD_HB(seed.flag.publish)\nvoid f();\n", [])
    _, bad2 = cm.build_file_model(
        "src/hb/malformed2.hpp", "// DCD_HB_EXEMPT()\nvoid g();\n", [])
    if not bad or not bad2:
        failures.append("malformed DCD_HB/DCD_HB_EXEMPT not reported")

    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 2
    print(f"self-test OK ({len(SELF_TEST_CASES) + len(HYGIENE_CASES)} "
          "seeded cases, 9 passes + annotation roster covered)")
    return 0


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--root", type=pathlib.Path,
                    default=here.parents[1],
                    help="repo root (default: two levels up)")
    ap.add_argument("--contracts", type=pathlib.Path,
                    default=here / "contracts.toml")
    ap.add_argument("--suppressions", type=pathlib.Path,
                    default=here / "analyze.suppressions")
    ap.add_argument("--build-dir", default="build",
                    help="build dir holding compile_commands.json "
                         "(clang frontend only)")
    ap.add_argument("--frontend", choices=["auto", "token", "clang"],
                    default="auto",
                    help="auto: token model + clang cross-check when the "
                         "bindings are importable; clang: require bindings")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write machine-readable findings to this path")
    ap.add_argument("--emit-proof-map", type=pathlib.Path, default=None,
                    help="write the generated LP proof map (markdown)")
    ap.add_argument("--check-proof-map", type=pathlib.Path, default=None,
                    help="fail (exit 1) if the on-disk proof map is stale")
    ap.add_argument("--emit-guard-map", type=pathlib.Path, default=None,
                    help="write the generated guard-obligation map")
    ap.add_argument("--check-guard-map", type=pathlib.Path, default=None,
                    help="fail (exit 1) if the on-disk guard map is stale")
    ap.add_argument("--emit-publication-map", type=pathlib.Path,
                    default=None,
                    help="write the generated safe-publication map")
    ap.add_argument("--check-publication-map", type=pathlib.Path,
                    default=None,
                    help="fail (exit 1) if the on-disk publication map is "
                         "stale")
    ap.add_argument("--emit-hb-map", type=pathlib.Path, default=None,
                    help="write the generated happens-before edge map")
    ap.add_argument("--check-hb-map", type=pathlib.Path, default=None,
                    help="fail (exit 1) if the on-disk HB map is stale")
    ap.add_argument("--strict", action="store_true",
                    help="unused suppressions are errors, not warnings")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation self test and exit")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run_analysis(args)


if __name__ == "__main__":
    raise SystemExit(main())
