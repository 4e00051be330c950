#!/usr/bin/env python3
"""Fixture-tree corpus check for analyzer passes 1-2 + 5-9 + annotations.

Runs the contract (scoped to the hygiene fixtures), guard, shared-plain,
publication, codec, hb, sync (notify-form, scoped to the executor
exemplar), and annotation passes over the mini-sources in
tools/analyze/fixtures/: the good/
tree must analyze clean, and each bad/ file must produce exactly its
expected rule multiset. This pins the passes' behaviour on curated inputs that are
independent of the real tree — an analyzer regression that stops
*finding* violations fails here even while the (clean) tree keeps
passing --strict.

Exit codes: 0 all fixtures behave, 1 mismatch, 2 fixture tree missing.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cpp_model as cm  # noqa: E402
import passes  # noqa: E402

FIXTURES = HERE / "fixtures"

# The analysis config the fixtures are written against (mirrors the
# shape of contracts.toml's [guard]/[shared]/[annotations] sections).
CONFIG = {
    "contract": {
        "scan_dirs": ["fixtures/bad/hygiene_violations.hpp",
                      "fixtures/good/clean_hygiene.hpp"],
        "field": [
            {"member": "flag_", "loads": ["seq_cst"], "stores": [],
             "rmw": [], "pairing": "none",
             "why": "fixture: seq_cst allowed, implicitness still flagged"},
        ],
    },
    "guard": {
        "scan_dirs": ["fixtures"],
        "node_types": ["Node"],
        "lfrc_tokens": ["R::load("],
        "new_delete_dirs": ["fixtures"],
    },
    "shared": {
        "scan_dirs": ["fixtures"],
        "struct": [
            {"owner": "Box", "file": "good/clean_shared.hpp",
             "fields": ["a"], "functions": ["owner_get"],
             "tokens": ["lock.exchange(true"],
             "why": "fixture: try-lock protocol"},
            {"owner": "Box", "file": "bad/shared_violations.hpp",
             "fields": ["a"], "functions": [], "tokens": [],
             "why": "fixture: no licence on purpose"},
        ],
    },
    "sync": {"pseudo": {}},
    "publication": {
        "scan_dirs": ["fixtures"],
        "alloc_tokens": ["allocate_node("],
        "publish_tokens": ["Dcas::dcas(", "Dcas::cas("],
        "node": [
            {"type": "PNode", "file": "bad/publication_violations.hpp",
             "fields": ["left", "right", "value"],
             "why": "fixture: seeded publication violations"},
            {"type": "PNode", "file": "good/clean_publication.hpp",
             "fields": ["left", "right", "value"],
             "why": "fixture: fully initialised before the DCAS"},
        ],
    },
    "codec": {
        "scan_dirs": ["fixtures"],
        "load_tokens": ["Dcas::load("],
        "store_tokens": ["store_init(", "Dcas::dcas("],
        "layout": "good/clean_codec.hpp",
        "payload_shift": 3,
        "tag_tokens": ["kDeletedBit", "kPayloadShift"],
        "helper": [
            {"file": "good/clean_codec.hpp",
             "functions": ["encode_payload", "decode_payload",
                           "is_deleted"],
             "why": "fixture: the licensed bit-arithmetic home"},
            {"file": "bad/codec_violations.hpp",
             "functions": ["ghost_helper"],
             "why": "fixture: rostered helper that does not exist"},
        ],
    },
    "hb": {
        "scan_dirs": ["fixtures"],
        "edge": [
            {"name": "fx.stop.latch", "fields": ["Pool::stop_"],
             "sync_point": "exec.park",
             "why": "fixture: shutdown latch"},
            {"name": "fx.park.dekker", "kind": "fence",
             "fields": ["Pool::parked_"], "sync_point": "exec.park",
             "why": "fixture: eventcount Dekker pair"},
            {"name": "fx.lonely", "fields": ["Bad::lone_"],
             "sync_point": "exec.steal",
             "why": "fixture: acquire side only, on purpose"},
        ],
    },
    "annotations": {
        "known": ["DCD_SYNC", "DCD_LP", "DCD_PROGRESS", "DCD_PUBLISHES",
                  "DCD_REQUIRES_GUARD", "DCD_GUARD_EXEMPT",
                  "DCD_HB", "DCD_HB_EXEMPT", "DCD_NO_SANITIZE_*"],
    },
}

# The sync pass runs scoped to the executor exemplar alone (exact-path
# scan_dirs), against the exec slice of the roster: its notify-form
# sites must claim all three points with no DCD_SYNC in sight.
SYNC_CONFIG = {
    "sync": {"scan_dirs": ["fixtures/good/clean_exec.hpp"], "pseudo": {}},
}
EXEC_ROSTER = {"exec.park", "exec.steal", "exec.inject"}

# Sync points the publication fixtures' DCD_PUBLISHES may cite (plus the
# exec points the [hb] fixture edges resolve against).
ROSTER = {"dcas.any", "pop.commit"} | EXEC_ROSTER

# file (relative to fixtures/) -> expected sorted rule list. good/ files
# must be absent (no findings at all).
EXPECTED = {
    "bad/guard_violations.hpp": [
        "guard-escape", "unguarded-node-deref", "unprotected-guarded-call"],
    "bad/shared_violations.hpp": [
        "shared-plain-access", "shared-plain-unknown-field"],
    "bad/typo_annotation.hpp": ["unknown-annotation"],
    "bad/publication_violations.hpp": [
        "post-publication-plain-write", "publishes-mismatch",
        "unannotated-publication", "unpublished-field"],
    "bad/codec_violations.hpp": [
        "codec-drift", "raw-word-arithmetic", "raw-word-arithmetic",
        "tag-bits-outside-word", "tag-bits-outside-word"],
    "bad/hb_violations.hpp": [
        "fence-without-edge", "insufficient-order-for-edge",
        "one-sided-hb-edge", "unrostered-hb-edge"],
    "bad/hygiene_violations.hpp": [
        "implicit-seq-cst", "raw-new-delete", "tag-bits-outside-word",
        "unjustified-nosanitize"],
}


def main() -> int:
    if not FIXTURES.is_dir():
        print(f"check_fixtures: missing fixture tree {FIXTURES}",
              file=sys.stderr)
        return 2
    models = []
    findings = []
    for path in sorted(FIXTURES.rglob("*.hpp")):
        rel = path.relative_to(FIXTURES).as_posix()
        model, malformed = cm.build_file_model(
            f"fixtures/{rel}", path.read_text(), [], CONFIG["guard"])
        models.append(model)
        findings += [passes.Finding("driver", "malformed-annotation",
                                    model.path, line, msg)
                     for line, msg in malformed]

    findings += passes.run_contract_pass(models, CONFIG)
    findings += passes.run_guard_pass(models, CONFIG)
    findings += passes.run_shared_plain_pass(models, CONFIG)
    findings += passes.run_publication_pass(models, CONFIG, ROSTER)
    findings += passes.run_codec_pass(models, CONFIG)
    findings += passes.run_hb_pass(models, CONFIG, ROSTER)
    findings += passes.run_sync_pass(models, SYNC_CONFIG, EXEC_ROSTER)
    findings += passes.run_annotation_pass(models, CONFIG)

    by_file: dict[str, list[str]] = {}
    for f in findings:
        rel = f.path.removeprefix("fixtures/")
        by_file.setdefault(rel, []).append(f.rule)

    failures = []
    for rel, rules in sorted(by_file.items()):
        want = EXPECTED.get(rel)
        if want is None:
            failures.append(f"{rel}: expected clean, got {sorted(rules)}")
        elif sorted(rules) != want:
            failures.append(f"{rel}: expected {want}, got {sorted(rules)}")
    for rel, want in EXPECTED.items():
        if rel not in by_file:
            failures.append(f"{rel}: expected {want}, got nothing")

    if failures:
        for msg in failures:
            print(f"check_fixtures FAIL: {msg}", file=sys.stderr)
        for f in findings:
            print(f"  {f.path}:{f.line}: [{f.rule}] {f.message}",
                  file=sys.stderr)
        return 1
    print(f"check_fixtures OK ({len(models)} fixtures, "
          f"{len(EXPECTED)} seeded-bad, good tree clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
