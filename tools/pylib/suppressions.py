#!/usr/bin/env python3
"""Suppression-file handling for tools/analyze.

One format, one parser:

    <path-suffix> : <rule> : <substring>  # justification

Blank lines and lines starting with `#` are comments. Colons are split
only when whitespace-flanked, so substrings may contain C++ scope
operators (`dcas::kPayloadShift`). A suppression without a justification
is a configuration error. `*` as the substring suppresses the rule for
the whole matching file; `*` as the path-suffix or rule matches any.

The client owns its rule-id roster and finding type; `apply()` takes an
accessor so it never needs to know the finding's shape:

    apply(findings, sups, lambda f: (f.path, f.rule, (f.line_text,)))
"""

from __future__ import annotations

import dataclasses
import re
import sys
from collections.abc import Callable, Iterable, Sequence


@dataclasses.dataclass
class Suppression:
    path_suffix: str
    rule: str
    substring: str
    justification: str
    source_line: int
    used: bool = False

    def matches(self, path: str, rule: str,
                haystacks: Sequence[str]) -> bool:
        if self.path_suffix != "*" and not path.endswith(self.path_suffix):
            return False
        if self.rule != "*" and rule != self.rule:
            return False
        return (self.substring == "*"
                or any(self.substring in h for h in haystacks))


def _default_error(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def parse(text: str, origin: str, rule_ids: Iterable[str], *,
          on_error: Callable[[str], None] = _default_error
          ) -> list[Suppression]:
    """Parse a suppression file; `on_error` is called (and must not
    return normally) for format violations."""
    known = set(rule_ids)
    sups: list[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        matcher, sep, justification = line.partition("#")
        justification = justification.strip()
        if not sep or not justification:
            on_error(f"{origin}:{lineno}: suppression lacks a justification "
                     "(append `# <one-line reason>`)")
        parts = [p.strip() for p in re.split(r"\s+:\s+", matcher.strip(),
                                             maxsplit=2)]
        if len(parts) != 3 or not all(parts):
            on_error(f"{origin}:{lineno}: expected `<path-suffix> : <rule> : "
                     f"<substring>  # <reason>`, got: {line}")
        path_suffix, rule, substring = parts
        if rule not in known and rule != "*":
            on_error(f"{origin}:{lineno}: unknown rule id '{rule}' "
                     f"(known: {', '.join(sorted(known))})")
        sups.append(Suppression(path_suffix, rule, substring, justification,
                                lineno))
    return sups


def apply(findings: list, sups: list[Suppression],
          fields: Callable[[object], tuple[str, str, Sequence[str]]]
          ) -> list:
    """Filter `findings`, marking matching suppressions used. `fields`
    maps a finding to (path, rule, substring-haystacks)."""
    remaining = []
    for f in findings:
        path, rule, haystacks = fields(f)
        hit = next((s for s in sups if s.matches(path, rule, haystacks)),
                   None)
        if hit is not None:
            hit.used = True
        else:
            remaining.append(f)
    return remaining


# --- self test -------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _F:
    path: str
    rule: str
    text: str


def _fields(f: _F) -> tuple[str, str, Sequence[str]]:
    return f.path, f.rule, (f.text,)


def self_test() -> int:
    failures: list[str] = []
    rules = ("rule-a", "rule-b")

    def expect_error(text: str, label: str) -> None:
        try:
            parse(text, "<selftest>", rules,
                  on_error=lambda m: (_ for _ in ()).throw(SystemExit(2)))
            failures.append(f"{label}: accepted")
        except SystemExit as e:
            if e.code != 2:
                failures.append(f"{label}: exit {e.code}, want 2")

    # Round trip: a justified entry parses, matches, and is marked used.
    sups = parse("a.hpp : rule-a : needle  # why\n", "<selftest>", rules)
    fs = [_F("src/a.hpp", "rule-a", "has needle here"),
          _F("src/a.hpp", "rule-b", "has needle here"),
          _F("src/b.hpp", "rule-a", "has needle here"),
          _F("src/a.hpp", "rule-a", "no match")]
    left = apply(fs, sups, _fields)
    if len(left) != 3 or not sups[0].used:
        failures.append(f"exact match filtered {len(fs) - len(left)}, want 1")

    # `*` substring suppresses the whole file for one rule.
    sups = parse("a.hpp : rule-a : *  # file-wide\n", "<selftest>", rules)
    left = apply(fs, sups, _fields)
    if [f.rule for f in left] != ["rule-b", "rule-a"]:
        failures.append("substring wildcard scope wrong")

    # `*` as path-suffix and rule matches any file and any rule.
    sups = parse("* : * : needle  # why\n", "<selftest>", rules)
    left = apply(fs, sups, _fields)
    if [f.text for f in left] != ["no match"]:
        failures.append("wildcard path+rule did not apply")

    # Unknown rule ids are rejected.
    expect_error("a.hpp : bogus : x  # why", "unknown rule")

    # Format violations are config errors.
    expect_error("a.hpp : rule-a : x", "missing justification")
    expect_error("a.hpp : rule-a  # why", "two fields only")
    expect_error("a.hpp:rule-a:x  # why", "unflanked colons")

    # Colons inside substrings survive (whitespace-flanked split only).
    sups = parse("w.hpp : rule-a : dcas::kPayloadShift  # why\n",
                 "<selftest>", rules)
    if sups[0].substring != "dcas::kPayloadShift":
        failures.append(f"scoped substring mangled: {sups[0].substring}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("self-test OK (suppression parse/match/wildcard semantics)")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    print(__doc__)
    sys.exit(0)
