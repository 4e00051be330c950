#!/usr/bin/env python3
"""Single entry point for the repo's static-analysis gate.

Runs every python-side check CI's `analyze` job and the ctest
`analyze-all` target need:

  1. suppression-module self-test (tools/pylib/suppressions.py)
  2. analyzer self-test + strict tree run, passes 1-9 (tools/analyze)
  3. proof-map drift gate (docs/PROOF_MAP.md vs DCD_LP annotations)
  4. guard-map drift gate (docs/GUARD_MAP.md vs guard annotations)
  5. publication-map drift gate (docs/PUBLICATION_MAP.md vs pass 7)
  6. hb-map drift gate (docs/HB_MAP.md vs the [[hb.edge]] roster)
  7. fixture corpus for passes 1-2 + 5-9 + annotation roster
  8. (with --require-clang) the clang-frontend cross-check as a gate

Every step is executed regardless of earlier failures and timed, so a
single invocation reports the whole gate's state at a glance. The
steps are independent of each other (each is a fresh subprocess over
the committed tree), so `--jobs N` runs them concurrently with
captured, serialised output. `--timings-json` records per-step wall
times for the CI artifact; `--findings-json` makes the strict
analyzer step emit its machine-readable findings to the given path so
a red gate is diagnosable without a local rerun. Exit 0 iff all pass;
`--list` prints the step names and exits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]


def build_steps(args: argparse.Namespace,
                root: pathlib.Path) -> list[tuple[str, list[str]]]:
    py = sys.executable
    analyze = [py, str(HERE / "analyze.py")]
    tree = analyze + ["--root", str(root)]
    if args.build_dir is not None:
        tree += ["--build-dir", str(args.build_dir)]

    strict = tree + ["--strict"]
    if args.findings_json is not None:
        strict = strict + ["--json", str(args.findings_json)]

    steps: list[tuple[str, list[str]]] = [
        ("suppressions self-test",
         [py, str(root / "tools/pylib/suppressions.py"), "--self-test"]),
        ("analyzer self-test", analyze + ["--self-test"]),
        ("analyzer strict", strict),
        ("proof-map drift",
         tree + ["--check-proof-map", str(root / "docs/PROOF_MAP.md")]),
        ("guard-map drift",
         tree + ["--check-guard-map", str(root / "docs/GUARD_MAP.md")]),
        ("publication-map drift",
         tree + ["--check-publication-map",
                 str(root / "docs/PUBLICATION_MAP.md")]),
        ("hb-map drift",
         tree + ["--check-hb-map", str(root / "docs/HB_MAP.md")]),
        ("fixture corpus",
         [py, str(HERE / "check_fixtures.py")]),
    ]
    if args.require_clang:
        # `--frontend clang` exits 2 (config error) when the bindings are
        # missing, so on a CI runner with python3-clang installed this leg
        # gates frontend-divergence findings instead of best-efforting.
        steps.append(("clang frontend cross-check (gating)",
                      tree + ["--frontend", "clang", "--strict"]))
    return steps


def run_step(name: str, cmd: list[str], root: pathlib.Path,
             capture: bool) -> tuple[str, float, bool, str]:
    t0 = time.monotonic()
    if capture:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        out = proc.stdout
    else:
        print(f"=== run_all: {name} ===", flush=True)
        proc = subprocess.run(cmd, cwd=root)
        out = ""
    return name, time.monotonic() - t0, proc.returncode == 0, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="repository root (default: this checkout)")
    ap.add_argument("--build-dir", type=pathlib.Path, default=None,
                    help="build dir with compile_commands.json for the "
                         "clang cross-check (optional)")
    ap.add_argument("--strict", action="store_true",
                    help="accepted for explicitness: the tree analyses "
                         "always run --strict here")
    ap.add_argument("--require-clang", action="store_true",
                    help="add a gating clang-frontend step (fails when the "
                         "clang python bindings are unavailable)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="run up to N steps concurrently (they are "
                         "independent subprocesses); output is captured "
                         "and printed per step in submission order")
    ap.add_argument("--timings-json", type=pathlib.Path, default=None,
                    help="write per-step wall times (and pass/fail) as "
                         "JSON to this path — CI uploads it as an artifact")
    ap.add_argument("--findings-json", type=pathlib.Path, default=None,
                    help="pass --json to the strict analyzer step so its "
                         "machine-readable findings land at this path")
    ap.add_argument("--list", action="store_true",
                    help="print the step names and exit without running")
    args = ap.parse_args()
    root = args.root.resolve()
    steps = build_steps(args, root)

    if args.list:
        for name, _ in steps:
            print(name)
        return 0

    jobs = max(1, args.jobs)
    results: list[tuple[str, float, bool, str]]
    t_start = time.monotonic()
    if jobs == 1:
        results = [run_step(name, cmd, root, capture=False)
                   for name, cmd in steps]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
            futs = [ex.submit(run_step, name, cmd, root, True)
                    for name, cmd in steps]
            results = [f.result() for f in futs]
        for name, _, ok, out in results:
            print(f"=== run_all: {name} ({'ok' if ok else 'FAIL'}) ===",
                  flush=True)
            if out:
                sys.stdout.write(out)
    wall = time.monotonic() - t_start

    failed = [name for name, _, ok, _ in results if not ok]
    width = max(len(name) for name, _, _, _ in results)
    print("--- run_all timings ---")
    for name, dt, ok, _ in results:
        print(f"  {name:<{width}}  {dt:7.2f}s  {'ok' if ok else 'FAIL'}")

    if args.timings_json is not None:
        payload = {
            "schema": 1,
            "jobs": jobs,
            "wall_seconds": round(wall, 3),
            "steps": [{"name": name, "seconds": round(dt, 3), "ok": ok}
                      for name, dt, ok, _ in results],
        }
        args.timings_json.write_text(json.dumps(payload, indent=2) + "\n")

    if failed:
        print(f"run_all: FAILED ({', '.join(failed)})", file=sys.stderr)
        return 1
    print(f"run_all: OK ({len(steps)} steps, {wall:.2f}s wall, "
          f"jobs={jobs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
