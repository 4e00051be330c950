#!/usr/bin/env python3
"""Compare two dcd_e2e builds by alternating pairs of runs.

Usage:
    scripts/ab_pairs.py PARENT_BIN CHANGE_BIN --workload fib_forkjoin \\
        --pairs 10 --seconds 20 --seed-base 201
    scripts/ab_pairs.py PARENT_BIN CHANGE_BIN --workload fib_forkjoin \\
        --pairs 3 --seconds 10 --trace --metrics dcas.calls_per_unit,...
    scripts/ab_pairs.py --self-test

Pair i runs both binaries on seed seed_base + i, back to back; the parent
goes first in even pairs and the change in odd ones, so host drift over
the session lands on both sides alike. Back-to-back batches of one build
then the other do not compare on a shared host (EXPERIMENTS.md §E14-§E17).

Prints the per-run table and a summary table with the median and
quartiles (Q1-Q3) of each side and the pairs the change won, in the
EXPERIMENTS.md table format, plus each metric's median gain against the
parent's quartile spread. Metric units and the better direction come from
BENCHMARK.json.

Exit status: 0 when every run passed its output check with no failed
operation, 1 when some run did not, 2 when a run could not be made (the
binary failed without a result line, or a metric is missing).
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DEFAULT_METRICS = ("throughput_per_s", "latency_p50_us", "latency_p95_us")
SHORT = {"throughput_per_s": "thr", "latency_p50_us": "p50",
         "latency_p95_us": "p95"}
# Warm-up, set-up, deadlines and teardown on top of the measured seconds.
RUN_HEADROOM_S = 120


class HarnessError(Exception):
    pass


def declared_metrics():
    """Unit and better direction of every metric BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=seconds + RUN_HEADROOM_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"killed after {seconds + RUN_HEADROOM_S} s: "
                           f"{' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"exit {p.returncode}, no result line: "
                           f"{' '.join(cmd)}\n{p.stderr}")
    return res


def fmt(v):
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def report(rows, metrics, spec):
    """Prints the per-run and summary tables; rows are
    (seed, first, parent_result, change_result)."""
    label = {m: SHORT.get(m, m) for m in metrics}
    head = ["seed", "first"]
    for m in metrics:
        head += [f"{label[m]} parent", f"{label[m]} change"]
    print("| " + " | ".join(head) + " |")
    print("|---|---|" + "---:|" * (2 * len(metrics)))
    for seed, first, par, chg in rows:
        cells = [str(seed), first]
        for m in metrics:
            cells += [fmt(par["metrics"][m]), fmt(chg["metrics"][m])]
        print("| " + " | ".join(cells) + " |")
    print()
    print("| metric | parent: median (Q1–Q3) | change: median (Q1–Q3) "
          "| pairs the change won |")
    print("|---|---|---|---:|")
    gains = []
    for m in metrics:
        higher = spec[m]["better"] == "higher"
        par = [r[2]["metrics"][m] for r in rows]
        chg = [r[3]["metrics"][m] for r in rows]
        won = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        pq1, pmed, pq3 = statistics.quantiles(par, n=4)
        cq1, cmed, cq3 = statistics.quantiles(chg, n=4)
        print(f"| {m}, {spec[m]['unit']} | {fmt(pmed)} ({fmt(pq1)}–"
              f"{fmt(pq3)}) | {fmt(cmed)} ({fmt(cq1)}–{fmt(cq3)}) | "
              f"{won} of {len(rows)} |")
        gain = (cmed - pmed) if higher else (pmed - cmed)
        gains.append(f"{m}: median gain {fmt(gain)} {spec[m]['unit']} "
                     f"({100 * gain / pmed if pmed else 0:+.1f}%), parent "
                     f"quartile spread {fmt(pq3 - pq1)}")
    print()
    for line in gains:
        print(line)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="dcd_e2e built from the parent commit")
    ap.add_argument("change", help="dcd_e2e built from the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="traced runs (per-layer metrics)")
    ap.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                    help="comma-separated metric names to tabulate")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    spec = declared_metrics()
    metrics = args.metrics.split(",")
    unknown = [m for m in metrics if m not in spec]
    if unknown:
        ap.error(f"not declared in BENCHMARK.json: {', '.join(unknown)}")

    rows = []
    bad = []
    try:
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            got = {}
            for side in order:
                res = run_once(getattr(args, side), args.workload, seed,
                               args.seconds, args.trace)
                missing = [m for m in metrics if m not in res["metrics"]]
                if missing:
                    raise HarnessError(f"{side} seed {seed} did not report "
                                       f"{', '.join(missing)}")
                if not res["correct"] or res["failed"] > 0:
                    bad.append(f"{side} seed {seed}: correct "
                               f"{res['correct']}, failed {res['failed']:g}")
                got[side] = res
                print(f"{side} seed {seed}: " + ", ".join(
                    f"{m} {fmt(res['metrics'][m])}" for m in metrics),
                    file=sys.stderr, flush=True)
            rows.append((seed, order[0], got["parent"], got["change"]))
    except HarnessError as e:
        print(f"ab_pairs.py: {e}", file=sys.stderr)
        return 2

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload}: {args.pairs} alternating pairs, {mode}, "
          f"{args.seconds:g} s per run, seeds {args.seed_base}–"
          f"{args.seed_base + args.pairs - 1}")
    print()
    report(rows, metrics, spec)
    if bad:
        for line in bad:
            print(f"ab_pairs.py: run failed its check: {line}",
                  file=sys.stderr)
        return 1
    return 0


STUB = """#!{python}
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(os.environ["AB_PAIRS_LOG"], "a") as f:
    f.write("{name} %d\\n" % seed)
if {crash}:
    sys.exit(3)
print("noise line")
print(json.dumps({{"correct": seed != {wrong_seed}, "attempted": 10,
                  "failed": 1 if seed == {failed_seed} else 0,
                  "metrics": {{"throughput_per_s": {thr} + seed % 3,
                              "latency_p50_us": {lat} - seed % 3,
                              "latency_p95_us": 2 * {lat}}}}}))
"""


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log"
        os.environ["AB_PAIRS_LOG"] = str(log)

        def stub(name, thr, lat, wrong_seed=-1, failed_seed=-1, crash=False):
            path = Path(tmp) / name
            path.write_text(STUB.format(
                python=sys.executable, name=name, thr=thr, lat=lat,
                wrong_seed=wrong_seed, failed_seed=failed_seed, crash=crash))
            path.chmod(0o755)
            return str(path)

        parent = stub("parent", 100, 50)
        change = stub("change", 200, 30)
        base = ["--workload", "fib_forkjoin", "--pairs", "4", "--seconds",
                "0", "--seed-base", "10"]
        cases = [
            ("change wins every pair", [parent, change], 0,
             ["| throughput_per_s, 1/s | 101 (100.2–101.8) | 201 (200.2–201.8)"
              " | 4 of 4 |", "| latency_p95_us, us | 100 (100–100) | "
              "60 (60–60) | 4 of 4 |", "| 10 | parent | 101 | 201 | 49 |"
              " 29 | 100 | 60 |", "| 11 | change |"]),
            ("reverse roles lose every pair", [change, parent], 0,
             ["| 0 of 4 |"]),
            ("incorrect run fails the tool",
             [parent, stub("wrong", 200, 30, wrong_seed=12)], 1, []),
            ("failed operation fails the tool",
             [stub("failing", 100, 50, failed_seed=11), change], 1, []),
            ("crashed run is a harness error",
             [parent, stub("crash", 200, 30, crash=True)], 2, []),
        ]
        for name, bins, want, expect_lines in cases:
            log.write_text("")
            out = io.StringIO()
            with redirect_stdout(out):
                got = main(bins + base)
            text = out.getvalue()
            if got != want:
                failures.append(f"{name}: exit {got}, want {want}\n{text}")
            for line in expect_lines:
                if line not in text:
                    failures.append(f"{name}: missing {line!r}\n{text}")
        # Alternation: parent first in even pairs, change first in odd.
        log.write_text("")
        with redirect_stdout(io.StringIO()):
            main([parent, change] + base)
        order = log.read_text().split()
        want = ["parent", "10", "change", "10", "change", "11", "parent",
                "11", "parent", "12", "change", "12", "change", "13",
                "parent", "13"]
        if order != want:
            failures.append(f"run order {order}, want {want}")
    for f in failures:
        print(f"FAIL {f}")
    print("ab_pairs self-test " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(main(sys.argv[1:]))
