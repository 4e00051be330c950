#!/usr/bin/env python3
"""End-to-end benchmark of the default executor and deque.

Builds bench_e2e/dcd_e2e (Release) in .bench_build/e2e at the repository
root, runs workloads, checks their outputs, and prints every metric with
its unit. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Metric names, units and
bounds come from BENCHMARK.json.

  python3 bench_e2e/run.py --workload quicksort --seed 1 --trace 0
  python3 bench_e2e/run.py                  # every workload, untraced
  python3 bench_e2e/run.py --trace 1        # per-layer metrics and traces
  python3 bench_e2e/run.py --repeat 5       # medians, quartiles, spreads
  python3 bench_e2e/run.py --smoke          # ~1 s per workload + a traced run

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run (no library sources, build failure, a debug
build, a killed run or a missing metric).
"""

import argparse
import fcntl
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BUILD_TIMEOUT_S = 840
# Warm-up, set-up, deadlines and teardown on top of the measured seconds.
RUN_HEADROOM_S = 60
# setup_s and setup_rss_mib are medians of this many builds, each in its
# own process, so memory the allocator keeps from one never counts in
# another's RSS.
SETUP_REPEATS = 9


class HarnessError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_tool(cmd, timeout):
    try:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if p.returncode != 0:
        raise HarnessError(f"exit {p.returncode}: {' '.join(cmd)}")


def build():
    """Configures once, then brings dcd_e2e up to date; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise HarnessError(f"no library sources (src/, CMakeLists.txt) "
                           f"in {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            run_tool(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_tool(["cmake", "--build", str(BUILD_DIR), "--target", "dcd_e2e",
                  "-j", "4"], BUILD_TIMEOUT_S)
    return BUILD_DIR / "dcd_e2e"


def git_sha():
    # Only inside a git checkout: git would otherwise search parent
    # directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_e2e(args, timeout):
    """Runs dcd_e2e; returns the JSON object on its last output line."""
    try:
        p = subprocess.run(args, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"killed after {timeout} s: {' '.join(args)}")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise HarnessError(f"exit {p.returncode}: {' '.join(args)}\n"
                           f"{p.stderr}")
    return json.loads(lines[-1])


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns dcd_e2e's JSON."""
    base = [str(binary), "--workload", workload, "--seed", str(seed)]
    cmd = base + ["--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}.json")]
    res = run_e2e(cmd, seconds + RUN_HEADROOM_S)
    if res["context"]["build_type"] != "release":
        raise HarnessError(f"refusing a {res['context']['build_type']} "
                           f"build: timings of it would not be honest")
    if not trace:
        builds = [res["metrics"]] + [
            run_e2e(base + ["--setup-only"], RUN_HEADROOM_S)
            for _ in range(SETUP_REPEATS - 1)]
        for name in ("setup_s", "setup_rss_mib"):
            res["metrics"][name] = statistics.median(b[name] for b in builds)
    return res


def contract(res, spec):
    """The result line: end-to-end metrics untraced, per-layer traced."""
    declared = spec["per_layer"] if res["traced"] else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        raise HarnessError(f"{res['workload']}: dcd_e2e did not report "
                           f"{', '.join(missing)}")
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def print_run(res, line, sha, seconds):
    ctx = res["context"]
    mode = "traced" if res["traced"] else "untraced"
    print(f"== {res['workload']}  seed {res['seed']}  {mode}  {seconds} s  "
          f"| {ctx['cpu_model']}, nproc {ctx['nproc']}, {ctx['build_type']}, "
          f"{ctx['compiler']}, git {sha[:12]}")
    params = " ".join(f"{k}={v:g}" for k, v in res["params"].items())
    print(f"   params: {params}")
    share = line["failed"] / line["attempted"] if line["attempted"] else 0.0
    print(f"   checks: {'passed' if line['correct'] else 'FAILED'}; "
          f"{line['attempted']} attempted, {line['failed']} failed "
          f"({res['unfinished']:.0f} unfinished, {res['mismatches']:.0f} "
          f"mismatched), failed_share {share:g}")
    samples = " ".join(f"{k}={v:.0f}" for k, v in res["samples"].items() if v)
    print(f"   samples: {samples or 'none'}; latency p99 "
          f"{res['tail']['latency_p99_us']:.6g} us (reported, not gated)")
    for name, m in line["metrics"].items():
        print(f"   {name:<32} {m['value']:>14.6g} {m['unit']}")
    if res["busy_share"]:
        cells = "  ".join(f"{k} {100 * v:.1f}%"
                          for k, v in busy_rows(res["busy_share"]))
        print(f"   worker time: {cells}")
    if res["trace_file"]:
        print(f"   trace: {res['trace_file']}")


def busy_rows(share):
    order = ("task", "exec", "deque", "dcas", "reclaim", "other")
    return [(k, share[k]) for k in order if k in share]


def summarize(runs, spec):
    """Median and quartiles of each metric over repeated runs of a workload;
    flags an end-to-end spread (Q3 - Q1 over the median) beyond its bound."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  WIDER THAN BOUND" if bound and spread > bound else ""
        bound_txt = f"{bound:.2f}" if bound else "   -"
        print(f"   {name:<32} median {med:>12.6g}  q1 {q1:>12.6g}  "
              f"q3 {q3:>12.6g}  spread {spread:6.3f}  bound {bound_txt}{flag}")
        rows[name] = {"value": med, "unit": runs[0]["metrics"][name]["unit"]}
    return rows


def main(argv):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds seed..seed+N-1")
    ap.add_argument("--smoke", action="store_true",
                    help="about 1 s per workload plus one traced run")
    args = ap.parse_args(argv)

    try:
        binary = build()
        sha = git_sha()
        seconds = args.seconds or spec["run_seconds"]
        if args.smoke:
            plan = [(w, args.seed, 1, False) for w in workloads]
            plan.append((workloads[0], args.seed, 2, True))
        else:
            chosen = [args.workload] if args.workload else workloads
            plan = [(w, args.seed + i, seconds, bool(args.trace))
                    for w in chosen for i in range(args.repeat)]

        lines = {}
        for workload, seed, secs, trace in plan:
            res = run_once(binary, workload, seed, secs, trace)
            line = contract(res, spec)
            print_run(res, line, sha, secs)
            lines.setdefault((workload, trace), []).append(line)
    except HarnessError as e:
        log(f"run.py: {e}")
        return 2

    all_lines = [l for group in lines.values() for l in group]
    correct = all(l["correct"] for l in all_lines)
    if args.workload and args.repeat == 1 and not args.smoke:
        final = all_lines[0]
    else:
        metrics = {}
        for (workload, trace), group in lines.items():
            if len(group) > 1:
                print(f"== {workload}: {len(group)} runs")
                rows = summarize(group, spec)
            else:
                rows = group[0]["metrics"]
            for name, m in rows.items():
                metrics[f"{workload}.{name}"] = m
        final = {"correct": correct,
                 "attempted": sum(l["attempted"] for l in all_lines),
                 "failed": sum(l["failed"] for l in all_lines),
                 "metrics": metrics}
    if args.smoke and final["failed"]:
        log("run.py: smoke run had failed operations")
        correct = False
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
