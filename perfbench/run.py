#!/usr/bin/env python3
"""Build and run the d2net benchmark (see README.md in this directory).

Single run (the last stdout line is the JSON result record):

    python3 perfbench/run.py --workload packet_paper_ugal --seed 1 --seconds 20 --trace 0

Steadiness report (k runs, one process each, seeds seed..seed+k-1):

    python3 perfbench/run.py --workload flow_small_exact --seed 1 --seconds 20 --repeat 10

Run from the root of a checkout. The benchmark is built from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build) on first use.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single run may take once built.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result record.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            sys.exit(3)
    return os.path.join(out, "perfbench")


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout; never report an enclosing repo's commit
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def run_once(binary, args, seed, trace, capture):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
           "--commit", commit_id(),
           "--scratch", os.path.join(build_dir(), "scratch"),
           "--fig6", os.path.join(HERE, "fig6.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(4)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        sys.exit(proc.returncode)
    return proc.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, args):
    """Runs the workload k times and reports median, quartiles and spread."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.repeat):
        out = run_once(binary, args, args.seed + i, 0, capture=True)
        record = json.loads(out.strip().splitlines()[-1])
        runs.append(record)
        values = {k: v["value"] for k, v in record["metrics"].items()}
        log(f"seed {args.seed + i}: correct={record['correct']} failed={record['failed']} "
            + " ".join(f"{k}={v:.6g}" for k, v in sorted(values.items())))
    # setup_s first: it is the metric that moves most easily.
    names = sorted(bounds, key=lambda n: (n != "setup_s", n))
    report = {}
    print(f"steadiness: {args.workload}, {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}, {args.seconds} s each")
    print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "  EXCEEDS BOUND" if spread > bounds[name] else ""
        print(f"{name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.2%}{bounds[name]:>8.2f}{flag}")
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bounds[name], "exceeds": spread > bounds[name]}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": report}))
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report over this many runs (untraced)")
    args = p.parse_args()
    binary = build()
    if args.repeat > 0:
        return steadiness(binary, args)
    run_once(binary, args, args.seed, args.trace, capture=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
