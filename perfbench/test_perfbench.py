#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at the smoke size of every workload.

    python3 perfbench/test_perfbench.py        (from the checkout root)

Builds the benchmark on first use (see run.py), then checks the result
record's shape, the correctness gates, traced-vs-untraced identity of the
simulated statistics, seed determinism, and that the benchmark refuses to
run without the library sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
HELD_OUT_SEED = 9001


def run(workload, seed=1, trace=0, cwd=ROOT, script=RUN, seconds=1):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def record_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_line(proc, tag):
    """The simulated-statistics line of one kind of rep, as key -> text."""
    prefix = f"perfbench sim ({tag}):"
    for line in proc.stdout.splitlines():
        if line.startswith(prefix):
            return dict(tok.split("=", 1) for tok in line[len(prefix):].split())
    raise AssertionError(f"no '{prefix}' line")


class PerfbenchSmoke(unittest.TestCase):
    def check_record(self, proc, metric_specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        rec = record_of(proc)
        self.assertEqual(set(rec), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(rec["correct"], proc.stdout[-3000:])
        self.assertEqual(rec["failed"], 0)
        self.assertGreaterEqual(rec["attempted"], 1)
        self.assertEqual(set(rec["metrics"]), {m["name"] for m in metric_specs})
        for m in metric_specs:
            self.assertEqual(rec["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        return rec

    def test_untraced_record_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rec = self.check_record(run(w["name"]), SPEC["end_to_end"])
                for name, m in rec["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_record_matches_untraced_statistics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], trace=1)
                self.check_record(proc, SPEC["per_layer"])
                plain, traced = sim_line(proc, "untraced"), sim_line(proc, "traced")
                for key, value in plain.items():
                    self.assertEqual(traced[key], value, key)

    def test_traced_reps_reproduce_each_other(self):
        # Enough time for several traced reps: each must match the first
        # traced rep bit for bit, event digest and traced-only keys included.
        # A smoke sweep rep takes about 2 s, the others well under 1 s.
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                proc = run(name, trace=1, seconds=10 if name == "packet_fig6_sweep" else 3)
                self.check_record(proc, SPEC["per_layer"])
                reps = re.search(r"traced_reps=(\d+)", proc.stdout)
                self.assertIsNotNone(reps, proc.stdout[-3000:])
                self.assertGreaterEqual(int(reps.group(1)), 2)
                self.assertIn("event_digest=", proc.stdout)

    def test_same_seed_same_statistics_and_held_out_seed_passes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a, b = run(w["name"], seed=7), run(w["name"], seed=7)
                self.assertEqual(sim_line(a, "untraced"), sim_line(b, "untraced"))
                self.check_record(run(w["name"], seed=HELD_OUT_SEED), SPEC["end_to_end"])

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                            "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run("flow_small_exact", cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
