#!/usr/bin/env python3
"""Self-tests of the benchmark: driver fidelity, a planted driver fault,
count stability, and refusal outside a full checkout.

Run from the root of a checkout (builds .bench_build/ if needed):

    python3 pifbench/tests/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

# Small budgets keep every replay (and its engine reference run) short.
SMALL = ["--warmup", "40000", "--measure", "120000"]

# Metrics that depend on host time; every other metric is a count or a
# ratio of counts and must repeat exactly.
TIMED_SUFFIXES = ("_s", "_ns", "_ns_per_rec")
TIMED = {"sim.loop_frac", "sim.unattributed_frac", "pif.ns_per_access",
         "sim.par_eff"}


def trace(workload, seed, *extra):
    """Run the driver's traced replay; return its JSON object."""
    work = os.path.join(run.BUILD, "selftest", "%s-%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "driver.json")
    argv = [run.DRIVER, "trace", "--workload", workload, "--seed",
            str(seed), "--check-seeds", "4", "--out", out,
            "--work-dir", work] + SMALL + list(extra)
    if workload == "sweep-sab":
        sweep = os.path.join(work, "cli-sweep")
        subprocess.check_call(
            [run.PIFETCH, "sweep", "fig10-coverage", "--workload", "db2",
             "--param", "pif.numSabs=1,2,4,8",
             "--param", "pif.sabWindowRegions=3,7", "--shards", "4",
             "--threads", "4", "--dir", sweep, "--seed", str(seed),
             "--warmup", SMALL[1], "--measure", SMALL[3], "--quiet"],
            stdout=subprocess.DEVNULL)
        argv += ["--pifetch", run.PIFETCH, "--sweep-dir", sweep]
    elif workload in ("history-db2", "speedup-all"):
        # The command's own result, for the driver's point check.
        exp = "fig9-history" if workload == "history-db2" else \
            "fig10-speedup"
        doc = os.path.join(work, "result.json")
        wl = ["--workload", "db2"] if workload == "history-db2" else []
        subprocess.check_call(
            [run.PIFETCH, "run", exp] + wl +
            ["--seed", str(seed), "--warmup", SMALL[1], "--measure",
             SMALL[3], "--json", doc, "--quiet"],
            stdout=subprocess.DEVNULL)
        argv += ["--doc", doc]
    subprocess.check_call(argv, stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


def counts(metrics):
    return {k: v for k, v in metrics.items()
            if k not in TIMED and not k.endswith(TIMED_SUFFIXES)}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")

    def test_replay_matches_engines_on_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                doc = trace(w, 3)
                self.assertTrue(doc["ok"], doc["errors"])
                m = doc["metrics"]
                self.assertEqual(m["fidelity.mismatches"], 0)
                self.assertGreater(m["fidelity.points_checked"], 0)

    def test_planted_drain_fault_is_caught(self):
        # The candidates of one drainRequests call per 8 batches are
        # dropped, on the trace-engine and the cycle-engine replays. (A
        # skipped call alone is usually invisible: the queue keeps its
        # candidates for the next call, which the engines rely on too.)
        for w in ("history-db2", "speedup-all"):
            with self.subTest(workload=w):
                doc = trace(w, 3, "--plant-fault", "drop-drain")
                self.assertFalse(doc["ok"])
                self.assertGreater(doc["metrics"]["fidelity.mismatches"], 0)
                self.assertTrue(any(e.startswith("fidelity")
                                    for e in doc["errors"]))

    def test_counts_repeat_exactly(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = counts(trace(w, 5)["metrics"])
                b = counts(trace(w, 5)["metrics"])
                self.assertEqual(a, b)
                self.assertGreater(a["trace.records"], 0)

    def test_refuses_without_the_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark
        # must fail to build, exit non-zero and print no result.
        iso = os.path.join(run.BUILD, "selftest", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(run.HERE, os.path.join(iso, "pifbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run(
            [sys.executable, "pifbench/run.py", "--workload", "history-db2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=iso, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=180)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn(b'"correct"', res.stdout)
        shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
