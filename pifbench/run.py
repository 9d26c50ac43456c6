#!/usr/bin/env python3
"""The pifetch repository benchmark.

Runs one workload (or all four) end to end and prints its metrics, or,
with --trace 1, replays the workload's simulation points through the
layers' public functions and prints per-layer metrics. Run it from the
root of a checkout:

    python3 pifbench/run.py --workload history-db2 --seed 1 --seconds 55 --trace 0
    python3 pifbench/run.py --workload all --seed 1 --seconds 55

The program is built from the checkout's sources into .bench_build/
(Release only). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See pifbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PIFETCH = os.path.join(BUILD, "pifetch", "pifetch")
DRIVER = os.path.join(BUILD, "pifbench_driver")

# Seed that later gain claims must also hold on; never tune on it.
HELD_OUT_SEED = 7919

# check-fuzz scenarios per run, sized to a few seconds at --threads 1.
CHECK_SEEDS = 50

# Timed repetitions of the workload command per run.
MIN_REPS = 3
MAX_REPS = 200

# A single process of the benchmark may not run longer than this.
PROCESS_TIMEOUT_S = 150

# history-db2 and check-fuzz run and trace like the others but are not
# in BENCHMARK.json: history-db2's run-to-run spread reaches the largest
# bound the benchmark may set, and check-fuzz fails on the seed windows
# that hold a scenario `pifetch check` rejects (README.md).
WORKLOADS = ["history-db2", "speedup-all", "check-fuzz", "sweep-sab"]



def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    """Configure (once) and build the CLI and the driver, Release only."""
    os.makedirs(BUILD, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(os.path.join(BUILD, "build.log"), "w") as logf:
        if not os.path.exists(cache):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=logf, stderr=subprocess.STDOUT)
            if rc != 0:
                log("pifbench: configure failed (see .bench_build/build.log)")
                return False
        build_type = None
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.strip().split("=", 1)[1]
        if build_type != "Release":
            log("pifbench: refusing to time a %r build; .bench_build must "
                "be configured with CMAKE_BUILD_TYPE=Release" % build_type)
            return False
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j4", "--target", "pifetch_cli",
             "pifbench_driver"],
            stdout=logf, stderr=subprocess.STDOUT)
        if rc != 0:
            log("pifbench: build failed (see .bench_build/build.log)")
            return False
    return True


# ---------------------------------------------------------------- host


def host_sample():
    """Steal and total jiffies from /proc/stat, 1-min load average."""
    steal = total = 0
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        vals = [int(x) for x in fields]
        total = sum(vals[:8])
        steal = vals[7] if len(vals) > 7 else 0
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
    except (OSError, ValueError):
        load = -1.0
    return {"steal": steal, "total": total, "load": load}


def host_context(before, after):
    dt = after["total"] - before["total"]
    return {
        "steal_frac": (after["steal"] - before["steal"]) / dt if dt else 0.0,
        "load_before": before["load"],
        "load_after": after["load"],
    }


# ---------------------------------------------------------------- processes


class Rep:
    """One measured process run."""

    def __init__(self, wall, cpu, rss_kib, rc):
        self.wall = wall
        self.cpu = cpu
        self.rss_kib = rss_kib
        self.rc = rc


def timed_process(argv, cwd):
    """Run argv under the driver's spawn mode and return a Rep.

    wall: launch to exit; cpu: user + sys of the process and the
    children it waited for (wait4 rusage); rss: peak RSS of the process
    and those children. A process still running after
    PROCESS_TIMEOUT_S is killed and reported as failed.
    """
    rc, out = capture([DRIVER, "spawn", str(PROCESS_TIMEOUT_S), "--"] +
                      argv, cwd)
    try:
        r = json.loads(out)
    except ValueError:
        return Rep(0.0, 0.0, 0, -1 if rc == 0 else rc)
    return Rep(r["wall_s"], r["cpu_s"], r["maxrss_kib"], r["exit"])


def capture(argv, cwd):
    """Run argv to completion and return (exit code, stdout bytes)."""
    try:
        res = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             timeout=PROCESS_TIMEOUT_S + 10)
    except subprocess.TimeoutExpired:
        return -9, b""
    return res.returncode, res.stdout


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def read_json(path):
    data = read_bytes(path)
    if data is None:
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


# ---------------------------------------------------------------- workloads


class Workload:
    """A benchmark workload: its command and its output checks."""

    def __init__(self, name, seed, rundir):
        self.name = name
        self.seed = seed
        self.rundir = rundir
        self.threads = 1 if name == "check-fuzz" else 4

    def command(self, rep, threads=None):
        """argv of repetition `rep`, and the file holding its result."""
        t = str(threads if threads is not None else self.threads)
        s = str(self.seed)
        if self.name == "history-db2":
            out = os.path.join(self.rundir, "result-%s.json" % rep)
            return [PIFETCH, "run", "fig9-history", "--workload", "db2",
                    "--threads", t, "--seed", s, "--json", out,
                    "--quiet"], out
        if self.name == "speedup-all":
            out = os.path.join(self.rundir, "result-%s.json" % rep)
            return [PIFETCH, "run", "fig10-speedup", "--threads", t,
                    "--seed", s, "--json", out, "--quiet"], out
        if self.name == "check-fuzz":
            out = os.path.join(self.rundir, "result-%s.json" % rep)
            # --no-shrink: a failing scenario is still reported (and
            # fails the run), but the timed work stays a function of
            # the scenario count instead of growing by a shrink search.
            return [PIFETCH, "check", "--threads", t, "--seeds",
                    str(CHECK_SEEDS), "--seed", s, "--no-shrink",
                    "--json", out,
                    "--repro", os.path.join(self.rundir, "repro.json"),
                    "--quiet"], out
        if self.name == "sweep-sab":
            d = os.path.join(self.rundir, "sweep-%s" % rep)
            return [PIFETCH, "sweep", "fig10-coverage", "--workload", "db2",
                    "--param", "pif.numSabs=1,2,4,8",
                    "--param", "pif.sabWindowRegions=3,7",
                    "--shards", "4", "--threads", t, "--dir", d,
                    "--seed", s, "--quiet"], os.path.join(d, "merged.json")
        raise ValueError(name)

    def in_process_sweep(self, threads):
        out = os.path.join(self.rundir, "inprocess-t%d.json" % threads)
        return [PIFETCH, "sweep", "fig10-coverage", "--workload", "db2",
                "--param", "pif.numSabs=1,2,4,8",
                "--param", "pif.sabWindowRegions=3,7",
                "--threads", str(threads), "--seed", str(self.seed),
                "--json", out, "--quiet"], out

    def table_bytes(self, path):
        """The part of a result that must repeat exactly: the tables of
        a run document, the whole check report or sweep document."""
        data = read_bytes(path)
        if data is None:
            return None
        if self.name in ("history-db2", "speedup-all"):
            try:
                doc = json.loads(data)
            except ValueError:
                return None
            return json.dumps(doc.get("tables"), sort_keys=True).encode()
        return data

    def result_ok(self, path):
        """Workload-specific validity of one result."""
        if self.name == "check-fuzz":
            doc = read_json(path)
            return bool(doc) and doc.get("failed") == 0 and \
                doc.get("passed") is True
        return read_bytes(path) is not None


class Checks:
    """Counts every process run and every output check (error_rate)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.status = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.status.append((name, ok, detail))


def golden_check(wl, checks):
    """`pifetch golden <exp>` must equal tests/golden/<exp>.json."""
    exp = {"history-db2": "fig9-history",
           "speedup-all": "fig10-speedup"}.get(wl.name)
    if exp is None:
        return
    rc, out = capture([PIFETCH, "golden", exp], ROOT)
    want = read_bytes(os.path.join(ROOT, "tests", "golden", exp + ".json"))
    checks.record("golden " + exp, rc == 0 and want is not None and
                  out == want)


def cross_run_check(wl, digest, checks):
    """Results of one seed must repeat across runs (and sets) of the
    same build: digests are kept per pifetch binary."""
    with open(PIFETCH, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(BUILD, "results", binary)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-seed%d.sha256" % (wl.name, wl.seed))
    prev = read_bytes(path)
    if prev is None:
        with open(path, "w") as f:
            f.write(digest)
        checks.record("results repeat across runs", True, "first run")
    else:
        checks.record("results repeat across runs",
                      prev.decode() == digest)


def measure_reps(wl, seconds, checks):
    """Run the workload command until the time budget is spent.

    Set-up is timed between the repetitions, a few samples at a time,
    so that its median spans the whole run like the command's does.
    """
    reps = []
    setup_samples = []
    setup = None
    first = None
    start = time.perf_counter()
    while True:
        argv, out = wl.command(len(reps))
        rep = timed_process(argv, wl.rundir)
        table = wl.table_bytes(out)
        ok = rep.rc == 0 and table is not None and wl.result_ok(out)
        if ok and first is None:
            first = table
        ok = ok and table == first
        checks.record("%s rep %d" % (wl.name, len(reps)), ok,
                      "" if ok else "exit %d or result differs" % rep.rc)
        reps.append(rep)
        # Keep only the first result on disk.
        if len(reps) > 1:
            if wl.name == "sweep-sab":
                shutil.rmtree(os.path.dirname(out), ignore_errors=True)
            elif os.path.exists(out):
                os.remove(out)

        setup = driver("setup", wl, [])
        checks.record("setup %d" % len(reps), setup is not None)
        if setup is not None:
            setup_samples += setup["samples_s"]

        elapsed = time.perf_counter() - start
        typical = elapsed / len(reps)
        if len(reps) >= MAX_REPS:
            break
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    return reps, first, setup_samples, setup


def driver(mode, wl, extra):
    """Run the driver; return its JSON object (or None)."""
    out = os.path.join(wl.rundir, "driver-%s.json" % mode)
    argv = [DRIVER, mode, "--workload", wl.name, "--seed", str(wl.seed),
            "--check-seeds", str(CHECK_SEEDS), "--out", out] + extra
    rc, _ = capture(argv, wl.rundir)
    doc = read_json(out)
    if rc != 0 or doc is None:
        return None
    return doc


def run_e2e(wl, seconds):
    checks = Checks()
    before = host_sample()
    reps, first, setup_samples, setup = measure_reps(wl, seconds, checks)
    if first is not None:
        cross_run_check(wl, hashlib.sha256(first).hexdigest(), checks)
    golden_check(wl, checks)
    if wl.name == "sweep-sab" and first is not None:
        argv, out = wl.in_process_sweep(wl.threads)
        rc, _ = capture(argv, wl.rundir)
        checks.record("sweep merged.json == in-process sweep",
                      rc == 0 and read_bytes(out) == first)
    after = host_sample()

    nominal = setup["nominal_instrs"] if setup else 0
    walls = [r.wall for r in reps]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in reps),
        "sim_minstr_per_s": nominal / 1e6 / wall,
        "peak_rss_mb": statistics.median(r.rss_kib for r in reps) / 1024.0,
        "setup_s": statistics.median(setup_samples) if setup_samples
        else 0.0,
        "error_rate": checks.failed / checks.attempted,
    }
    info = {
        "reps": len(reps),
        "wall_min_s": min(walls),
        "wall_max_s": max(walls),
        "walls_s": walls,
        "setup_samples": len(setup_samples),
        "host": host_context(before, after),
    }
    return checks, metrics, info


def run_traced(wl):
    checks = Checks()
    before = host_sample()

    # One untraced run of the command: the document the driver
    # serializes, and the parallel efficiency.
    argv, out = wl.command("traced")
    rep = timed_process(argv, wl.rundir)
    ok = rep.rc == 0 and wl.result_ok(out)
    checks.record("command", ok)
    par_eff = rep.cpu / (rep.wall * wl.threads) if rep.wall > 0 else 0.0

    # Thread invariance: the same results at --threads 1 and 4.
    if ok:
        if wl.name == "sweep-sab":
            other, other_out = wl.in_process_sweep(1)
        else:
            other, other_out = wl.command(
                "threads", threads=4 if wl.threads == 1 else 1)
        rc, _ = capture(other, wl.rundir)
        checks.record("threads 1 vs 4", rc == 0 and
                      wl.table_bytes(other_out) == wl.table_bytes(out))

    extra = ["--spans", os.path.join(wl.rundir, "spans.tsv"),
             "--work-dir", wl.rundir]
    if wl.name == "sweep-sab":
        extra += ["--pifetch", PIFETCH, "--sweep-dir", os.path.dirname(out)]
    elif ok:
        extra += ["--doc", out]
    t0 = time.perf_counter()
    doc = driver("trace", wl, extra)
    traced_wall = time.perf_counter() - t0
    checks.record("traced replay", doc is not None)
    metrics = {}
    if doc is not None:
        metrics = dict(doc["metrics"])
        fid_ok = metrics.get("fidelity.mismatches", 1) == 0
        checks.record("driver fidelity (%d points)" %
                      metrics.get("fidelity.points_checked", 0), fid_ok)
        for err in doc.get("errors", []):
            if not err.startswith("fidelity"):
                checks.record("driver check", False, err)
    metrics["sim.par_eff"] = par_eff
    after = host_sample()
    info = {"command_wall_s": rep.wall, "command_cpu_s": rep.cpu,
            "driver_wall_s": traced_wall,
            "host": host_context(before, after)}
    return checks, metrics, info


# ---------------------------------------------------------------- output


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def e2e_units(spec):
    """Units of the end-to-end metrics, plus error_rate, which is 0 when
    all is well and so is carried in the result line only as
    "failed"/"attempted"."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "fraction"
    return units


def print_status(checks):
    """Print every failed check, and the passed ones that are not one
    of the many per-repetition checks."""
    routine = tuple("%s rep" % w for w in WORKLOADS) + ("setup ",)
    for name, ok, detail in checks.status:
        if not ok or not name.startswith(routine):
            print("  check %-44s %s%s" % (name, "ok" if ok else "FAILED",
                                          " (%s)" % detail if detail else ""))


def run_one(name, seed, seconds, trace, spec):
    rundir = os.path.join(BUILD, "runs", "%s-seed%d-trace%d" %
                          (name, seed, trace))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    wl = Workload(name, seed, rundir)
    if trace:
        checks, metrics, info = run_traced(wl)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("%s: traced replay" % name)
        for k in sorted(metrics):
            # Metrics of layers only some workloads run are printed but
            # not listed in BENCHMARK.json (see README.md).
            unit = units.get(k) or ("s" if k.endswith("_s") else "ns"
                                    if k.endswith("_ns") else "count")
            print("  %-32s %.6g %s" % (k, metrics[k], unit))
        out = {k: {"value": metrics.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    else:
        checks, metrics, info = run_e2e(wl, seconds)
        print("%s: %d reps, %d set-up samples, host steal %.3f, "
              "load %.2f -> %.2f" % (
            name, info["reps"], info["setup_samples"],
            info["host"]["steal_frac"],
            info["host"]["load_before"], info["host"]["load_after"]))
        units = e2e_units(spec)
        for k, u in units.items():
            print("  %-18s %.6g %s" % (k, metrics[k], u))
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print_status(checks)
    with open(os.path.join(rundir, "summary.json"), "w") as f:
        json.dump({"metrics": metrics, "info": info,
                   "checks": checks.status}, f, indent=1)
    return checks, metrics, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("pifbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    if not build():
        return 1

    print("held-out seed for gain claims: %d" % HELD_OUT_SEED)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics_out = {}
    table = []
    for name in names:
        checks, metrics, out = run_one(name, args.seed, args.seconds,
                                       args.trace, spec)
        attempted += checks.attempted
        failed += checks.failed
        table.append((name, metrics, checks))
        if len(names) == 1:
            metrics_out = out
        else:
            for k, v in out.items():
                metrics_out["%s.%s" % (name, k)] = v
    if len(names) > 1 and not args.trace:
        print("\n%-30s" % "metric (unit)" +
              "".join("%14s" % n for n in names))
        for k, unit in e2e_units(spec).items():
            print("%-30s" % ("%s (%s)" % (k, unit)) +
                  "".join("%14.6g" % m[k] for _, m, _ in table))
        print("%-30s" % "output checks" + "".join(
            "%14s" % ("ok" if c.failed == 0 else "%d FAILED" % c.failed)
            for _, _, c in table))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
