#!/usr/bin/env python3
"""Interleaved A/B timing of two pifetch binaries on one command line.

Runs binary A and binary B on the same arguments for N pairs,
alternating which of the two runs first in each pair so slow drift in
host load falls on both sides. Each child's wall time, user+sys CPU
time and peak RSS come from os.wait4; its stdout goes to /dev/null.
Prints min, median and interquartile range per binary and the B/A
ratios of the medians and minima.

    scripts/perf_ab.py --pairs 5 OLD/pifetch NEW/pifetch -- \\
        run fig9-history --workload db2 --threads 4

Exits 1 if any run fails (its stderr is passed through).
"""

import argparse
import os
import statistics
import sys
import time

METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


def run_once(binary, args):
    """One child run: {metric: value}; raises on a non-zero exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(binary, [binary] + args, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2,
                                            devnull, 1)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(devnull)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{binary} {' '.join(args)}: exit {code}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux: KiB
    }


def summarize(values):
    """(min, median, IQR) of a sample; IQR is 0 below two points."""
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return min(values), statistics.median(values), iqr


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pairs", type=int, default=5,
                        help="A/B pairs to run (default 5)")
    parser.add_argument("a", help="baseline binary (A)")
    parser.add_argument("b", help="candidate binary (B)")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments for both binaries, after --")
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if opts.pairs < 1 or not args:
        parser.error("need --pairs >= 1 and an argument list")

    runs = {"A": [], "B": []}
    binaries = {"A": opts.a, "B": opts.b}
    try:
        for pair in range(opts.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                runs[side].append(run_once(binaries[side], args))
    except (OSError, RuntimeError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1

    print(f"# {' '.join(args)}  ({opts.pairs} pairs, alternating order)")
    print(f"{'metric':<12} {'side':<4} {'min':>9} {'median':>9} "
          f"{'iqr':>9}")
    stats = {}
    for metric, unit in METRICS:
        for side in ("A", "B"):
            stats[metric, side] = summarize([r[metric] for r in runs[side]])
            lo, med, iqr = stats[metric, side]
            print(f"{metric:<12} {side:<4} {lo:>9.3f} {med:>9.3f} "
                  f"{iqr:>9.3f}  {unit}")
    for label, index in (("median", 1), ("min", 0)):
        ratios = "  ".join(
            f"{metric} {stats[metric, 'B'][index] / stats[metric, 'A'][index]:.3f}"
            for metric, _ in METRICS)
        print(f"B/A {label:<6}: {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
