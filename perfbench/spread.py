#!/usr/bin/env python3
"""Run one workload over several seeds and report how much each
end-to-end metric spreads from run to run, host-normalised and raw.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 20]

Run from the root of a Cayman checkout. The spread of a metric is the
distance between the first and third quartile of its values, as
statistics.quantiles(values, n=4) gives them, as a share of their
median. Per-run figures go to stderr as they arrive; the table goes to
stdout.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

NUM = r"([0-9.eE+-]+)"
RAW = re.compile(
    rf"raw: setup_s {NUM} wall_s {NUM} p50_ms {NUM} tail_ms {NUM}")
TIMES = ["setup_s", "wall_s", "p50_ms", "tail_ms"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    norm, raw = {}, {}
    for seed in seeds(args.seeds):
        p = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if p.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed or incorrect", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            norm.setdefault(name, []).append(m["value"])
        match = RAW.search(p.stderr)
        for name, value in zip(TIMES, match.groups()):
            raw.setdefault(name, []).append(float(value))
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    print(f"{args.workload}, {len(norm['wall_s'])} runs of {args.seconds} s")
    print(f"{'metric':<12} {'median':>10} {'spread':>7} {'max/min':>8}"
          f" {'raw spread':>11} {'raw max/min':>12}")
    for name, values in norm.items():
        line = (f"{name:<12} {statistics.median(values):>10.4g}"
                f" {spread(values):>7.3f} {max(values) / min(values):>8.3f}")
        if name in raw:
            r = raw[name]
            line += f" {spread(r):>11.3f} {max(r) / min(r):>12.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
