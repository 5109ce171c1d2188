"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs one workload once per seed, each in a fresh process, and prints
every metric's median and its spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  From the repository root::

    python3 perfbench/spread.py --workload serving.mixed --seeds 10 \\
        --seconds 10 [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values = {}
    units = {}
    for seed in range(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED {result}", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={e['value']:.5g}" for n, e in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':36s} {'median':>12s} {'spread':>8s}  unit")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:36s} {median:12.6g} {spread:8.4f}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
