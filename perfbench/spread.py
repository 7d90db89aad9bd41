"""Runs the benchmark once per seed and prints each metric's median and spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

The spread is the distance between the first and third quartiles of the
per-run values (statistics.quantiles with n=4) as a share of their median, the
figure each end-to-end bound in BENCHMARK.json is compared with.  Each run uses
--trace 0 and BENCHMARK.json's run_seconds.  Runs are made one after another,
never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):.4f}"
        else:
            spread = "n/a"
        print(f"{name:40s} median {median:.6g}  spread {spread}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    print(f"failed shares seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
