"""Benchmark of workreal's five CLI experiments, run as four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each experiment starts in a fresh interpreter after the
previous one has ended, so the package's caches start cold as they do for every
CLI user.  Rounds of the workload's experiments repeat until S seconds have
passed; every round runs the same experiments, so the share of failed runs does
not depend on the run length.  Outputs go to a temporary directory inside the
checkout and are checked against computations made apart from the program
(checks.py) and for byte-identical reruns.

With --trace 0 the last stdout line holds the end-to-end metrics (medians over
the rounds).  With --trace 1 the same untraced rounds run first, then one traced
round gives per-layer call counts and self times (tracer.py), and a fresh
interpreter times the layer probes (child.py).  A JSON report with the samples
and the machine's details is written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 10
MC_SAMPLES = 10_000_000


def workload_ops(name: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one round."""
    if name == "osc-grid":
        return [["squeeze-grid", "--grid-spec", "0:0.1:21"]]
    if name == "osc-beta":
        return [["squeeze-beta"]]
    if name == "tls-sweep":
        return [["tls-theta", "--grid-spec", "0:6.283185307179586:7201"]]
    return [["jarzynski-check", "--seed", str(seed)],
            ["mc-crosscheck", "--n-samples", str(MC_SAMPLES), "--seed", str(seed)]]


# items of work per round, and the experiment whose wall time they are divided by
ITEMS = {"osc-grid": (21 * 21, 0), "osc-beta": (11, 0), "tls-sweep": (7201, 0),
         "crosschecks": (MC_SAMPLES, 1)}
WORKLOADS = tuple(ITEMS)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # WORKREAL_THREADS would override the CLI's thread default; the checkout's
    # source tree is the package under test.
    for var in ("WORKREAL_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = child_env()
        self.counter = itertools.count()

    def child(self, mode: str, argv: list[str] = (), spans: Path | None = None) -> dict:
        """Run child.py once; returns its result with setup_s (and wall_s for ops)."""
        result_path = self.scratch / f"child-{next(self.counter)}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *argv]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            sys.stderr.write(f"perfbench: {mode} {' '.join(argv)} ran past "
                             f"{CHILD_TIMEOUT_S} s and was killed\n")
            result_path.unlink(missing_ok=True)
            return {"rc": 124}
        if not result_path.is_file():
            sys.stderr.write(proc.stderr)
            return {"rc": proc.returncode or 1}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        if proc.returncode != 0 or result["rc"] != 0:
            sys.stderr.write(proc.stderr)
            result["rc"] = result["rc"] or proc.returncode
        result["setup_s"] = result["ready"] - start
        if "done" in result:
            result["wall_s"] = result["done"] - result["ready"]
        return result

    def round(self, ops: list[list[str]], tag: str, traced: bool = False) -> list[dict]:
        results = []
        for k, argv in enumerate(ops):
            out = self.scratch / tag / f"op{k}"
            spans = self.scratch / tag / f"op{k}.spans.json" if traced else None
            out.mkdir(parents=True)
            result = self.child("op", [*argv, "--out", str(out)], spans)
            result["out"] = out
            result["spans"] = spans
            results.append(result)
        return results


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": _blas_threads(),
            "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                      "OMP_NUM_THREADS") if v in os.environ}}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_or_none(values: list[float]) -> float | None:
    """None (JSON null) when every round failed; the run is then not correct."""
    return statistics.median(values) if values else None


def round_wall(results: list[dict]) -> float:
    return sum(r["wall_s"] for r in results)


def run(args: argparse.Namespace, scratch: Path) -> tuple[dict, dict]:
    import checks
    from tracer import layer_totals

    runner = Runner(scratch)
    ops = workload_ops(args.workload, args.seed)
    items, throughput_op = ITEMS[args.workload]
    runner.child("setup")  # compiles bytecode and warms the file cache; not timed

    rounds: list[list[dict]] = []
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append(runner.round(ops, f"round{len(rounds)}"))
    traced = runner.round(ops, "traced", traced=True) if args.trace else None

    every_round = rounds + ([traced] if traced else [])
    attempted = sum(len(r) for r in every_round)
    failed = sum(1 for r in every_round for op in r if op["rc"] != 0)
    good = [r for r in rounds if all(op["rc"] == 0 for op in r)]
    problems = []
    reference = None
    for results in every_round:
        if any(op["rc"] != 0 for op in results):
            continue
        digests = [csv_digests(op["out"]) for op in results]
        if reference is None:
            reference = digests
            try:
                checks.CHECKS[args.workload]([op["out"] for op in results], args.seed)
            except checks.CheckFailed as err:
                problems.append(f"{args.workload}: {err}")
        elif digests != reference:
            problems.append(f"{args.workload}: a rerun wrote different CSV bytes")
    if reference is None:
        problems.append(f"{args.workload}: no round ran without a failure")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "rounds": [[{k: op.get(k) for k in ("rc", "setup_s", "wall_s", "peak_rss_mib")}
                          for op in r] for r in rounds],
              "problems": problems}
    metrics: dict = {}
    walls = [round_wall(r) for r in good]
    if not args.trace:
        setups = [op["setup_s"] for r in rounds for op in r if "setup_s" in op]
        for _ in range(SETUP_SAMPLES - len(setups)):
            start = runner.child("setup")
            if start["rc"] == 0:
                setups.append(start["setup_s"])
            else:
                problems.append(f"{args.workload}: an import-only start failed")
        metrics = {
            "setup_s": metric(median_or_none(setups), "s"),
            "wall_s": metric(median_or_none(walls), "s"),
            "peak_rss_mib": metric(median_or_none(
                [max(op["peak_rss_mib"] for op in r) for r in good]), "MiB"),
            "items_per_s": metric(median_or_none(
                [items / r[throughput_op]["wall_s"] for r in good]), "1/s"),
        }
        report["setup_samples"] = setups
    else:
        spans, overhead = [], 0.0
        for op in traced:
            if op["spans"].is_file():
                op_spans = json.loads(op["spans"].read_text(encoding="utf-8"))
                spans.extend(op_spans)
                overhead += len(op_spans) * op.get("span_cost_s", 0.0)
        for layer, totals in layer_totals(spans).items():
            metrics[f"{layer}.calls"] = metric(totals["calls"], "count")
            metrics[f"{layer}.self_s"] = metric(totals["self_s"], "s")
        metrics["tables.bytes_written"] = metric(
            sum(p.stat().st_size for op in traced for p in op["out"].glob("*.csv")), "bytes")
        metrics["trace.overhead_s"] = metric(overhead, "s")
        probes = runner.child("probes").get("probes", {})
        for name, value in probes.items():
            metrics[name] = metric(value, "1/s" if name.endswith("per_s") else "s")
        report["traced_round"] = [{k: op.get(k) for k in ("rc", "setup_s", "wall_s")}
                                  for op in traced]
        (ROOT / ".perfbench" / f"spans-{args.workload}.json").write_text(
            json.dumps(spans), encoding="utf-8")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "workreal" / "cli.py").is_file():
        print(f"perfbench: no workreal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        result, report = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report_path = ROOT / ".perfbench" / \
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# environment " + json.dumps(report["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
