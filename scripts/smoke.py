#!/usr/bin/env python3
"""Run each row of `rows` as a process of its own and check what only a process shows.

    PYTHONPATH=src python scripts/smoke.py

A row runs `python -m workreal.cli ARGV --out DIR` with its environment, CPU set
and address-space limit.  It fails on another exit status than its own, a
traceback or RuntimeWarning in stderr, no stderr line matching its pattern, a
peak RSS (os.wait4) over its limit, a path it names existing afterwards, or a
pair of variant runs whose CSV bytes differ.  Prints the
numpy, scipy and OpenBLAS fingerprint, one line per row, and every failed row.
"""

import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ("tls-theta", "squeeze-grid", "squeeze-beta", "jarzynski-check", "mc-crosscheck")
# a row's runs as (environment, pinned to one CPU); a pair must write equal CSV bytes
VARIANTS = {None: [({}, False)], "rerun": [({}, False)] * 2, "cpu": [({}, True), ({}, False)],
            "threads": [({"OPENBLAS_NUM_THREADS": n}, False) for n in ("1", "2")]}


@dataclass
class Row:
    argv: tuple[str, ...]
    status: int = 0
    same: str | None = None  # a key of VARIANTS
    rss_mib: float | None = None  # peak RSS limit
    as_kib: int | None = None  # address-space limit, as `ulimit -v` takes it
    env: dict[str, str] = field(default_factory=dict)
    stderr: str | None = None  # a pattern some line of stderr must match
    absent: tuple[str, ...] = ()  # paths under the run's --out, "." the directory itself

    @property
    def in_process(self) -> bool:
        """Whether a call of `workreal.cli.main(argv)` runs the row: all but one with
        an address-space limit.  An environment, a CPU set, a variant or a peak RSS
        bound changes no function the run enters."""
        return not self.as_kib

    def label(self) -> str:
        words = " ".join(["workreal", *self.argv])
        return words.encode("unicode_escape").decode() + (f" [{self.same}]" if self.same else "")


def rows(tmp: Path) -> list[Row]:
    """The table; writes the config file of the `--config` row into `tmp`."""
    config = tmp / "tls-theta.cfg"
    config.write_text("beta = 0.5\ngrid_spec = 0:6.283185307179586:9\n", encoding="utf-8")
    conventions = ("--degeneracy", "grouped", "--middle-entropy", "measured")
    grid_error, unmade = "^config error: grid_spec: ", (".",)
    return [
        *(Row((name, "--help")) for name in EXPERIMENTS),
        # every experiment and convention on a small grid, base 2 and a config file
        Row(("tls-theta",)),
        Row(("tls-theta", "--config", str(config), "--entropy-base", "2")),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:5")),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:5", *conventions, "--entropy-base", "2")),
        Row(("squeeze-beta", "--beta-grid", "0.5,1")),
        Row(("squeeze-beta", "--beta-grid", "0.5,2")),
        Row(("squeeze-beta", "--beta-grid", "0.5,1", *conventions), same="rerun"),
        Row(("jarzynski-check", "--seed", "1"), same="rerun"),
        Row(("mc-crosscheck", "--seed", "1")),
        # refused before the run, most of them before the output directory is made
        Row(("squeeze-beta", "--beta", "0.3"), 2),
        Row(("squeeze-grid", "--grid-spec", "0:1e308:2"), 2, stderr="grid_spec"),
        Row(("squeeze-beta", "--beta-grid", "1,\n2"), 2, stderr="^config error: beta_grid: ",
            absent=unmade),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:101\n"), 2, stderr=grid_error, absent=unmade),
        Row(("squeeze-grid", "--grid-spec=-1:0:3"), 2, stderr=grid_error, absent=unmade),
        Row(("squeeze-beta", "--grid-spec", "0.5,0.1"), 2, stderr=grid_error, absent=unmade),
        Row(("mc-crosscheck", "--seed", "1", "--theta", "nan"), 2,
            stderr="^config error: theta: ", absent=unmade),
        # a cell over its truncation budget, an amplitude no truncation holds, and the
        # dip past the grid edge: each fails the run and writes no table
        Row(("squeeze-grid", "--beta", "1", "--n-max", "64", "--grid-spec", "0:1:3"), 3,
            absent=("squeeze_grid.csv",)),
        # refused before any build: building the r = 1 point first peaks at 231 MiB
        Row(("squeeze-beta", "--beta-grid", "1", "--grid-spec", "1:1e307:3"), 3, rss_mib=100,
            absent=("squeeze_beta.csv",)),
        # as is a beta no truncation holds: building beta 0.1 first peaks at 130 MiB
        Row(("squeeze-beta", "--beta-grid", "0.1,1e-310", "--degeneracy", "grouped"), 3,
            rss_mib=100, absent=("squeeze_beta.csv",)),
        # a coarse scan of beta 0.5 that walks on to r = 0.8 peaks at 234 MiB
        Row(("squeeze-beta", "--beta-grid", "0.5,2", *conventions), 2, rss_mib=150,
            absent=("squeeze_beta.csv",)),
        # the squeeze matrices of beta 0.005 take 237 MiB each: exit 3 naming numpy's
        # allocation, not a MemoryError traceback
        Row(("squeeze-grid", "--beta", "0.005", "--grid-spec", "0:0.01:2"), 3, as_kib=700_000,
            env={"OPENBLAS_NUM_THREADS": "1"}, stderr="^out of memory: Unable to allocate"),
        # the bytes of a CSV depend on neither a rerun, the BLAS threads nor the CPUs
        Row(("tls-theta", "--grid-spec", "0:6.283185307179586:7201"), same="rerun"),
        Row(("tls-theta", "--entropy-base", "2"), same="rerun"),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:5", "--degeneracy", "grouped"), same="rerun"),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:5", "--entropy-base", "2"), same="threads"),
        Row(("squeeze-grid", "--grid-spec", "0:0.1:21"), same="threads"),
        Row(("squeeze-beta",), same="threads"),
        # the oscillator rows' squeeze kernel and 257-level product
        Row(("jarzynski-check", "--seed", "1"), same="threads"),
        # the sampler draws in one block per usable CPU
        Row(("mc-crosscheck", "--n-samples", "1000000", "--seed", "1"), same="cpu"),
        Row(("mc-crosscheck", "--n-samples", "10000000", "--seed", "1"), rss_mib=150),
        # a coarse scan that walks far past the dip peaks at 130 MiB
        Row(("squeeze-beta", "--degeneracy", "grouped"), rss_mib=100),
    ]


def fingerprint() -> str:
    """The numpy and scipy versions and the `get_config` string, which names the
    core its kernels were picked for, of each OpenBLAS library they load."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    lines = [f"numpy {numpy.__version__}, scipy {scipy.__version__}"]
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                lines.append(f"{Path(path).name}: {getattr(lib, name)().decode()}")
                break
    return "\n".join(lines)


def check(row: Row, out: Path, program: tuple[str, ...] = ("-m", "workreal.cli")
          ) -> tuple[list[str], float, float, str]:
    """(problems, wall seconds, peak RSS in MiB, last stderr) of the row's runs of
    `python PROGRAM ARGV --out DIR`, DIR being `out`-0, `out`-1, ..."""
    problems, wall, peak, csvs = [], 0.0, 0.0, []
    for k, (env, one_cpu) in enumerate(VARIANTS[row.same]):
        run_dir = out.with_name(f"{out.name}-{k}")

        def limit():  # in the child, before it runs python
            if one_cpu:
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            if row.as_kib:
                resource.setrlimit(resource.RLIMIT_AS, (row.as_kib * 1024,) * 2)

        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, *program, *row.argv, "--out", str(run_dir)],
            cwd=out.parent, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **row.env, **env},
            preexec_fn=limit if one_cpu or row.as_kib else None)
        with child.stderr:
            err = child.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wall, peak = wall + time.monotonic() - started, max(peak, usage.ru_maxrss / 1024)
        if child.returncode != row.status:
            problems.append(f"exit {child.returncode}, expected {row.status}")
        problems += [f"{word} in stderr" for word in ("Traceback", "RuntimeWarning")
                     if word in err]
        if row.stderr and not re.search(row.stderr, err, re.MULTILINE):
            problems.append(f"no stderr line matches {row.stderr!r}")
        if row.rss_mib and usage.ru_maxrss / 1024 > row.rss_mib:
            problems.append(f"peak RSS {usage.ru_maxrss / 1024:.1f} MiB over {row.rss_mib} MiB")
        problems += [f"{name} exists" for name in row.absent if (run_dir / name).exists()]
        csvs.append({path.name: path.read_bytes() for path in run_dir.glob("*.csv")})
    if len(csvs) == 2 and not csvs[0]:
        problems.append("no CSV to compare")
    elif len(csvs) == 2 and csvs[0] != csvs[1]:
        problems.append(f"CSV bytes differ between the {row.same} runs")
    return problems, wall, peak, err


def main() -> int:
    # in a child: a child's peak RSS starts at its parent's, which numpy would lift
    print(subprocess.run([sys.executable, "-c", "import smoke; print(smoke.fingerprint())"],
                         cwd=ROOT / "scripts", check=True, capture_output=True,
                         text=True).stdout, end="")
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        table = rows(Path(tmp))
        for k, row in enumerate(table):
            problems, wall, peak, err = check(row, Path(tmp) / str(k))
            print(f"{'FAIL' if problems else 'ok':4} {wall:6.2f} s {peak:6.1f} MiB  "
                  f"{row.label()}", *problems, sep="\n    ", flush=True)
            if problems:
                print(err, file=sys.stderr, flush=True)
                failed.append(row.label())
    if failed:
        print(f"smoke: {len(failed)} of {len(table)} rows failed:", *failed, sep="\n  ")
        return 1
    print(f"smoke: all {len(table)} rows pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
