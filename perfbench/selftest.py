"""Shows that every output check fails when its output is perturbed past tolerance.

    python3 perfbench/selftest.py [--seed N]

Each workload's experiments run once, in fresh interpreters as in run.py.  The
checks must pass on that real output; then each perturbation below is applied to
a copy of it, and the check it targets must fail with the expected message.  A
one-byte edit must also change the digests the rerun comparison uses.  Exits 0
only if every perturbation is caught.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run


def rewrite(path: Path, mutate) -> None:
    """Apply mutate(meta, columns, rows) to a CSV, keeping its manifest lines and
    its 17-significant-digit row format."""
    meta, columns, rows = checks.read_csv(path)
    rows = mutate(meta, columns, rows)
    manifest = [line for line in path.read_text(encoding="utf-8").splitlines()
                if line.startswith("#")]
    body = [",".join(f"{x:.17g}" for x in row) for row in rows]
    path.write_text("\n".join(manifest + [",".join(columns)] + body) + "\n",
                    encoding="utf-8")


def cell(columns, rows, name, where):
    """Index of the single row where `where(column_getter)` holds."""
    get = lambda col: rows[:, columns.index(col)]  # noqa: E731
    hit = np.flatnonzero(where(get))
    assert hit.size == 1, f"{hit.size} rows match"
    return int(hit[0]), columns.index(name)


def shift(csv, name, where, amount):
    def mutate(meta, columns, rows):
        i, j = cell(columns, rows, name, where)
        rows[i, j] += amount(meta, columns, rows, i)
        return rows
    return csv, mutate


def near(col, value):
    return lambda get: np.abs(get(col) - value) < 1e-12


def at(r1, r2):
    return lambda get: (np.abs(get("r1") - r1) < 1e-12) & (np.abs(get("r2") - r2) < 1e-12)


def budget_times(factor):
    return lambda meta, columns, rows, i: factor * rows[i, columns.index("truncation_budget")]


def shifted_minimum(meta, columns, rows):
    """Move beta = 1's argmin_r by 5e-4 and give it the oracle's value there, so
    the value agrees but the point is no longer a local minimum."""
    i = int(np.flatnonzero(rows[:, columns.index("beta")] == 1.0)[0])
    r = rows[i, columns.index("argmin_r")] + 5e-4
    rows[i, columns.index("argmin_r")] = r
    rows[i, columns.index("min_k_en")] = checks.oracle_k_en(
        1.0, r, r, int(rows[i, columns.index("n_max")]))
    return rows


def swap_unchecked_depths(seed):
    """Swap min_k_en of two neighbouring rows the oracle does not revisit."""
    checked = set(checks.beta_rows(seed))
    k = next(k for k in range(10) if k not in checked and k + 1 not in checked)

    def mutate(meta, columns, rows):
        j = columns.index("min_k_en")
        rows[[k, k + 1], j] = rows[[k + 1, k], j]
        return rows
    return mutate


def edge_peak(meta, columns, rows):
    rows[0, columns.index("argmin_r")] = 1.0
    return rows


def jarzynski_over_bound(meta, columns, rows):
    rows[7, columns.index("deviation")] = 1.5 * rows[7, columns.index("bound")]
    return rows


def sampled_six_sigma(meta, columns, rows):
    exact = rows[0, columns.index("exact")]
    rows[0, columns.index("empirical")] = exact + 6.0 * np.sqrt(
        exact * (1 - exact) / int(meta["n_samples"]))
    return rows


def perturbations(seed: int) -> dict[str, list[tuple[str, str, tuple]]]:
    """workload -> [(description, expected message fragment, (op index, csv, mutate))]"""
    tls = "tls_theta.csv"
    angle = near("theta", checks.TWO_PI_GRID[1000])
    r2_zero_cell = checks.grid_cells(seed)[3][1]
    return {
        "osc-grid": [
            ("K_en(0.05, 0.1) off by 10x its budget", "K_en(0.05",
             (0, *shift("squeeze_grid.csv", "k_en", at(0.05, 0.1), budget_times(10.0)))),
            (f"K_en(0, {r2_zero_cell:g}) off by 10x its budget", "K_en(0.0,",
             (0, *shift("squeeze_grid.csv", "k_en", at(0.0, r2_zero_cell),
                        budget_times(10.0)))),
            ("a truncation budget of 2e-6", "budget exceeds",
             (0, *shift("squeeze_grid.csv", "truncation_budget", at(0.1, 0.1),
                        lambda *a: 2e-6))),
            ("landmark K_en(0.02, 0.02) made positive", "landmark",
             (0, *shift("squeeze_grid.csv", "k_en", at(0.02, 0.02), lambda *a: 0.1))),
            ("empty K_en = 0 contour", "contour is empty",
             (0, "squeeze_grid_contour_0.csv", lambda meta, columns, rows: rows[:0])),
        ],
        "osc-beta": [
            ("min_k_en at beta = 1 off by 10x its budget", "oracle at argmin_r",
             (0, *shift("squeeze_beta.csv", "min_k_en", near("beta", 1.0),
                        budget_times(10.0)))),
            ("argmin_r at beta = 1 moved by 5e-4, value kept consistent",
             "not a local minimum", (0, "squeeze_beta.csv", shifted_minimum)),
            ("two neighbouring depths swapped", "shallow monotonically",
             (0, "squeeze_beta.csv", swap_unchecked_depths(seed))),
            ("argmin_r peak moved to beta = 0.1", "peaks at the edge",
             (0, "squeeze_beta.csv", edge_peak)),
        ],
        "tls-sweep": [
            (f"{name} off by 1e-11 at one angle", f"{name} at theta",
             (0, *shift(tls, name, angle, lambda *a: 1e-11)))
            for name in ("k_cor", "k_cor_flipped", "k_en_fine")
        ],
        "crosschecks": [
            ("one Jarzynski deviation at 1.5x its bound", "Jarzynski row",
             (0, "jarzynski_check.csv", jarzynski_over_bound)),
            ("one exact cell scaled by 1 + 1e-12", "exact column",
             (1, *shift("mc_crosscheck.csv", "exact", lambda get: np.arange(8) == 3,
                        lambda meta, columns, rows, i: 1e-12 * rows[i, columns.index("exact")]))),
            ("one empirical cell set 6 standard errors from its exact value", "standard errors",
             (1, "mc_crosscheck.csv", sampled_six_sigma)),
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench"))
    missed = 0
    try:
        runner = run.Runner(scratch)
        table = perturbations(args.seed)
        for workload in run.WORKLOADS:
            results = runner.round(run.workload_ops(workload, args.seed), workload)
            if any(op["rc"] != 0 for op in results):
                print(f"{workload}: an experiment failed; cannot test its checks")
                missed += 1
                continue
            outs = [op["out"] for op in results]
            checks.CHECKS[workload](outs, args.seed)
            print(f"{workload}: checks pass on the real output")
            for k, (what, fragment, (op, csv, mutate)) in enumerate(table[workload]):
                copies = [scratch / f"{workload}-{k}-op{i}" for i in range(len(outs))]
                for src, dst in zip(outs, copies):
                    shutil.copytree(src, dst)
                rewrite(copies[op] / csv, mutate)
                try:
                    checks.CHECKS[workload](copies, args.seed)
                    verdict, caught = "NOT CAUGHT", False
                except checks.CheckFailed as err:
                    caught = fragment in str(err)
                    verdict = f"caught: {err}" if caught else f"WRONG CHECK: {err}"
                missed += not caught
                print(f"  {what}: {verdict}")
            copy = scratch / f"{workload}-bytes"
            shutil.copytree(outs[0], copy)
            target = sorted(copy.glob("*.csv"))[0]
            text = target.read_text(encoding="utf-8")
            target.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n",
                              encoding="utf-8")
            caught = run.csv_digests(copy) != run.csv_digests(outs[0])
            missed += not caught
            print(f"  last digit of {target.name} changed: "
                  f"{'caught by the rerun comparison' if caught else 'NOT CAUGHT'}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test passed" if missed == 0 else f"self-test FAILED: {missed} missed")
    return 0 if missed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
