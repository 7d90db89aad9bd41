"""Output checks computed apart from the program.

Nothing here imports workreal.  The oscillator oracle exponentiates the squeeze
generator (r/2)(adag^2 - a^2) with scipy.linalg.expm on n_max + 128 levels and
takes K_en from the joint distributions themselves; the two-level checks use
closed forms.  Each check reads the CSVs an experiment wrote and raises
CheckFailed with the offending value; none compares against a stored copy of
earlier output.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg import expm

ORACLE_PADDING = 128
MAX_BUDGET = 1e-6
TLS_TOL = 1e-12
MC_Z_BOUND = 5.0
LOCAL_MIN_STEP = 2e-4
TWO_PI_GRID = np.linspace(0.0, 6.283185307179586, 7201)
SQUEEZE_GRID = np.linspace(0.0, 0.1, 21)
DEFAULT_BETAS = np.array([0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0])


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(manifest, columns, rows) of a '#'-manifested CSV."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    require(bool(columns), f"{path.name}: no header row")
    data = np.array(rows) if rows else np.empty((0, len(columns)))
    return meta, columns, data


def _column(columns: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    require(name in columns, f"missing column {name!r}")
    return rows[:, columns.index(name)]


# -- oscillator oracle ---------------------------------------------------------

@lru_cache(maxsize=64)
def squeeze_transitions(r: float, size: int) -> np.ndarray:
    """|<m|exp[(r/2)(adag^2 - a^2)]|n>|^2 on `size` levels, by expm."""
    raising_sq = np.zeros((size, size))
    m = np.arange(size - 2)
    raising_sq[m + 2, m] = np.sqrt((m + 1.0) * (m + 2.0))
    g = expm(0.5 * r * (raising_sq - raising_sq.T))
    return g * g


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def oracle_k_en(beta: float, r1: float, r2: float, n_max: int) -> float:
    """K_en = (H(J21) + H(J10) - H(J20) - H(p0)) / 2 in nats, with the middle
    entropy taken on the initial populations and the no-middle joint J20 built
    from the composed squeeze r1 + r2."""
    size = n_max + 1 + ORACLE_PADDING
    p0 = np.zeros(size)
    p0[: n_max + 1] = np.exp(-beta * np.arange(n_max + 1.0))
    p0 /= p0.sum()
    j10 = squeeze_transitions(r1, size) * p0[None, :]
    j21 = squeeze_transitions(r2, size) * j10.sum(axis=1)[None, :]
    j20 = squeeze_transitions(r1 + r2, size) * p0[None, :]
    return 0.5 * (_entropy(j21) + _entropy(j10) - _entropy(j20) - _entropy(p0))


# -- workloads -----------------------------------------------------------------

def _grid_row(r1s, r2s, r1: float, r2: float) -> int:
    hit = np.flatnonzero((np.abs(r1s - r1) < 1e-12) & (np.abs(r2s - r2) < 1e-12))
    require(hit.size == 1, f"cell ({r1}, {r2}) not found exactly once in the grid")
    return int(hit[0])


def grid_cells(seed: int) -> list[tuple[float, float]]:
    """The fixed oracle cells plus one r1 = 0 cell and one free cell drawn from
    the seed."""
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(1, SQUEEZE_GRID.size, size=3)
    return [(0.02, 0.02), (0.05, 0.1), (0.1, 0.025),
            (0.0, float(SQUEEZE_GRID[i])), (float(SQUEEZE_GRID[j]), float(SQUEEZE_GRID[k]))]


def check_osc_grid(out: Path, seed: int) -> None:
    meta, columns, rows = read_csv(out / "squeeze_grid.csv")
    r1s, r2s = _column(columns, rows, "r1"), _column(columns, rows, "r2")
    k_en = _column(columns, rows, "k_en")
    budgets = _column(columns, rows, "truncation_budget")
    require(rows.shape[0] == SQUEEZE_GRID.size ** 2,
            f"squeeze_grid.csv has {rows.shape[0]} rows, want {SQUEEZE_GRID.size ** 2}")
    require(np.all(budgets <= MAX_BUDGET), f"a truncation budget exceeds {MAX_BUDGET:g}: "
            f"max {budgets.max():.3e}")
    landmark = _grid_row(r1s, r2s, 0.02, 0.02)
    require(k_en[landmark] < 0.0, f"landmark K_en(0.02, 0.02) = {k_en[landmark]} is not negative")
    n_max = int(meta["n_max"])
    beta = float(meta["beta"])
    for cell in grid_cells(seed):
        row = _grid_row(r1s, r2s, *cell)
        r1, r2 = float(r1s[row]), float(r2s[row])
        expected = oracle_k_en(beta, r1, r2, n_max)
        require(abs(k_en[row] - expected) <= budgets[row],
                f"K_en({r1}, {r2}) = {float(k_en[row])!r}, oracle {expected!r}, "
                f"budget {budgets[row]:.3e}")
    _, _, contour = read_csv(out / "squeeze_grid_contour_0.csv")
    require(contour.shape[0] > 0, "the K_en = 0 contour is empty")


def beta_rows(seed: int) -> list[int]:
    """Rows of the default beta grid re-derived by the oracle: beta = 0.1, 1 and
    10 always, one more drawn from the seed."""
    extra = int(np.random.default_rng(seed).choice([1, 2, 3, 4, 6, 7, 8, 9]))
    return sorted({0, 5, 10, extra})


def check_osc_beta(out: Path, seed: int) -> None:
    _, columns, rows = read_csv(out / "squeeze_beta.csv")
    betas = _column(columns, rows, "beta")
    depth = _column(columns, rows, "min_k_en")
    argmin = _column(columns, rows, "argmin_r")
    n_maxes = _column(columns, rows, "n_max")
    budgets = _column(columns, rows, "truncation_budget")
    require(np.array_equal(betas, DEFAULT_BETAS), f"unexpected beta grid {betas.tolist()}")
    require(np.all(budgets <= MAX_BUDGET), f"a truncation budget exceeds {MAX_BUDGET:g}")
    require(bool(np.all(np.diff(depth) > 0.0)),
            f"violation depth does not shallow monotonically with beta: {depth.tolist()}")
    peak = int(np.argmax(argmin))
    require(0 < peak < argmin.size - 1,
            f"argmin_r peaks at the edge of the beta grid (beta={betas[peak]})")
    for k in beta_rows(seed):
        beta, r, n_max = float(betas[k]), float(argmin[k]), int(n_maxes[k])
        at_min = oracle_k_en(beta, r, r, n_max)
        require(abs(at_min - depth[k]) <= budgets[k],
                f"beta={beta}: min_k_en {float(depth[k])!r}, oracle at argmin_r={r!r} gives "
                f"{at_min!r} (budget {budgets[k]:.3e})")
        for step in (-LOCAL_MIN_STEP, LOCAL_MIN_STEP):
            beside = oracle_k_en(beta, r + step, r + step, n_max)
            require(beside >= at_min,
                    f"beta={beta}: oracle K_en at r={r + step!r} is {beside!r}, lower "
                    f"than {at_min!r} at argmin_r={r!r}; not a local minimum")


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        return -(np.where(p > 0, p * np.log(p), 0.0) + np.where(q > 0, q * np.log(q), 0.0))


def check_tls_sweep(out: Path, seed: int) -> None:
    _, columns, rows = read_csv(out / "tls_theta.csv")
    theta = _column(columns, rows, "theta")
    require(np.array_equal(theta, TWO_PI_GRID), "theta column is not the requested grid")
    closed = {
        "k_cor": 0.25 * (1.0 - 2.0 * np.cos(theta) + np.cos(2.0 * theta)),
        "k_cor_flipped": 0.25 * (1.0 + 2.0 * np.cos(theta) + np.cos(2.0 * theta)),
        "k_en_fine": _binary_entropy(np.sin(theta / 2.0) ** 2)
        - 0.5 * _binary_entropy(np.sin(theta) ** 2),
    }
    for name, expected in closed.items():
        error = np.abs(_column(columns, rows, name) - expected)
        worst = int(np.argmax(error))
        require(error[worst] <= TLS_TOL,
                f"{name} at theta={float(theta[worst])!r} is off its closed form by "
                f"{error[worst]:.3e} (tolerance {TLS_TOL:g})")


def two_level_cube(theta: float, beta: float) -> np.ndarray:
    """p(k2, k1, k0) for the unit-splitting two-level system with both intervals
    rotated by theta."""
    c2, s2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
    t = np.array([[c2, s2], [s2, c2]])
    p0 = np.array([1.0, math.exp(-beta)]) / (1.0 + math.exp(-beta))
    return t[:, :, None] * t[None, :, :] * p0[None, None, :]


def check_crosschecks(outs: list[Path], seed: int) -> None:
    jarzynski_out, mc_out = outs
    _, columns, rows = read_csv(jarzynski_out / "jarzynski_check.csv")
    require(rows.shape[0] == 102, f"jarzynski_check.csv has {rows.shape[0]} rows, want 102")
    deviation = _column(columns, rows, "deviation")
    bound = _column(columns, rows, "bound")
    worst = int(np.argmax(deviation / bound))
    require(bool(np.all(deviation < bound)),
            f"Jarzynski row {worst}: deviation {deviation[worst]:.3e} >= bound {bound[worst]:.3e}")
    meta, columns, rows = read_csv(mc_out / "mc_crosscheck.csv")
    require(rows.shape[0] == 8, f"mc_crosscheck.csv has {rows.shape[0]} rows, want 8")
    cube = two_level_cube(float(meta["theta"]), float(meta["beta"]))
    k = rows[:, :3].astype(int)
    closed = cube[k[:, 0], k[:, 1], k[:, 2]]
    exact = _column(columns, rows, "exact")
    require(bool(np.allclose(exact, closed, rtol=1e-13, atol=0.0)),
            f"exact column {exact.tolist()} differs from the closed form {closed.tolist()}")
    n = int(meta["n_samples"])
    z = np.abs(_column(columns, rows, "empirical") - closed) / np.sqrt(closed * (1 - closed) / n)
    require(bool(np.all(z < MC_Z_BOUND)),
            f"empirical cell {k[int(np.argmax(z))].tolist()} lies {z.max():.2f} standard "
            f"errors from the exact value")


CHECKS = {
    "osc-grid": lambda outs, seed: check_osc_grid(outs[0], seed),
    "osc-beta": lambda outs, seed: check_osc_beta(outs[0], seed),
    "tls-sweep": lambda outs, seed: check_tls_sweep(outs[0], seed),
    "crosschecks": check_crosschecks,
}
