"""Configuration-driven command line for the named experiments.

One experiment per invocation; every run writes CSV files whose bytes are a pure
function of (config, seed) on the same machine.  Wall time and other run chatter
go to stdout and a sidecar .log file so they never break byte-level
reproducibility of the data.

Every experiment takes `--config PATH` and `--out DIR`, plus its settings:

    tls-theta        --beta --grid-spec --entropy-base
    squeeze-grid     --beta --n-max --grid-spec --entropy-base --degeneracy --middle-entropy
    squeeze-beta     --grid-spec --beta-grid --entropy-base --degeneracy --middle-entropy
    jarzynski-check  --seed
    mc-crosscheck    --beta --seed --theta --n-samples

The config file holds `key = value` lines for `out_dir` and those settings; flags
win.  Any other flag or key exits 2.  Exit codes: 0 success (all budgets met),
2 invalid configuration, or an output directory, table or run log that cannot
be written ("config error: out_dir: ..."), 3 a budget or bound not met: a
truncation budget, a Jarzynski row's bound, or an mc-crosscheck cell MC_Z_BOUND
or more standard errors from its exact probability; 3 also when an allocation
fails ("out of memory: ..." with numpy's bytes and shape).

Run policy lives here: each experiment's defaults (the grids THETA_GRID,
SQUEEZE_GRID, R_GRID and BETA_GRID among them) and the manifest's echo of the
settings.  Every table leaves through `_write`.  The library computes every
entropy and K_en in nats; under `--entropy-base 2`, `_write` divides the K_en
columns its runner names by log 2 before the table is written, and squeeze-grid
draws its contours on the converted grid, so the contour levels are in the
output unit.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError, TruncationError
from .hilbert import build_thermal_state
from .protocol import (
    empirical_chi_squared_pvalue,
    jarzynski_deviation,
    sample_trajectories,
    three_time_joint,
    total_work_distribution,
)
from .squeezing import N_MAX_CAP, beta_sweep_min_k, oscillator_three_time, squeeze_grid_sweep
from .tables import SweepTable, contour_points, write_table_csv
from .two_level import (
    TWO_PI,
    TlsAngles,
    tls_jarzynski_deviations,
    tls_propagator,
    tls_spectrum,
    tls_theta_sweep,
)

# each setting's type, and the values a convention setting allows
SETTINGS = {
    "beta": (float, None), "n_max": (int, None), "seed": (int, None),
    "grid_spec": (str, None), "beta_grid": (str, None), "theta": (float, None),
    "n_samples": (int, None), "entropy_base": (str, ("e", "2")),
    "degeneracy": (str, ("fine", "grouped")),
    "middle_entropy": (str, ("initial", "measured")),
}
# the grids swept where --grid-spec or --beta-grid is not given: tls-theta's angles,
# squeeze-grid's r1 = r2 axis, and squeeze-beta's coarse r scan and betas
THETA_GRID = "0:6.283185307179586:721"
SQUEEZE_GRID = "0:0.1:101"
R_GRID = "geom:0.004:0.8:20"
BETA_GRID = "0.1,0.2,0.3,0.5,0.7,1,1.5,2,3,5,10"
# K_en levels of the squeeze-grid contour files, in the output unit
CONTOUR_LEVELS = (0.0, -0.05)
# an mc-crosscheck cell this many standard errors sqrt(p (1 - p) / n) from its
# exact probability p fails the run
MC_Z_BOUND = 5.0


@dataclass
class SweepConfig:
    experiment: str
    out_dir: Path = Path(".")
    beta: float | None = None
    n_max: int | None = None
    seed: int | None = None
    grid_spec: str | None = None
    beta_grid: str | None = None
    theta: float | None = None
    n_samples: int = 100000
    entropy_base: str = "e"
    degeneracy: str = "fine"
    middle_entropy: str = "initial"

    def validate(self) -> list[str]:
        problems = []
        if self.beta is not None and not (self.beta > 0 and math.isfinite(self.beta)):
            problems.append(f"beta: must be positive and finite, got {self.beta}")
        if self.theta is not None and not math.isfinite(self.theta):
            problems.append(f"theta: must be finite, got {self.theta}")
        if self.n_max is not None and not 1 <= self.n_max <= N_MAX_CAP:
            problems.append(f"n_max: must be in 1..{N_MAX_CAP}, got {self.n_max}")
        if self.seed is not None and self.seed < 0:
            problems.append(f"seed: must be >= 0, got {self.seed}")
        for name, (_, allowed) in SETTINGS.items():
            value = getattr(self, name)
            if allowed and value not in allowed:
                problems.append(
                    f"{name}: must be {' or '.join(map(repr, allowed))}, got {value!r}")
        if self.n_samples < 1:
            problems.append(f"n_samples: must be >= 1, got {self.n_samples}")
        if self.experiment == "mc-crosscheck" and self.seed is None:
            problems.append("seed: required whenever sampling is requested")
        for name, parse in (("grid_spec", parse_grid_spec), ("beta_grid", parse_value_list)):
            spec = getattr(self, name)
            if spec is None:
                continue
            # parse_grid_spec strips a line break, but the manifest line would split
            if "".join(spec.splitlines()) != spec:
                problems.append(f"{name}: a line break in {spec!r} would split the "
                                f"manifest line")
                continue
            try:
                values = parse(spec)
            except InvalidParameterError as err:
                problems.append(f"{name}: {err}")
                continue
            if name == "beta_grid" and not np.all(values > 0):
                problems.append(f"beta_grid: must be positive, got {spec!r}")
            if name == "grid_spec" and self.experiment != "tls-theta":
                # a squeeze run's largest total amplitude is r + r = 2 r at its largest r
                if not math.isfinite(2.0 * float(values.max())):
                    problems.append(f"grid_spec: the largest r + r is not finite, got {spec!r}")
                if np.any(values < 0):
                    problems.append(f"grid_spec: grids must be non-empty, finite, "
                                    f"non-negative, got {spec!r}")
                if self.experiment == "squeeze-beta" and (values.size < 2
                                                          or np.any(np.diff(values) <= 0)):
                    problems.append(f"grid_spec: r grid must be strictly increasing, with at "
                                    f"least two points, got {spec!r}")
        return problems


def parse_grid_spec(spec: str) -> np.ndarray:
    """"start:stop:count" for a linear grid, "geom:start:stop:count" for geometric,
    or a comma-separated list of values."""
    spec = spec.strip()
    if "," in spec:
        return parse_value_list(spec)
    parts = spec.split(":")
    try:
        if len(parts) == 4 and parts[0] == "geom":
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            if not 0 < start < stop < math.inf or count < 2:
                raise ValueError
            return np.geomspace(start, stop, count)
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError
            return np.linspace(start, stop, count)
    except (ValueError, MemoryError):  # MemoryError: a count no array can hold
        pass
    raise InvalidParameterError(
        f"cannot parse grid spec {spec!r} (want start:stop:count, geom:..., or a value list)")


def parse_value_list(spec: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in spec.split(",") if x.strip()])
    except ValueError as err:
        raise InvalidParameterError(f"bad value list {spec!r}: {err}") from None
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"value list {spec!r} must be non-empty and finite")
    return values


def load_config_file(path: Path, experiment: str) -> dict[str, object]:
    """Plain-text `key = value` pairs; '#' starts a comment.  The keys are
    `out_dir` and the settings the experiment reads."""
    kinds = {"out_dir": Path,
             **{name: SETTINGS[name][0] for name in EXPERIMENTS[experiment][1]}}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key or not value.strip():
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in kinds:
            raise InvalidParameterError(f"{path}:{lineno}: {experiment} does not read {key!r}")
        try:
            values[key] = kinds[key](value.strip())
        except ValueError:
            raise InvalidParameterError(
                f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workreal",
        description="Measurement-based quantum work statistics and macrorealism sweeps.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, settings) in EXPERIMENTS.items():
        # no abbreviations: --beta must not pass for squeeze-beta's --beta-grid
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file; command-line flags win")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        for setting in settings:
            kind, allowed = SETTINGS[setting]
            p.add_argument("--" + setting.replace("_", "-"), type=kind, choices=allowed,
                           default=None)
    return parser


def build_config(args: argparse.Namespace) -> SweepConfig:
    """The config file's values, overridden by the flags given."""
    values = {} if args.config is None else load_config_file(args.config, args.experiment)
    flags = {name: getattr(args, name) for name in EXPERIMENTS[args.experiment][1]}
    flags["out_dir"] = args.out
    values.update((name, value) for name, value in flags.items() if value is not None)
    return SweepConfig(args.experiment, **values)


def _write(config: SweepConfig, name: str, table: SweepTable, *k_en_columns: str) -> Path:
    """The one exit of every table.  Under `--entropy-base 2` the named K_en
    columns are divided by log 2, in place; the manifest starts with the library
    version and the settings the experiment reads, so it never echoes a setting
    that had no effect on the data, followed by the table's own meta."""
    if config.entropy_base == "2":
        for column in k_en_columns:
            table.rows[:, table.columns.index(column)] /= math.log(2)
    meta = {"library": f"workreal {__version__}", "experiment": config.experiment}
    for setting in EXPERIMENTS[config.experiment][1]:
        if getattr(config, setting) is not None:
            meta[setting] = getattr(config, setting)
    table.meta = {**meta, **table.meta}
    write_table_csv(config.out_dir / name, table)
    return config.out_dir / name


def _run_tls_theta(config: SweepConfig) -> tuple[list[Path], bool]:
    table = tls_theta_sweep(config.beta if config.beta is not None else 1.0,
                            parse_grid_spec(config.grid_spec or THETA_GRID))
    return [_write(config, "tls_theta.csv", table, "k_en_fine", "k_en_grouped")], True


def _run_squeeze_grid(config: SweepConfig) -> tuple[list[Path], bool]:
    beta = config.beta if config.beta is not None else 0.1
    grid = parse_grid_spec(config.grid_spec or SQUEEZE_GRID)
    table = squeeze_grid_sweep(beta=beta, r1_grid=grid, r2_grid=grid,
                               n_max=config.n_max, degeneracy=config.degeneracy,
                               middle_entropy=config.middle_entropy)
    written = [_write(config, "squeeze_grid.csv", table, "k_en")]
    z = table.column("k_en").reshape(grid.size, grid.size)
    for level in CONTOUR_LEVELS:
        contour_table = SweepTable(["r1", "r2"], contour_points(grid, grid, z, level),
                                   meta={"contour_level": level})
        written.append(_write(config, f"squeeze_grid_contour_{level:g}.csv", contour_table))
    return written, True


def _run_squeeze_beta(config: SweepConfig) -> tuple[list[Path], bool]:
    table = beta_sweep_min_k(parse_value_list(config.beta_grid or BETA_GRID),
                             parse_grid_spec(config.grid_spec or R_GRID),
                             degeneracy=config.degeneracy,
                             middle_entropy=config.middle_entropy)
    return [_write(config, "squeeze_beta.csv", table, "min_k_en")], True


def _run_jarzynski_check(config: SweepConfig) -> tuple[list[Path], bool]:
    seed = config.seed if config.seed is not None else 20
    rng = np.random.default_rng(seed)
    # two-level: 100 rows of random temperatures, angles and spectra (0, gap) at the
    # two measurement times, drawn row by row: log beta, the three angles, the gaps
    draws = rng.uniform([np.log(0.1), 0.0, 0.0, 0.0, 0.2, 0.2],
                        [np.log(10.0), TWO_PI, TWO_PI, TWO_PI, 3.0, 3.0], size=(100, 6))
    beta = np.exp(draws[:, 0])
    deviation = tls_jarzynski_deviations(beta, *draws[:, 1:].T)
    ok = deviation < 1e-10
    all_ok = bool(ok.all())
    two_level = np.column_stack([np.zeros(100), beta, np.mod(draws[:, 1], TWO_PI), deviation,
                                 np.full(100, 1e-10), ok])
    # oscillator: total work through the middle measurement (equal spectra, dF = 0)
    oscillator = []
    for beta in (0.5, 1.0):
        protocol = oscillator_three_time(beta, 0.3, 0.3)
        deviation = jarzynski_deviation(total_work_distribution(protocol.joint3),
                                        beta, 0.0)
        ok = deviation < protocol.truncation_budget
        all_ok &= ok
        oscillator.append((1.0, beta, 0.3, deviation, protocol.truncation_budget, float(ok)))
    table = SweepTable(
        ["model", "beta", "parameter", "deviation", "bound", "within_bound"],
        np.vstack([two_level, oscillator]),
        meta={"seed": seed, "model_codes": "0=two-level 1=oscillator"})
    return [_write(config, "jarzynski_check.csv", table)], all_ok


def _run_mc_crosscheck(config: SweepConfig) -> tuple[list[Path], bool]:
    theta = config.theta if config.theta is not None else math.pi / 3.0
    beta = config.beta if config.beta is not None else 1.0
    u = tls_propagator(TlsAngles(theta))
    rho0 = build_thermal_state(tls_spectrum(0), beta)
    exact = three_time_joint(rho0, u, u)
    empirical = sample_trajectories(rho0, u, u, config.n_samples, config.seed)
    pvalue = empirical_chi_squared_pvalue(empirical, config.n_samples, exact)
    exact_probs = exact.probs
    rows = [(k2, k1, k0, empirical[k2, k1, k0], exact_probs[k2, k1, k0])
            for k2, k1, k0 in np.ndindex(2, 2, 2)]
    table = SweepTable(["k2", "k1", "k0", "empirical", "exact"], np.array(rows),
                       meta={"theta": theta, "beta": beta, "chi_squared_pvalue": pvalue})
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(empirical - exact_probs) / np.sqrt(
            exact_probs * (1.0 - exact_probs) / config.n_samples)
    z[empirical == exact_probs] = 0.0  # a cell of probability 0 or 1, met exactly
    worst = np.unravel_index(np.argmax(z), z.shape)
    if z[worst] >= MC_Z_BOUND:
        print(f"mc-crosscheck: cell (k2, k1, k0) = {tuple(map(int, worst))} lies "
              f"{z[worst]:.2f} standard errors from its exact value "
              f"(bound {MC_Z_BOUND:g})", file=sys.stderr)
    return [_write(config, "mc_crosscheck.csv", table)], bool(z[worst] < MC_Z_BOUND)


# each experiment's runner and the settings it reads, in manifest order
EXPERIMENTS = {
    "tls-theta": (_run_tls_theta, ("beta", "grid_spec", "entropy_base")),
    "squeeze-grid": (_run_squeeze_grid, ("beta", "n_max", "grid_spec", "entropy_base",
                                          "degeneracy", "middle_entropy")),
    "squeeze-beta": (_run_squeeze_beta, ("grid_spec", "beta_grid", "entropy_base",
                                          "degeneracy", "middle_entropy")),
    "jarzynski-check": (_run_jarzynski_check, ("seed",)),
    "mc-crosscheck": (_run_mc_crosscheck, ("beta", "seed", "theta", "n_samples")),
}


def run(config: SweepConfig) -> int:
    problems = config.validate()
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        written, budgets_ok = EXPERIMENTS[config.experiment][0](config)
        log_lines = [f"experiment = {config.experiment}",
                     f"wall_time_s = {time.monotonic() - started:.3f}"] + \
            [f"wrote {path}" for path in written]
        (config.out_dir / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    except TruncationError as err:
        print(f"truncation budget failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:  # numpy's message names the bytes and the shape
        print(f"out of memory: {err}", file=sys.stderr)
        return 3
    except InvalidParameterError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # the output directory, a table or the run log
        print(f"config error: out_dir: {err}", file=sys.stderr)
        return 2
    for line in log_lines:
        print(line)
    if not budgets_ok:
        print("requested bounds not met; see the output table", file=sys.stderr)
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (InvalidParameterError, OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
