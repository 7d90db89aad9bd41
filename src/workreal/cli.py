"""Configuration-driven command line for the named experiments.

One experiment per invocation; every run writes CSV files whose bytes are a pure
function of (config, seed) on the same machine.  Wall time and other run chatter
go to stdout and a sidecar .log file so they never break byte-level
reproducibility of the data.

Run policy lives here, in one table: each row of EXPERIMENTS holds an
experiment's runner and each setting it reads with its default, in manifest
order, and each row of SETTINGS a setting's type and check.  Every experiment
takes `--config PATH` and `--out DIR`, plus a flag per setting of its row; the
config file holds `key = value` lines for `out_dir` and those settings.  A run
resolves every setting (defaults < config file < flags), checks it, and echoes
it, resolved, in every manifest; `--help` prints each default from the same row.
Any other flag or key exits 2.  Exit codes: 0 success (all budgets met),
2 invalid configuration, or an output directory, table or run log that cannot
be written ("config error: out_dir: ..."), 3 a budget or bound not met: a
truncation budget, a Jarzynski row's bound, or an mc-crosscheck cell MC_Z_BOUND
or more standard errors from its exact probability; 3 also when an allocation
fails ("out of memory: ..." with numpy's bytes and shape).

Every table leaves through `_write`.  The library computes every entropy and
K_en in nats; under `--entropy-base 2`, `_write` divides the K_en
columns its runner names by log 2 before the table is written, and squeeze-grid
draws its contours on the converted grid, so the contour levels are in the
output unit.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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

# K_en levels of the squeeze-grid contour files, in the output unit
CONTOUR_LEVELS = (0.0, -0.05)
# an mc-crosscheck cell this many standard errors sqrt(p (1 - p) / n) from its
# exact probability p fails the run
MC_Z_BOUND = 5.0


class Setting(NamedTuple):
    kind: type
    check: Callable  # (value, experiment) -> what is wrong with the value, or None
    choices: tuple[str, ...] | None = None


def _must(ok, requirement: str, unset: str | None = None):
    """The check of a setting whose value must pass `ok`: what is wrong with the
    value, or None.  No value passes, unless `unset` says what is wrong with it."""
    return lambda value, experiment: unset if value is None else (
        None if ok(value) else f"must be {requirement}, got {value!r}")


def _one_of(*choices: str) -> Setting:
    return Setting(str, _must(lambda value: value in choices, " or ".join(map(repr, choices))),
                   choices)


def _spec_values(spec: str, parse) -> tuple[np.ndarray | None, str | None]:
    """(values, None) of a grid setting, or (None, what is wrong with it)."""
    if "".join(spec.splitlines()) != spec:
        return None, f"a line break in {spec!r} would split the manifest line"
    try:
        return parse(spec), None
    except InvalidParameterError as err:
        return None, str(err)


def _check_grid_spec(spec: str, experiment: str) -> str | None:
    values, problem = _spec_values(spec, parse_grid_spec)
    if problem or experiment == "tls-theta":
        return problem
    # a squeeze run's largest total amplitude is r + r = 2 r at its largest r
    if not math.isfinite(2.0 * float(values.max())):
        return f"the largest r + r is not finite, got {spec!r}"
    if np.any(values < 0):
        return f"grids must be non-empty, finite, non-negative, got {spec!r}"
    if experiment == "squeeze-beta" and (values.size < 2 or np.any(np.diff(values) <= 0)):
        return f"r grid must be strictly increasing, with at least two points, got {spec!r}"
    return None


def _check_beta_grid(spec: str, experiment: str) -> str | None:
    values, problem = _spec_values(spec, parse_value_list)
    return problem or (None if np.all(values > 0) else f"must be positive, got {spec!r}")


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
             **{name: SETTINGS[name].kind for name in EXPERIMENTS[experiment][1]}}
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
        for setting, default in settings.items():
            kind, check, choices = SETTINGS[setting]
            p.add_argument("--" + setting.replace("_", "-"), type=kind, choices=choices,
                           help=f"default: {default}" if default is not None
                           else "required" if check(None, name) else "chosen by the run")
    return parser


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The output directory and each setting the experiment reads, resolved: its
    default, overridden by the config file, overridden by the flags given."""
    defaults = EXPERIMENTS[args.experiment][1]
    values = {"out_dir": Path("."), **defaults}
    if args.config is not None:
        values.update(load_config_file(args.config, args.experiment))
    flags = {"out_dir": args.out, **{name: getattr(args, name) for name in defaults}}
    values.update((name, value) for name, value in flags.items() if value is not None)
    return argparse.Namespace(experiment=args.experiment, **values)


def _write(config: argparse.Namespace, name: str, table: SweepTable, *k_en_columns: str) -> Path:
    """The one exit of every table.  Under `--entropy-base 2` the named K_en
    columns are divided by log 2, in place; the manifest starts with the library
    version and each setting the experiment reads, resolved, in row order (an
    n_max the run chose is the sweep's own meta), followed by the table's own meta."""
    if k_en_columns and config.entropy_base == "2":
        for column in k_en_columns:
            table.rows[:, table.columns.index(column)] /= math.log(2)
    settings = {name: getattr(config, name) for name in EXPERIMENTS[config.experiment][1]}
    table.meta = {"library": f"workreal {__version__}", "experiment": config.experiment,
                  **{name: value for name, value in settings.items() if value is not None},
                  **table.meta}
    write_table_csv(config.out_dir / name, table)
    return config.out_dir / name


def _run_tls_theta(config: argparse.Namespace) -> tuple[list[Path], bool]:
    table = tls_theta_sweep(config.beta, parse_grid_spec(config.grid_spec))
    return [_write(config, "tls_theta.csv", table, "k_en_fine", "k_en_grouped")], True


def _run_squeeze_grid(config: argparse.Namespace) -> tuple[list[Path], bool]:
    grid = parse_grid_spec(config.grid_spec)
    table = squeeze_grid_sweep(beta=config.beta, r1_grid=grid, r2_grid=grid,
                               n_max=config.n_max, degeneracy=config.degeneracy,
                               middle_entropy=config.middle_entropy)
    written = [_write(config, "squeeze_grid.csv", table, "k_en")]
    z = table.column("k_en").reshape(grid.size, grid.size)
    for level in CONTOUR_LEVELS:
        contour_table = SweepTable(["r1", "r2"], contour_points(grid, grid, z, level),
                                   meta={"contour_level": level})
        written.append(_write(config, f"squeeze_grid_contour_{level:g}.csv", contour_table))
    return written, True


def _run_squeeze_beta(config: argparse.Namespace) -> tuple[list[Path], bool]:
    table = beta_sweep_min_k(parse_value_list(config.beta_grid), parse_grid_spec(config.grid_spec),
                             degeneracy=config.degeneracy, middle_entropy=config.middle_entropy)
    return [_write(config, "squeeze_beta.csv", table, "min_k_en")], True


def _run_jarzynski_check(config: argparse.Namespace) -> tuple[list[Path], bool]:
    rng = np.random.default_rng(config.seed)
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
        meta={"model_codes": "0=two-level 1=oscillator"})
    return [_write(config, "jarzynski_check.csv", table)], all_ok


def _run_mc_crosscheck(config: argparse.Namespace) -> tuple[list[Path], bool]:
    u = tls_propagator(TlsAngles(config.theta))
    rho0 = build_thermal_state(tls_spectrum(0), config.beta)
    exact = three_time_joint(rho0, u, u)
    empirical = sample_trajectories(rho0, u, u, config.n_samples, config.seed)
    pvalue = empirical_chi_squared_pvalue(empirical, config.n_samples, exact)
    exact_probs = exact.probs
    rows = [(k2, k1, k0, empirical[k2, k1, k0], exact_probs[k2, k1, k0])
            for k2, k1, k0 in np.ndindex(2, 2, 2)]
    table = SweepTable(["k2", "k1", "k0", "empirical", "exact"], np.array(rows),
                       meta={"chi_squared_pvalue": pvalue})
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


# each setting's type and check.  A default of None leaves the value to the run
# (n_max), unless the check refuses no value (mc-crosscheck's seed).
SETTINGS = {
    "beta": Setting(float, _must(lambda beta: beta > 0 and math.isfinite(beta),
                                 "positive and finite")),
    "n_max": Setting(int, _must(lambda n_max: 1 <= n_max <= N_MAX_CAP, f"in 1..{N_MAX_CAP}")),
    "seed": Setting(int, _must(lambda seed: seed >= 0, ">= 0",
                               unset="required whenever sampling is requested")),
    "grid_spec": Setting(str, _check_grid_spec),
    "beta_grid": Setting(str, _check_beta_grid),
    "theta": Setting(float, _must(math.isfinite, "finite")),
    "n_samples": Setting(int, _must(lambda n: n >= 1, ">= 1")),
    "entropy_base": _one_of("e", "2"),
    "degeneracy": _one_of("fine", "grouped"),
    "middle_entropy": _one_of("initial", "measured"),
}
CONVENTIONS = {"entropy_base": "e", "degeneracy": "fine", "middle_entropy": "initial"}
# each experiment's runner, and each setting it reads with its default, in manifest order
EXPERIMENTS = {
    "tls-theta": (_run_tls_theta, {"beta": 1.0, "grid_spec": "0:6.283185307179586:721",
                                   "entropy_base": "e"}),
    "squeeze-grid": (_run_squeeze_grid, {"beta": 0.1, "n_max": None, "grid_spec": "0:0.1:101",
                                         **CONVENTIONS}),
    "squeeze-beta": (_run_squeeze_beta, {"grid_spec": "geom:0.004:0.8:20",
                                         "beta_grid": "0.1,0.2,0.3,0.5,0.7,1,1.5,2,3,5,10",
                                         **CONVENTIONS}),
    "jarzynski-check": (_run_jarzynski_check, {"seed": 20}),
    "mc-crosscheck": (_run_mc_crosscheck, {"beta": 1.0, "seed": None, "theta": math.pi / 3,
                                           "n_samples": 100000}),
}


def run(config: argparse.Namespace) -> int:
    problems = [f"{name}: {problem}" for name in EXPERIMENTS[config.experiment][1]
                if (problem := SETTINGS[name].check(getattr(config, name), config.experiment))]
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
