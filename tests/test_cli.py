import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from workreal.cli import EXPERIMENTS, build_parser, main, parse_grid_spec, parse_value_list
from workreal.errors import InvalidParameterError
from workreal.tables import FLOAT_FORMAT, SweepTable, write_table_csv

from conftest import jarzynski_check_draws, object_jarzynski_deviation, read_table_csv


def run_cli(args):
    return main([str(a) for a in args])


def test_grid_spec_forms():
    np.testing.assert_allclose(parse_grid_spec("0:1:3"), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(parse_grid_spec("geom:0.1:10:3"), [0.1, 1.0, 10.0])
    np.testing.assert_allclose(parse_grid_spec("0.5,1.5,2"), [0.5, 1.5, 2.0])
    # an infinite geometric end, and a count no array can hold (10^15 doubles exceed
    # any user address space, so the allocation fails at once)
    for spec in ("junk", "geom:0.004:inf:20", "0:1:1000000000000000"):
        with pytest.raises(InvalidParameterError):
            parse_grid_spec(spec)
    with pytest.raises(InvalidParameterError):
        parse_value_list("1,two,3")


def test_seventeen_digit_round_trip():
    for x in (math.pi, 1 / 3, 2.0 ** -52, -1.2345678901234567e-8):
        assert float(FLOAT_FORMAT % x) == x


def test_edge_values_csv_text(tmp_path):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
              1.7976931348623157e308, 0.1]
    table = SweepTable([f"c{k}" for k in range(len(values))], np.array([values]),
                       {"x": -0.0})
    write_table_csv(tmp_path / "edge.csv", table)
    assert (tmp_path / "edge.csv").read_text().splitlines() == [
        "# x = -0",
        "c0,c1,c2,c3,c4,c5,c6,c7",
        "0,-0,inf,-inf,nan,4.9406564584124654e-324,1.7976931348623157e+308,"
        "0.10000000000000001",
    ]


def _former_csv_bytes(table):
    """The former writer's text: every line built with str.format, joined with
    newlines plus a trailing one, and encoded once."""
    lines = []
    for key, value in table.meta.items():
        if isinstance(value, float):
            value = "{:.17g}".format(value)
        lines.append(f"# {key} = {value}")
    lines.append(",".join(table.columns))
    lines.extend(",".join(map("{:.17g}".format, row)) for row in table.rows.tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


def _tables():
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((7201, 5)) * 10.0 ** rng.integers(-300, 300, (7201, 5))
    yield SweepTable([f"c{k}" for k in range(5)], wide, {"experiment": "random"})
    yield SweepTable(["a", "b", "c"], rng.random((1, 3)))
    yield SweepTable(["x"], rng.standard_normal((50, 1)))
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 0.1]
    yield SweepTable([f"e{k}" for k in range(len(edge))], np.array([edge, edge[::-1]]))
    yield SweepTable(["r1", "r2"], np.empty((0, 2)),
                     {"beta": 0.1, "tiny": -5e-324, "n_max": 384, "ok": True,
                      "flag": False, "label": "β sweep"})


def test_csv_bytes_equal_former_writer(tmp_path):
    for k, table in enumerate(_tables()):
        path = tmp_path / f"table{k}.csv"
        write_table_csv(path, table)
        assert path.read_bytes() == _former_csv_bytes(table), k


@pytest.mark.parametrize("value", [np.arange(3), np.int64(3), np.bool_(True)],
                         ids=["array", "int64", "bool_"])
def test_a_manifest_value_of_another_type_is_refused(tmp_path, value):
    table = SweepTable(["r1", "r2"], np.empty((0, 2)), {"beta": 0.1, "skipped": value})
    with pytest.raises(TypeError, match="'skipped'"):
        write_table_csv(tmp_path / "table.csv", table)
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("value", ["0:1:3\n", "1,\n2", "a\rb", "a\u2028b"],
                         ids=["trailing-newline", "newline", "carriage-return",
                              "line-separator"])
def test_a_manifest_value_with_a_line_break_is_refused(tmp_path, value):
    table = SweepTable(["r1", "r2"], np.empty((0, 2)), {"beta": 0.1, "grid_spec": value})
    with pytest.raises(InvalidParameterError, match="grid_spec"):
        write_table_csv(tmp_path / "table.csv", table)
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("args, setting", [
    (["squeeze-beta", "--beta-grid", "1,\n2"], "beta_grid"),
    (["tls-theta", "--grid-spec", "0:1:3\n"], "grid_spec"),
    (["squeeze-grid", "--grid-spec", "0:0.1:101\n"], "grid_spec"),
], ids=["squeeze-beta", "tls-theta", "squeeze-grid"])
def test_a_setting_with_a_line_break_exits_2(tmp_path, capsys, monkeypatch, args, setting):
    """Such a setting parses, but its manifest line would break in two; the run
    exits 2 naming it before any sweep and writes no table."""
    import workreal.cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(workreal.cli, "squeeze_grid_sweep", no_sweep)
    assert run_cli([*args, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {setting}: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_each_experiment_takes_exactly_its_settings():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(EXPERIMENTS)
    for name, sub in subparsers.choices.items():
        dests = {action.dest for action in sub._actions} - {"help"}
        assert dests == {"config", "out", *EXPERIMENTS[name][1]}, name


def test_help_names_each_default(capsys):
    """Each setting's --help line gives the default of its experiment's row; n_max
    is chosen by the run, and mc-crosscheck's seed is required."""
    for experiment, (_, defaults) in EXPERIMENTS.items():
        with pytest.raises(SystemExit) as exit_info:
            run_cli([experiment, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, default in defaults.items():
            words = (f"default: {default}" if default is not None
                     else "required" if name == "seed" else "chosen by the run")
            flag = "--" + name.replace("_", "-")
            assert re.search(rf"{flag} \S+ {re.escape(words)}", text), (experiment, name)


def test_cli_import_leaves_scipy_stats_out():
    import workreal
    src = str(Path(workreal.__file__).resolve().parents[1])
    code = "import sys, workreal.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_run_loads_the_eigensolver_without_scipy_linalg(tmp_path):
    """A squeeze run gets `dstevd` from scipy's `_flapack` extension without the
    `scipy.linalg` package, and the BLAS pin still finds both OpenBLAS pools."""
    import workreal
    src = str(Path(workreal.__file__).resolve().parents[1])
    code = ("import sys, workreal.cli, workreal.hilbert\n"
            "assert workreal.cli.main(['squeeze-grid', '--grid-spec', '0:0.1:5',\n"
            "                          '--out', sys.argv[1]]) == 0\n"
            "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules,\n"
            "      len(workreal.hilbert._blas_pools()))")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["False", "True", "2"]


class TestTlsTheta:
    def test_default_schema_and_row_count(self, tmp_path):
        assert run_cli(["tls-theta", "--out", tmp_path]) == 0
        table = read_table_csv(tmp_path / "tls_theta.csv")
        assert table.columns == ["theta", "k_cor", "k_cor_flipped",
                                 "k_en_fine", "k_en_grouped"]
        assert table.rows.shape[0] == 721
        assert table.meta["experiment"] == "tls-theta"

    def test_csv_round_trips_to_exact_values(self, tmp_path):
        run_cli(["tls-theta", "--out", tmp_path, "--grid-spec", "0:3.14:40"])
        table = read_table_csv(tmp_path / "tls_theta.csv")
        from workreal.two_level import tls_theta_sweep
        direct = tls_theta_sweep(beta=1.0, theta_grid=parse_grid_spec("0:3.14:40"))
        assert np.array_equal(table.rows, direct.rows)

    def test_entropy_base_flag(self, tmp_path):
        run_cli(["tls-theta", "--out", tmp_path, "--grid-spec", "1.0:1.0:1",
                 "--entropy-base", "2"])
        table = read_table_csv(tmp_path / "tls_theta.csv")
        assert table.meta["entropy_base"] == "2"
        from workreal.two_level import tls_lg_parameters, TlsAngles
        nats = tls_lg_parameters(1.0, TlsAngles(1.0))
        assert table.rows[0, 3] == nats["k_en_fine"] / math.log(2)
        assert table.rows[0, 4] == nats["k_en_grouped"] / math.log(2)


class TestSqueezeGrid:
    def test_small_grid_with_contours(self, tmp_path):
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--beta", "1.0",
                        "--grid-spec", "0:0.3:7", "--n-max", "96"])
        assert code == 0
        table = read_table_csv(tmp_path / "squeeze_grid.csv")
        assert table.columns == ["r1", "r2", "k_en", "truncation_budget"]
        assert table.rows.shape[0] == 49
        zero_contour = read_table_csv(tmp_path / "squeeze_grid_contour_0.csv")
        assert zero_contour.columns == ["r1", "r2"]
        assert zero_contour.rows.shape[0] > 0
        assert (tmp_path / "squeeze_grid_contour_-0.05.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["squeeze-grid", "--beta", "1.0", "--grid-spec", "0:0.2:5",
                "--n-max", "96"]
        assert run_cli(args + ["--out", tmp_path / "a"]) == 0
        assert run_cli(args + ["--out", tmp_path / "b"]) == 0
        a = (tmp_path / "a" / "squeeze_grid.csv").read_bytes()
        b = (tmp_path / "b" / "squeeze_grid.csv").read_bytes()
        assert a == b
        assert len([line for line in a.split(b"\n") if not line.startswith(b"#")]) == 27

    def test_manifest_echoes_only_used_settings(self, tmp_path, capsys):
        run_cli(["squeeze-grid", "--out", tmp_path, "--beta", "1.0",
                 "--grid-spec", "0:0.1:2", "--n-max", "64"])
        table = read_table_csv(tmp_path / "squeeze_grid.csv")
        assert "n_samples" not in table.meta
        assert table.meta["n_max"] == "64"
        # every experiment, given every setting: only the ones it reads are echoed
        settings = {"beta": "1.0", "n_max": "128", "seed": "5", "beta_grid": "1.0",
                    "theta": "0.5", "n_samples": "1000", "entropy_base": "2",
                    "degeneracy": "grouped", "middle_entropy": "measured"}
        runs = [
            ("tls-theta", "0:1:3", "tls_theta.csv",
             {"beta", "grid_spec", "entropy_base"}),
            ("squeeze-grid", "0:0.1:2", "squeeze_grid.csv",
             {"beta", "n_max", "grid_spec", "entropy_base", "degeneracy",
              "middle_entropy"}),
            ("squeeze-beta", "geom:0.05:0.4:6", "squeeze_beta.csv",
             {"grid_spec", "beta_grid", "entropy_base", "degeneracy", "middle_entropy"}),
            ("jarzynski-check", "0:1:3", "jarzynski_check.csv", {"seed"}),
            ("mc-crosscheck", "0:1:3", "mc_crosscheck.csv",
             {"beta", "seed", "theta", "n_samples"}),
        ]
        for experiment, grid_spec, csv, used in runs:
            values = {**settings, "grid_spec": grid_spec}
            flags = [f"--{name.replace('_', '-')}={values[name]}" for name in used]
            out = tmp_path / experiment
            assert run_cli([experiment, "--out", out] + flags) == 0
            meta = read_table_csv(out / csv).meta
            assert set(meta) & set(values) == used, experiment
            # a setting the experiment does not read exits 2, as a flag or a config key
            for name in set(values) - used:
                flag = f"--{name.replace('_', '-')}"
                with pytest.raises(SystemExit) as exit_info:
                    run_cli([experiment, "--out", out, f"{flag}={values[name]}"])
                assert exit_info.value.code == 2
                assert flag in capsys.readouterr().err
                config = tmp_path / f"{experiment}-{name}.cfg"
                config.write_text(f"{name} = {values[name]}\n", encoding="utf-8")
                assert run_cli([experiment, "--config", config, "--out", out]) == 2
                assert f"{config}:1:" in capsys.readouterr().err

    def test_truncation_failure_names_the_point(self, tmp_path, capsys):
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--beta", "0.05",
                        "--grid-spec", "0:0.1:3", "--n-max", "64"])
        assert code == 3
        message = capsys.readouterr().err
        assert "beta" in message and "0.05" in message

    def test_over_budget_cell_fails_and_writes_nothing(self, tmp_path, capsys):
        """At beta = 1 the thermal tail of n_max 64 passes, but r1 = 1 leaks past
        it: the cell (1, 0) alone has a budget of 1.1e-3."""
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--beta", "1",
                        "--n-max", "64", "--grid-spec", "0:1:3"])
        assert code == 3
        message = capsys.readouterr().err
        assert "r1=1.0, r2=0.0, n_max=64" in message and "beta=1.0" in message
        assert not (tmp_path / "squeeze_grid.csv").exists()

    def test_overflowing_cell_fails_and_writes_nothing(self, tmp_path, capsys):
        """At r1 = 1e307 the kernel would overflow into a NaN budget: on a fixed
        truncation too, the first cell whose squeezed vacuum no truncation holds is
        refused, naming it, before any build and without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["squeeze-grid", "--out", tmp_path, "--beta", "1",
                            "--n-max", "64", "--grid-spec", "0:1e307:2"])
        assert code == 3
        message = capsys.readouterr().err
        assert "r1=1e+307, r2=0.0, n_max=64" in message and "beta=1.0" in message
        assert not (tmp_path / "squeeze_grid.csv").exists()

    def test_cap_failure_builds_nothing(self, tmp_path, capsys, monkeypatch):
        """r1 + r2 = 4 at beta = 0.1 needs more than 8192 levels, as does any
        r1 + r2 past 3.6e306, where the search's r / 0.02 would overflow, also on a
        fixed --n-max, and the thermal tail alone at beta = 1e-310, whose support
        overflows a float: exit 3 with the point named, before any squeeze matrix
        is built."""
        import workreal.squeezing as squeezing

        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(squeezing, "_parity_columns", no_build)
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--grid-spec", "0:2:3"])
        assert code == 3
        message = capsys.readouterr().err
        assert "beta=0.1" in message and "r=4" in message
        for k, (args, point) in enumerate((
                (["squeeze-grid", "--grid-spec", "0:1e307:2"], "beta=0.1, r=2e+307"),
                (["squeeze-grid", "--beta", "1", "--n-max", "64", "--grid-spec", "0:1e307:2"],
                 "beta=1.0, r1=1e+307, r2=0.0, n_max=64"),
                (["squeeze-beta", "--beta-grid", "1", "--grid-spec", "5e306,1e307"],
                 "beta=1.0, r=1e+307"),
                (["squeeze-grid", "--beta", "1e-310", "--grid-spec", "0:0.1:3"],
                 "beta=1e-310, r="),
                (["squeeze-beta", "--beta-grid", "1e-310"], "beta=1e-310, r="))):
            out = tmp_path / str(k)
            assert run_cli(args + ["--out", out]) == 3
            assert point in capsys.readouterr().err
            assert not list(out.glob("*.csv"))


    @pytest.mark.parametrize("beta", ["0.03", "0.01"])
    def test_csv_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, beta):
        """At beta = 0.03 (n_max 960) the kernel sums the eigen index in two
        panels, at beta = 0.01 (n_max 2816) in four, over eigenbases of 545 and
        1473 levels per parity; one and two OpenBLAS threads must write the same
        bytes."""
        import workreal
        src = str(Path(workreal.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-m", "workreal.cli", "squeeze-grid", "--grid-spec",
                 "0:0.04:3", "--beta", beta, "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
            written.append((out / "squeeze_grid.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("beta, n_max", [(0.03, 960), (0.01, 2816)])
    def test_small_beta_stays_within_budget(self, tmp_path, beta, n_max):
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--beta", beta,
                        "--grid-spec", "0:0.04:3"])
        assert code == 0
        meta = read_table_csv(tmp_path / "squeeze_grid.csv").meta
        assert int(meta["n_max"]) == n_max
        assert float(meta["worst_truncation_budget"]) <= 1e-6


class TestSqueezeBeta:
    def test_trend_columns(self, tmp_path):
        code = run_cli(["squeeze-beta", "--out", tmp_path,
                        "--beta-grid", "0.5,1.0", "--grid-spec", "geom:0.05:0.4:6"])
        assert code == 0
        table = read_table_csv(tmp_path / "squeeze_beta.csv")
        assert table.columns == ["beta", "min_k_en", "argmin_r", "n_max",
                                 "truncation_budget"]
        assert table.rows.shape[0] == 2
        assert np.all(table.column("min_k_en") < 0)

    def test_minimum_at_the_grid_edge_fails_and_writes_nothing(self, tmp_path, capsys):
        """At beta = 1 the dip lies near r = 0.12, so on 0:0.1:3 K_en still falls at
        the last point, r = 0.1: exit 2 naming it, not that edge reported as the
        minimum."""
        code = run_cli(["squeeze-beta", "--out", tmp_path, "--grid-spec", "0:0.1:3",
                        "--beta-grid", "1"])
        assert code == 2
        message = capsys.readouterr().err
        assert "beta=1.0" in message and "r=0.1" in message
        assert not (tmp_path / "squeeze_beta.csv").exists()

    def test_minimum_at_the_first_point_fails_and_writes_nothing(self, tmp_path, capsys):
        """At beta = 1 the dip lies near r = 0.12, below the grid 0.2:0.8:4, so
        K_en rises from its first point and golden section converges onto r = 0.2:
        exit 2 naming it, not that edge reported as the minimum."""
        code = run_cli(["squeeze-beta", "--out", tmp_path, "--grid-spec", "0.2:0.8:4",
                        "--beta-grid", "1"])
        assert code == 2
        message = capsys.readouterr().err
        assert "first point" in message and "beta=1.0" in message and "r=0.2" in message
        assert not (tmp_path / "squeeze_beta.csv").exists()

    def test_hopeless_point_past_the_first_builds_nothing(self, tmp_path, capsys,
                                                          monkeypatch):
        """On 1:1e307:3 the point r = 5e306, whose r + r = 1e307 no truncation
        holds, follows the buildable r = 1: exit 3 naming it before any squeeze
        matrix or eigenbasis is built."""
        import workreal.squeezing as squeezing
        calls = {"_squeeze_transitions": 0, "_parity_basis": 0}

        def counted(name):
            function = getattr(squeezing, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(squeezing, name, counted(name))
        code = run_cli(["squeeze-beta", "--out", tmp_path, "--beta-grid", "1",
                        "--grid-spec", "1:1e307:3"])
        assert code == 3
        assert "beta=1.0, r=1e+307" in capsys.readouterr().err
        assert not (tmp_path / "squeeze_beta.csv").exists()
        assert calls == {"_squeeze_transitions": 0, "_parity_basis": 0}

    def test_hopeless_beta_past_the_first_builds_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        """On the beta grid 1,1e-310 the thermal tail of beta = 1e-310 needs more
        than 8192 levels at every r: exit 3 naming it with the default grid's first
        r + r = 0.008 (not the 0.02-step cache key) before the buildable beta = 1
        builds any squeeze matrix or eigenbasis."""
        import workreal.squeezing as squeezing
        calls = {"_squeeze_transitions": 0, "_parity_basis": 0}

        def counted(name):
            function = getattr(squeezing, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(squeezing, name, counted(name))
        code = run_cli(["squeeze-beta", "--out", tmp_path, "--beta-grid", "1,1e-310"])
        assert code == 3
        assert "beta=1e-310, r=0.008" in capsys.readouterr().err
        assert not (tmp_path / "squeeze_beta.csv").exists()
        assert calls == {"_squeeze_transitions": 0, "_parity_basis": 0}

    @pytest.mark.parametrize("spec", ["0.3,0.1,0.2", "0.1,0.1,0.2", "0.1:0.2:1"])
    def test_r_grid_must_be_strictly_increasing(self, tmp_path, capsys, spec):
        code = run_cli(["squeeze-beta", "--out", tmp_path, "--grid-spec", spec,
                        "--beta-grid", "1"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "squeeze_beta.csv").exists()


class TestJarzynskiCheck:
    def test_all_within_bounds(self, tmp_path):
        code = run_cli(["jarzynski-check", "--out", tmp_path, "--seed", "20"])
        assert code == 0
        table = read_table_csv(tmp_path / "jarzynski_check.csv")
        assert np.all(table.column("within_bound") == 1.0)
        assert np.all(table.column("deviation") < table.column("bound"))
        assert table.rows.shape[0] == 102

    @pytest.mark.parametrize("seed", [1, 7, 40])
    def test_two_level_rows_equal_the_object_path(self, tmp_path, seed):
        """The stacked two-level rows: the parameters drawn one call at a time and
        each deviation through the object pipeline, bit for bit."""
        assert run_cli(["jarzynski-check", "--out", tmp_path, "--seed", seed]) == 0
        rows = read_table_csv(tmp_path / "jarzynski_check.csv").rows[:100]
        draws = jarzynski_check_draws(seed)
        deviation = [object_jarzynski_deviation(*row) for row in draws]
        assert np.array_equal(rows[:, 1], draws[:, 0])
        assert np.array_equal(rows[:, 2], draws[:, 1])
        assert np.array_equal(rows[:, 3], deviation)

    @pytest.mark.parametrize("seed, digest", [
        ("1", "22c6c1702f5ce9cb7cdfc6cd2faab1c2506f1c2d9b395556048cb7f1df183555"),
        (None, "ac658fb79122b98fda676e902aeb40b73c9c7c734161ca5bacf6ad346ca60341")],
        ids=["seed-1", "default-seed"])
    def test_csv_bytes_as_recorded_from_the_per_row_loop(self, tmp_path, seed, digest):
        """The sha256 of jarzynski_check.csv as the former per-row object loop
        wrote it."""
        import hashlib
        args = ["jarzynski-check", "--out", tmp_path] + (["--seed", seed] if seed else [])
        assert run_cli(args) == 0
        data = (tmp_path / "jarzynski_check.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestMcCrosscheck:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["mc-crosscheck", "--seed", "7", "--n-samples", "20000"]
        run_cli(args + ["--out", tmp_path / "a"])
        run_cli(args + ["--out", tmp_path / "b"])
        a = (tmp_path / "a" / "mc_crosscheck.csv").read_bytes()
        b = (tmp_path / "b" / "mc_crosscheck.csv").read_bytes()
        assert a == b

    def test_pvalue_in_manifest(self, tmp_path):
        run_cli(["mc-crosscheck", "--out", tmp_path, "--seed", "3",
                 "--n-samples", "50000"])
        table = read_table_csv(tmp_path / "mc_crosscheck.csv")
        assert float(table.meta["chi_squared_pvalue"]) > 0.001
        assert table.meta["n_samples"] == "50000"
        np.testing.assert_allclose(table.column("empirical").sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_a_theta_that_is_not_finite_exits_2_before_the_out_dir(self, tmp_path, capsys,
                                                                 theta):
        """Refused with the other settings, naming theta, before the output directory
        is made."""
        out = tmp_path / "out"
        assert run_cli(["mc-crosscheck", "--seed", "7", "--theta", theta, "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: theta: must be finite, got {theta}\n"
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        assert run_cli(["mc-crosscheck", "--out", tmp_path]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("n_samples", [None, 10**6, 10**7])
    def test_unbiased_sampler_passes(self, tmp_path, n_samples):
        """At the default sample count and at CI's 10^6 and 10^7, seed 1 keeps every
        cell within MC_Z_BOUND standard errors."""
        args = ["mc-crosscheck", "--out", tmp_path, "--seed", "1"]
        assert run_cli(args + (["--n-samples", n_samples] if n_samples else [])) == 0

    def test_biased_sampler_fails_the_run(self, tmp_path, capsys, monkeypatch):
        """A sampler that moves 1% of the probability from one cell to another
        exits 3 and names the worst cell; the table is still written."""
        from workreal import cli
        sample = cli.sample_trajectories

        def biased(*args):
            freq = sample(*args)
            freq[0, 0, 0] -= 0.01
            freq[1, 1, 1] += 0.01
            return freq

        monkeypatch.setattr(cli, "sample_trajectories", biased)
        assert run_cli(["mc-crosscheck", "--out", tmp_path, "--seed", "1",
                        "--n-samples", "100000"]) == 3
        err = capsys.readouterr().err
        assert "cell (k2, k1, k0) = (1, 1, 1) lies 8.01 standard errors" in err
        assert (tmp_path / "mc_crosscheck.csv").is_file()


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("beta = 2.0\ngrid_spec = 0:1:5  # five angles\n",
                          encoding="utf-8")
        run_cli(["tls-theta", "--config", config, "--out", tmp_path,
                 "--beta", "3.0"])
        table = read_table_csv(tmp_path / "tls_theta.csv")
        assert table.meta["beta"] == "3"
        assert table.rows.shape[0] == 5

    def test_bad_line_reports_position(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("beta = 1.0\nnot a pair\n", encoding="utf-8")
        assert run_cli(["tls-theta", "--config", config, "--out", tmp_path]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("betta = 1.0\n", encoding="utf-8")
        assert run_cli(["tls-theta", "--config", config, "--out", tmp_path]) == 2
        assert "betta" in capsys.readouterr().err

    def test_experiment_key_rejected(self, tmp_path, capsys):
        """The subcommand picks the experiment; a config file cannot switch it."""
        config = tmp_path / "run.cfg"
        config.write_text("experiment = jarzynski-check\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["tls-theta", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert ":1:" in err and "experiment" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, below):
        """--out at an existing file, or below one, is a configuration error,
        not a FileExistsError or NotADirectoryError traceback."""
        existing = tmp_path / "taken"
        existing.write_text("keep\n", encoding="utf-8")
        assert run_cli(["tls-theta", "--grid-spec", "0:1:3", "--out", existing / below]) == 2
        assert "config error: out_dir:" in capsys.readouterr().err
        assert existing.read_text(encoding="utf-8") == "keep\n"

    def test_failed_table_write_exits_2(self, tmp_path, capsys, monkeypatch):
        """A table the output directory refuses (permissions, a full disk) is a
        configuration error naming out_dir, not an OSError traceback."""
        from workreal import cli

        def refuse(path, table):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "write_table_csv", refuse)
        assert run_cli(["tls-theta", "--grid-spec", "0:1:3", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"config error: out_dir: [Errno 13] Permission denied: "
            f"'{tmp_path / 'tls_theta.csv'}'"]
        assert not (tmp_path / "run.log").exists()

    def test_failed_allocation_exits_3(self, tmp_path, capsys, monkeypatch):
        """numpy's allocation failure ends the run with exit 3 and one line that
        carries its bytes and shape, not a MemoryError traceback."""
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy 1.x
            from numpy.core._exceptions import _ArrayMemoryError
        from workreal import cli

        def allocate(config):
            raise _ArrayMemoryError((1 << 20, 1 << 20), np.dtype(float))

        monkeypatch.setitem(cli.EXPERIMENTS, "tls-theta",
                            (allocate, cli.EXPERIMENTS["tls-theta"][1]))
        assert run_cli(["tls-theta", "--out", tmp_path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 8.00 TiB for an array with shape "
            "(1048576, 1048576) and data type float64"]
        assert not (tmp_path / "run.log").exists()

    def test_out_dir_key_and_out_flag_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"out_dir = {tmp_path / 'from_config'}\ngrid_spec = 0:1:3\n",
                          encoding="utf-8")
        assert run_cli(["tls-theta", "--config", config, "--out", tmp_path / "flag"]) == 0
        assert read_table_csv(tmp_path / "flag" / "tls_theta.csv").rows.shape[0] == 3
        assert not (tmp_path / "from_config").exists()
        assert run_cli(["tls-theta", "--config", config]) == 0
        assert (tmp_path / "from_config" / "tls_theta.csv").is_file()

    def test_invalid_values_diagnosed(self, tmp_path, capsys):
        assert run_cli(["tls-theta", "--out", tmp_path, "--beta", "-1"]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, spec", [
        ("squeeze-beta", "geom:0.004:inf:20"), ("tls-theta", "0:1:1000000000000000"),
        ("squeeze-grid", "-1:0:3"), ("squeeze-beta", "0.5,0.1"),
    ])
    def test_unusable_grid_spec_exits_2(self, tmp_path, capsys, experiment, spec):
        """A spec that does not parse, a negative squeeze amplitude and an r grid
        that does not increase are refused before the output directory is made."""
        assert run_cli([experiment, "--out", tmp_path / "out", f"--grid-spec={spec}"]) == 2
        assert "config error: grid_spec:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, name, value", [
        ("jarzynski-check", "seed", "-1"), ("mc-crosscheck", "seed", "-3"),
        ("squeeze-grid", "n_max", "8193"), ("squeeze-grid", "n_max", "0"),
        ("squeeze-beta", "beta_grid", "0.1,0.2,0.3,0"),
        ("squeeze-beta", "beta_grid", "0.5,-1"),
        ("mc-crosscheck", "n_samples", "0"),
        *((experiment, "beta", beta) for experiment in ("tls-theta", "squeeze-grid",
                                                        "mc-crosscheck")
          for beta in ("0", "nan", "inf")),
    ])
    def test_out_of_range_settings_exit_2(self, tmp_path, capsys, experiment, name, value):
        """A negative seed, an n_max outside 1..N_MAX_CAP, a beta grid with a
        non-positive entry, a sample count below 1 and a beta that is not positive
        and finite are refused before the output directory is made, as a flag and as
        a config key; nothing is sampled, allocated or computed."""
        flag = f"--{name.replace('_', '-')}={value}"
        assert run_cli([experiment, "--out", tmp_path / "flag", flag]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        assert run_cli([experiment, "--config", config, "--out", tmp_path / "cfg"]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists() and not (tmp_path / "cfg").exists()

    @pytest.mark.parametrize("name, value", [
        ("entropy_base", "10"), ("degeneracy", "coarse"), ("middle_entropy", "final")])
    def test_a_convention_outside_its_choices_exits_2(self, tmp_path, capsys, name, value):
        """As a flag the parser refuses it; as a config key the run refuses it,
        naming the choices, before the output directory is made."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["squeeze-grid", "--out", tmp_path / "flag",
                     f"--{name.replace('_', '-')}={value}"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        assert run_cli(["squeeze-grid", "--config", config, "--out", tmp_path / "cfg"]) == 2
        assert re.match(rf"config error: {name}: must be '\w+' or '\w+', got '{value}'\n$",
                        capsys.readouterr().err)
        assert not (tmp_path / "flag").exists() and not (tmp_path / "cfg").exists()


@pytest.mark.parametrize("args, code, message", [
    (["squeeze-grid", "--grid-spec", "0:1e308:2"], 2,
     "config error: grid_spec: the largest r + r is not finite, got '0:1e308:2'"),
    (["squeeze-beta", "--grid-spec", "0.1,1e308", "--beta-grid", "1"], 2,
     "config error: grid_spec: the largest r + r is not finite, got '0.1,1e308'"),
    (["squeeze-grid", "--beta", "1e308", "--grid-spec", "0:0.1:3"], 0, ""),
], ids=["squeeze-grid-r-overflow", "squeeze-beta-r-overflow", "squeeze-grid-beta-1e308"])
def test_overflowing_settings_raise_no_runtime_warning(tmp_path, capsys, args, code, message):
    """A grid whose largest r + r overflows is refused before any run, naming
    grid_spec; at beta 1e308 every excited weight is exactly 0 and the run
    succeeds.  Neither prints a numpy RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([*args, "--out", tmp_path]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == (message + "\n" if message else "")
    assert bool(list(tmp_path.rglob("*.csv"))) == (code == 0)


def test_jarzynski_check_takes_no_n_max(tmp_path):
    """jarzynski-check's oscillator rows choose their own truncation."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["jarzynski-check", "--n-max", "64", "--out", tmp_path])
    assert exit_info.value.code == 2
    assert "n_max" not in EXPERIMENTS["jarzynski-check"][1]

def test_sweeps_leave_the_entropy_base_to_the_manifest():
    """A library sweep's meta claims no base and echoes no setting it did not
    compute or run with; the CLI manifest writes the experiment and the settings."""
    from workreal.squeezing import beta_sweep_min_k, squeeze_grid_sweep
    from workreal.two_level import tls_theta_sweep
    grid = np.array([0.0, 0.05])
    tables = [tls_theta_sweep(1.0, np.array([1.0])),
              squeeze_grid_sweep(beta=1.0, r1_grid=grid, r2_grid=grid),
              beta_sweep_min_k([1.0], r_grid=np.geomspace(0.05, 0.4, 6))]
    for table in tables:
        for key in ("entropy_base", "experiment", "degeneracy", "middle_entropy"):
            assert key not in table.meta, (key, table.meta)


def test_default_grids_parse_to_the_former_arrays():
    """The specs a run falls back to, read from the experiments' rows, give bit for
    bit the arrays the library sweeps used to default to."""
    defaults = {name: row[1] for name, row in EXPERIMENTS.items()}
    for spec, parse, former in (
            (defaults["tls-theta"]["grid_spec"], parse_grid_spec,
             np.linspace(0.0, 2 * math.pi, 721)),
            (defaults["squeeze-grid"]["grid_spec"], parse_grid_spec, np.linspace(0.0, 0.1, 101)),
            (defaults["squeeze-beta"]["grid_spec"], parse_grid_spec,
             np.geomspace(0.004, 0.8, 20)),
            (defaults["squeeze-beta"]["beta_grid"], parse_value_list,
             np.array([0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]))):
        assert parse(spec).tobytes() == former.tobytes(), spec


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_a_default_run_names_every_setting_and_reruns_from_them(tmp_path, experiment):
    """A default run (mc-crosscheck given only its seed) names every setting of
    its row in every manifest, resolved and in row order after the library and
    experiment lines; those lines, as a config file with no flags, write the same
    bytes.  An n_max the run chose is the sweep's own meta line."""
    given = {"seed": 20} if experiment == "mc-crosscheck" else {}
    assert run_cli([experiment, *(f"--{name}={value}" for name, value in given.items()),
                    "--out", tmp_path / "default"]) == 0
    resolved = {**EXPERIMENTS[experiment][1], **given}
    lines = [f"# {name} = " + (FLOAT_FORMAT % value if isinstance(value, float) else str(value))
             for name, value in resolved.items() if value is not None]
    written = sorted((tmp_path / "default").glob("*.csv"))
    for csv in written:
        assert _csv_parts(csv)[0][2:2 + len(lines)] == lines, csv.name
    if "n_max" in resolved:
        assert "n_max" in read_table_csv(tmp_path / "default" / "squeeze_grid.csv").meta
    config = tmp_path / "run.cfg"
    config.write_text("".join(line[2:] + "\n" for line in lines), encoding="utf-8")
    assert run_cli([experiment, "--config", config, "--out", tmp_path / "config"]) == 0
    for csv in written:
        assert (tmp_path / "config" / csv.name).read_bytes() == csv.read_bytes(), csv.name


def _csv_parts(path):
    """(manifest lines, header, data rows as lists of field strings) of a CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    manifest = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return manifest, header, rows


@pytest.mark.parametrize("experiment, args, csv, entropic", [
    ("tls-theta", ["--grid-spec", "0:6.283185307179586:73"], "tls_theta.csv",
     {"k_en_fine", "k_en_grouped"}),
    ("squeeze-grid", ["--beta", "1.0", "--grid-spec", "0:0.3:7", "--n-max", "96",
                      "--middle-entropy", "measured"], "squeeze_grid.csv", {"k_en"}),
    ("squeeze-beta", ["--beta-grid", "0.5,1.0", "--grid-spec", "geom:0.05:0.4:6"],
     "squeeze_beta.csv", {"min_k_en"}),
], ids=["tls-theta", "squeeze-grid", "squeeze-beta"])
def test_entropy_base_converts_only_the_k_en_columns(tmp_path, experiment, args, csv,
                                                     entropic):
    """The library works in nats; --entropy-base 2 divides each K_en column by
    log 2 at output and leaves every other column and manifest line as it is.
    The squeeze-grid contours are drawn on the converted grid: its deepest cell,
    about -0.045 nats, lies below the -0.05 level only in bits."""
    for base in ("e", "2"):
        assert run_cli([experiment, *args, "--entropy-base", base,
                        "--out", tmp_path / base]) == 0
    manifest_e, header, rows_e = _csv_parts(tmp_path / "e" / csv)
    manifest_2, header_2, rows_2 = _csv_parts(tmp_path / "2" / csv)
    assert header_2 == header and len(rows_2) == len(rows_e) > 0
    assert set(manifest_e) ^ set(manifest_2) == {"# entropy_base = e", "# entropy_base = 2"}
    for k, name in enumerate(header):
        nats = [row[k] for row in rows_e]
        bits = [row[k] for row in rows_2]
        if name in entropic:
            assert [float(x) for x in bits] == [float(x) / math.log(2) for x in nats], name
        else:
            assert bits == nats, name
    if experiment == "squeeze-grid":
        from workreal.tables import contour_points
        grid = parse_grid_spec("0:0.3:7")
        counts = {}
        for base in ("e", "2"):
            z = read_table_csv(tmp_path / base / csv).column("k_en").reshape(7, 7)
            for level in (0.0, -0.05):
                contour = read_table_csv(
                    tmp_path / base / f"squeeze_grid_contour_{level:g}.csv").rows
                np.testing.assert_array_equal(contour, contour_points(grid, grid, z, level))
                counts[base, level] = len(contour)
        assert counts["e", 0.0] > 0 and counts["e", -0.05] == 0 < counts["2", -0.05]
