import argparse
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from workreal.cli import EXPERIMENTS, build_parser, main, parse_grid_spec, parse_value_list
from workreal.errors import InvalidParameterError
from workreal.tables import SweepTable, format_float, read_table_csv, write_table_csv

from conftest import jarzynski_check_draws, object_jarzynski_deviation


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
        assert float(format_float(x)) == x


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
        elif not isinstance(value, (str, int, bool)):
            continue
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
                      "flag": False, "label": "β sweep", "skipped": np.arange(3)})


def test_csv_bytes_equal_former_writer(tmp_path):
    for k, table in enumerate(_tables()):
        path = tmp_path / f"table{k}.csv"
        write_table_csv(path, table)
        assert path.read_bytes() == _former_csv_bytes(table), k


def test_each_experiment_takes_exactly_its_settings():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(EXPERIMENTS)
    for name, sub in subparsers.choices.items():
        dests = {action.dest for action in sub._actions} - {"help"}
        assert dests == {"config", "out", *EXPERIMENTS[name][1]}, name


def test_consistency_script_runs_both_checks(tmp_path):
    import workreal
    src = Path(workreal.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "run_consistency_checks.py"
    result = subprocess.run([sys.executable, str(script), "--seed", "3"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "results" / "jarzynski" / "jarzynski_check.csv").is_file()
    assert (tmp_path / "results" / "mc" / "mc_crosscheck.csv").is_file()


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

    def test_cap_failure_builds_nothing(self, tmp_path, capsys, monkeypatch):
        """r1 + r2 = 4 at beta = 0.1 needs more than 8192 levels, and so does the
        thermal tail alone at beta = 1e-310, whose support overflows a float: exit
        3 with the point named, before any squeeze matrix is built."""
        import workreal.squeezing as squeezing

        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(squeezing, "_parity_columns", no_build)
        code = run_cli(["squeeze-grid", "--out", tmp_path, "--grid-spec", "0:2:3"])
        assert code == 3
        message = capsys.readouterr().err
        assert "beta=0.1" in message and "r=4" in message
        for args in (["squeeze-grid", "--beta", "1e-310", "--grid-spec", "0:0.1:3"],
                     ["squeeze-beta", "--beta-grid", "1e-310"]):
            out = tmp_path / args[0]
            assert run_cli(args + ["--out", out]) == 3
            message = capsys.readouterr().err
            assert "beta=1e-310" in message and "r=" in message
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
    ])
    def test_unusable_grid_spec_exits_2(self, tmp_path, capsys, experiment, spec):
        assert run_cli([experiment, "--out", tmp_path, "--grid-spec", spec]) == 2
        assert "config error: grid_spec:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("experiment, name, value", [
        ("jarzynski-check", "seed", "-1"), ("mc-crosscheck", "seed", "-3"),
        ("squeeze-grid", "n_max", "8193"), ("squeeze-grid", "n_max", "0"),
        ("squeeze-beta", "beta_grid", "0.1,0.2,0.3,0"),
        ("squeeze-beta", "beta_grid", "0.5,-1"),
    ])
    def test_out_of_range_settings_exit_2(self, tmp_path, capsys, experiment, name, value):
        """A negative seed, an n_max outside 1..N_MAX_CAP and a beta grid with a
        non-positive entry are refused before any run starts, as a flag and as a
        config key; nothing is sampled, allocated or computed."""
        flag = f"--{name.replace('_', '-')}={value}"
        assert run_cli([experiment, "--out", tmp_path / "flag", flag]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        assert run_cli([experiment, "--config", config, "--out", tmp_path / "cfg"]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


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
    """A library sweep's meta claims no base; the CLI manifest writes the setting."""
    from workreal.squeezing import beta_sweep_min_k, squeeze_grid_sweep
    from workreal.two_level import tls_theta_sweep
    grid = np.array([0.0, 0.05])
    tables = [tls_theta_sweep(theta_grid=np.array([1.0])),
              squeeze_grid_sweep(beta=1.0, r1_grid=grid, r2_grid=grid),
              beta_sweep_min_k([1.0], r_grid=np.geomspace(0.05, 0.4, 6))]
    for table in tables:
        assert "entropy_base" not in table.meta, table.meta["experiment"]


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
