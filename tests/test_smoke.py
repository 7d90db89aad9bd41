"""scripts/smoke.py fails a row on each kind of check, and passes a row that meets
them all.  The children are tiny `python -c` programs that read the row's argv
and its `--out` directory from sys.argv."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_module
from workreal.cli import EXPERIMENTS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "smoke.py"

# exits with the status its first argument names
EXIT = "import sys; sys.exit(int(sys.argv[1]))"
# writes t.csv into its --out directory: the thread count the environment sets and
# the number of CPUs it may run on
WRITE = ("import os, sys; os.makedirs(sys.argv[-1]); open(sys.argv[-1] + '/t.csv', 'w')"
         ".write(f\"{os.environ.get('OPENBLAS_NUM_THREADS')},{len(os.sched_getaffinity(0))}\")")

smoke = load_module(SCRIPT, "smoke")


@pytest.mark.parametrize("row, code, problem", [
    (smoke.Row(("0",)), EXIT, None),
    (smoke.Row(("3",)), EXIT, "exit 3, expected 0"),
    (smoke.Row(("3",), 3, stderr="^never printed"), EXIT,
     "no stderr line matches '^never printed'"),
    (smoke.Row((), 1), "raise ValueError", "Traceback in stderr"),
    (smoke.Row(()), "import warnings; warnings.warn('x', RuntimeWarning)",
     "RuntimeWarning in stderr"),
    (smoke.Row((), same="rerun", absent=("u.csv",)), WRITE, None),
    (smoke.Row((), absent=("t.csv",)), WRITE, "t.csv exists"),
    (smoke.Row((), absent=(".",)), WRITE, ". exists"),
    (smoke.Row((), same="threads"), WRITE, "CSV bytes differ between the threads runs"),
    (smoke.Row(("0",), same="rerun"), EXIT, "no CSV to compare"),
], ids=["pass", "status", "pattern", "traceback", "runtime-warning", "rerun", "file-exists",
        "dir-exists", "threads", "no-csv"])
def test_each_check_fails_its_row(tmp_path, row, code, problem):
    problems = smoke.check(row, tmp_path / "0", program=("-c", code))[0]
    assert problems == ([] if problem is None else [problem])


def test_one_cpu_is_applied_to_the_child_alone(tmp_path):
    problems = smoke.check(smoke.Row((), same="cpu"), tmp_path / "0", program=("-c", WRITE))[0]
    threads, every = os.environ.get("OPENBLAS_NUM_THREADS"), len(os.sched_getaffinity(0))
    assert (tmp_path / "0-0" / "t.csv").read_text() == f"{threads},1"
    assert (tmp_path / "0-1" / "t.csv").read_text() == f"{threads},{every}"
    assert problems == ([] if every == 1 else ["CSV bytes differ between the cpu runs"])


def test_peak_rss_over_its_limit_fails_the_row(tmp_path):
    """A child's peak RSS starts at that of the process that starts it, so the rows
    run from a fresh interpreter rather than from this test process."""
    driver = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import smoke\n"
        "from pathlib import Path\n"
        "row = smoke.Row((), rss_mib=60)\n"
        "print(json.dumps([smoke.check(row, Path(sys.argv[2]) / str(k), ('-c', code))[0]\n"
        "                  for k, code in enumerate(('pass', 'b = b\"x\" * (100 << 20)'))]))")
    result = subprocess.run([sys.executable, "-c", driver, str(SCRIPT.parent), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    small, large = json.loads(result.stdout)
    assert small == []
    assert len(large) == 1 and large[0].startswith("peak RSS ") and large[0].endswith(
        " MiB over 60 MiB")


def test_every_experiment_has_a_help_row(tmp_path):
    helps = {row.argv[0] for row in smoke.rows(tmp_path) if row.argv[1:] == ("--help",)}
    assert set(smoke.EXPERIMENTS) == helps == set(EXPERIMENTS)
