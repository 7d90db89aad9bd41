"""scripts/check_src_reach.py names a def that no call entered, and only that one."""

from pathlib import Path

from conftest import load_module

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_src_reach.py"
SMOKE = SCRIPT.with_name("smoke.py")

SAMPLE = '''import functools


@functools.lru_cache(
    maxsize=None)
def called(x):
    return x


def never_called(x):
    return x
'''


def test_the_scan_names_exactly_the_never_called_function(tmp_path):
    """`called` is keyed by its first decorator line, as co_firstlineno reports it;
    a scan keyed by the `def` line would name it too."""
    reach = load_module(SCRIPT, "check_src_reach")
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    sample = load_module(tmp_path / "sample.py", "reach_sample")
    assert reach.unreached(set(), tmp_path) == ["sample.py:6 called", "sample.py:10 never_called"]
    entered = reach.entered_during(lambda: sample.called(1))
    assert reach.unreached(entered, tmp_path) == ["sample.py:10 never_called"]


def test_the_scan_runs_every_row_a_main_call_can_run(tmp_path):
    """Only a row that limits the address space needs a process of its own; a row
    with an environment, a CPU or thread variant or a peak RSS bound is in the
    scan's plan (`Row.in_process`) too."""
    smoke = load_module(SMOKE, "smoke")
    table = smoke.rows(tmp_path)
    plan = [row for row in table if row.in_process]
    assert plan == [row for row in table if not row.as_kib]
    assert any(row.rss_mib for row in plan) and any(row.same == "threads" for row in plan)
