"""scripts/check_src_reach.py names a def that no call entered, and only that one."""

from pathlib import Path

from conftest import load_module

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_src_reach.py"

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
