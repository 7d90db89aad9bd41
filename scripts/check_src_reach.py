#!/usr/bin/env python3
"""Fail when a function under src/workreal is reached by no run.

    PYTHONPATH=src python scripts/check_src_reach.py

A profile hook records every function entered, on any thread, during the CLI
runs of `runs` (every experiment, both degeneracy and both middle-entropy
conventions, `--entropy-base 2`, a `--config` file, one run that exits 2 and one
that exits 3) and during the benchmark's layer probes (`probes()` of
perfbench/child.py).  An AST walk of src/workreal/*.py then lists every `def`.
Each one that was never entered and is not a function the benchmark's tracer
wraps (`LAYERS` of perfbench/tracer.py) is printed, and the script exits 1; it
also exits 1 when a run ends with another status than the one listed for it.
A function is keyed by its file, its first line and its name, the first line of
a decorated def being that of its first decorator, as `co_firstlineno` reports
it.  The perfbench files are loaded by path and only read.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "workreal"
PERFBENCH = ROOT / "perfbench"

Key = tuple[str, int, str]  # (resolved file, first line, name)


def runs(out: Path) -> list[tuple[list[str], int]]:
    """The CLI argument lists of the scan, each with the exit status it must return.
    Writes the config file of the `--config` run into `out`."""
    config = out / "tls-theta.cfg"
    config.write_text("beta = 0.5\ngrid_spec = 0:6.283185307179586:9\n", encoding="utf-8")
    conventions = ["--degeneracy", "grouped", "--middle-entropy", "measured"]
    return [
        (["tls-theta"], 0),
        (["tls-theta", "--config", str(config), "--entropy-base", "2"], 0),
        (["squeeze-grid", "--grid-spec", "0:0.1:5"], 0),
        (["squeeze-grid", "--grid-spec", "0:0.1:5", *conventions, "--entropy-base", "2"], 0),
        (["squeeze-beta", "--beta-grid", "0.5,1"], 0),
        (["squeeze-beta", "--beta-grid", "0.5,1", *conventions], 0),
        (["jarzynski-check", "--seed", "1"], 0),
        (["mc-crosscheck", "--seed", "1"], 0),
        # refused in validation: the largest r + r overflows
        (["squeeze-grid", "--grid-spec", "0:1e308:2"], 2),
        # a cell's truncation budget is not met at n_max 64
        (["squeeze-grid", "--beta", "1", "--n-max", "64", "--grid-spec", "0:1:3"], 3),
    ]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _keys(codes) -> set[Key]:
    resolved = {name: str(Path(name).resolve()) for name in {c.co_filename for c in codes}}
    return {(resolved[c.co_filename], c.co_firstlineno, c.co_name) for c in codes}


def entered_during(action) -> set[Key]:
    """The keys of every Python function entered, on any thread, while `action()` runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    former = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(former[0])
        threading.setprofile(former[1])
    return _keys(codes)


def unreached(entered: set[Key], folder: Path) -> list[str]:
    """Every def of folder/*.py whose key `entered` lacks, as "file:line name" with
    the line of the `def` itself."""
    missing = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path.resolve()), first, node.name) not in entered:
                    missing.append(f"{path.name}:{node.lineno} {node.name}")
    return missing


def traced(tracer) -> set[Key]:
    """The keys of the functions the benchmark's tracer wraps."""
    return _keys([getattr(importlib.import_module(module), name).__code__
                  for module, names in tracer.LAYERS.values() for name in names])


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    child = _load(PERFBENCH / "child.py", "perfbench_child")
    tracer = _load(PERFBENCH / "tracer.py", "perfbench_tracer")
    with tempfile.TemporaryDirectory() as tmp:
        plan = runs(Path(tmp))
        statuses = []

        def action():
            # imported here, so that what the package runs on import is recorded too
            from workreal.cli import main as cli_main
            for k, (argv, _) in enumerate(plan):
                statuses.append(cli_main([*argv, "--out", str(Path(tmp) / str(k))]))
            child.probes()

        chatter = io.StringIO()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            entered = entered_during(action)
    wrong = [f"workreal {' '.join(argv)} exited {status}, expected {expected}"
             for (argv, expected), status in zip(plan, statuses) if status != expected]
    if wrong:
        print(chatter.getvalue(), *wrong, sep="\n", file=sys.stderr)
        return 1
    missing = unreached(entered | traced(tracer), SRC)
    for where in missing:
        print(f"not reached by any run, probe or traced layer: {where}", file=sys.stderr)
    if missing:
        return 1
    print(f"check_src_reach: every def under {SRC.relative_to(ROOT)} is reached "
          f"({len(plan)} CLI runs, the benchmark probes and its traced layers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
