#!/usr/bin/env python3
"""Fail when a function under src/workreal is reached by no run.

    PYTHONPATH=src python scripts/check_src_reach.py

A profile hook records every function entered, on any thread, while the rows of
scripts/smoke.py that need no process of their own (`Row.in_process`: every row
but those that limit the address space) run through
`workreal.cli.main` and the benchmark's probes (`probes()` of perfbench/child.py)
run.  Each `def` of src/workreal/*.py never entered and not wrapped by the
benchmark's tracer (`LAYERS` of perfbench/tracer.py) is printed, and the script
exits 1, as it does when a run ends with another status than its row's.  A
function is keyed by its file, first line and name, a decorated def's first line
being its first decorator's, as `co_firstlineno` reports it.  The perfbench files
are loaded by path and only read.
"""

import ast
import contextlib
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
    smoke = _load(ROOT / "scripts" / "smoke.py", "smoke")
    with tempfile.TemporaryDirectory() as tmp:
        plan = [row for row in smoke.rows(Path(tmp)) if row.in_process]
        statuses = []

        def action():
            # imported here, so that what the package runs on import is recorded too
            from workreal.cli import main as cli_main
            for k, row in enumerate(plan):
                try:
                    statuses.append(cli_main([*row.argv, "--out", str(Path(tmp) / str(k))]))
                except SystemExit as err:  # --help, or a flag the parser refuses
                    statuses.append(err.code)
            child.probes()

        chatter = io.StringIO()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            entered = entered_during(action)
    wrong = [f"{row.label()} exited {status}, expected {row.status}"
             for row, status in zip(plan, statuses) if status != row.status]
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
