"""The benchmark under perfbench/ reaches into the package by name: its tracer
wraps the functions `LAYERS` lists, and its child process imports public names.
A rename that the benchmark does not follow fails here instead of in a benchmark
run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{layer}: {module_name} lacks {missing}"


def test_every_name_the_child_imports_is_exported():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "workreal"
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
