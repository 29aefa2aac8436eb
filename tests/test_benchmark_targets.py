"""The package names that the benchmark's tracer wraps must exist.

perfbench/tracer.py wraps functions by their dotted names; a rename in
the package would break the traced benchmark run, not the package's own
tests.  The names are read with ast, so perfbench is not imported.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    missing = []
    for name in targets:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"ncsym.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert targets and missing == []

