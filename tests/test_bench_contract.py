"""The benchmark's tracer rebinds public bellccp functions by name; every
name it lists must exist, or ``bench/run.py --trace 1`` fails mid-run.

``TRACED`` is read from ``bench/tracing.py`` as a literal, so the benchmark
itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_is_a_bellccp_callable():
    names = _traced_names()
    assert names
    for name in names:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"bellccp.{module_name}")
        if "." in attr:
            # Methods are rebound on the class that defines them.
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            assert method in vars(cls), f"{name} is not defined on {cls_name} itself"
            assert callable(vars(cls)[method]), name
        else:
            assert callable(getattr(owner, attr, None)), f"{name} is not a bellccp callable"
