"""The benchmark's tracer rebinds public bellccp functions by name; every
name it lists must exist, or ``bench/run.py --trace 1`` fails mid-run.

``TRACED`` is read from ``bench/tracing.py`` as a literal, so the benchmark
itself is not imported. The tracer also reads a few public return values
of the calls it wraps; those are pinned here at the library level.
"""

import ast
import importlib
from pathlib import Path

from bellccp import (CcpInstance, SeededPrng, canonical_strategy, gyni_inequality,
                     run_session, write_session_log)

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


def test_session_calls_expose_what_the_tracer_reads(tmp_path):
    # The tracer counts len(result.rounds) of run_session, and
    # len(log.rounds) plus the written file's size of write_session_log.
    rounds = 300
    log = run_session(CcpInstance(inequality=gyni_inequality()),
                      canonical_strategy("gyni-paper"), rounds, SeededPrng(1))
    assert isinstance(log.rounds, tuple) and len(log.rounds) == rounds
    path = tmp_path / "session.jsonl"
    write_session_log(log, path)
    assert path.stat().st_size > 0
    assert len(path.read_text().splitlines()) == 1 + rounds
