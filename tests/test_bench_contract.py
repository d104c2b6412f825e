"""The benchmark's tracer rebinds public bellccp functions by name; every
name it lists must exist, or ``bench/run.py --trace 1`` fails mid-run.

``TRACED`` is read from ``bench/tracing.py`` as a literal. The tracer also
reads a few public return values of the calls it wraps; those are pinned
here at the library level. Its metrics read spans of every traced function
they name, so a pass that stops calling one of them fails too: the last
test installs the tracer itself (``bench/tracing.py`` imports only the
standard library) over one small job per workload and computes the
metrics from the spans.
"""

import ast
import importlib
import importlib.util
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from bellccp import (CcpInstance, SeededPrng, canonical_strategy, chsh_inequality,
                     gyni_inequality, run_session, write_session_log)
from bellccp import classical, cli

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
    # The tracer counts len(result.rounds) of every run_session, kept or
    # not, and len(log.rounds) plus the written file's size of write_session_log.
    rounds = 300
    instance = CcpInstance(inequality=gyni_inequality())
    unkept = run_session(instance, canonical_strategy("gyni-paper"), rounds, SeededPrng(1),
                         keep_rounds=False)
    assert len(unkept.rounds) == 0
    log = run_session(instance, canonical_strategy("gyni-paper"), rounds, SeededPrng(1))
    assert isinstance(log.rounds, Sequence) and len(log.rounds) == rounds
    path = tmp_path / "session.jsonl"
    write_session_log(log, path)
    assert path.stat().st_size > 0
    assert len(path.read_text().splitlines()) == 1 + rounds


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_small_traced_pass_yields_every_layer_metric(tmp_path, capsys):
    tracing = _load_tracing()
    rng = np.random.default_rng(0)
    bits = tmp_path / "bits.bin"
    bits.write_bytes(rng.bytes(1000))
    beacon = tmp_path / "beacon.txt"
    beacon.write_text("".join(rng.bytes(64).hex() + "\n" for _ in range(16)))
    simulate = ["simulate", "--ineq", "gyni", "--strategy", "gyni-paper", "--rounds", "40"]
    optimize = ["optimize", "--ineq", "chsh", "--seed", "1", "--restarts", "2"]
    jobs = [
        ("bounds", lambda: cli.main(["bound", "--ineq", "gyni"])),
        ("bounds", lambda: classical.ccp_exhaustive_bound(CcpInstance(chsh_inequality()))),
        ("optimize", lambda: cli.main(optimize + ["--optimize-state"])),
        ("optimize", lambda: cli.main(optimize + ["--noise-v", "0.8"])),
        ("simulate", lambda: cli.main(simulate + ["--seed", "1",
                                                  "--out", str(tmp_path / "log.jsonl")])),
        ("simulate", lambda: cli.main(simulate + ["--randomness", f"file:{bits}"])),
        ("simulate", lambda: cli.main(simulate + ["--randomness", f"beacon:{beacon}"])),
        ("verify", lambda: cli.main(["verify", "--ineq", "gyni", "--seed", "1",
                                     "--strategies", "4"])),
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        results = [tracer.job(workload, str(k), job) for k, (workload, job) in enumerate(jobs)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert results[:1] + results[2:] == [0] * 7      # CLI exit codes; [1] is a bound
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics and all(isinstance(v, (int, float)) for v in metrics.values())
