"""Spans around calls into bellccp's public functions, and the per-layer
metrics computed from them.

The tracer rebinds each traced public function, in every bellccp module
that holds it, to a wrapper that records a span: name, start, end, parent
and job. Nothing under ``src/`` changes and no private name is wrapped, so
refactoring a module's internals keeps its metrics. Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

# (module, attribute) of every traced public function. "randomness.SeededPrng.
# uniform_array" is a method and is rebound on its class. Some are read by no
# metric: they are traced so that cli.self_ms leaves out their time.
TRACED = (
    "cli.main",
    "config.load_inequality", "config.load_strategy", "config.strategy_fingerprint",
    "classical.classical_bound", "classical.classical_success_bound",
    "classical.ccp_exhaustive_bound",
    "qubits.tensor_product", "qubits.expectation", "qubits.depolarize", "qubits.ghz_state",
    "quantum.correlator_table", "quantum.outcome_distribution", "quantum.random_strategy",
    "quantum.evaluate_strategy", "quantum.canonical_strategy", "quantum.with_visibility",
    "quantum.success_probability",
    "seesaw.optimize", "seesaw.seesaw_measurements", "seesaw.optimal_state",
    "seesaw.bell_operator",
    "protocol.run_session", "protocol.write_session_log", "protocol.exact_success",
    "randomness.beacon_load", "randomness.SeededPrng.uniform_array",
)

# Span fields.
NAME, START, END, PARENT, JOB, CHILD, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, info=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        job = self.spans[self._stack[0]][JOB] if self._stack else len(self.spans)
        span = [name, 0.0, 0.0, parent, job, 0.0, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def job(self, workload: str, key: str, fn):
        """Run one job as a root span."""
        span = self._open("job", {"workload": workload, "key": key})
        span[START] = time.perf_counter()
        try:
            return fn()
        finally:
            span[END] = time.perf_counter()
            self._close(span)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._close(span)
            span[INFO] = _note(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever bellccp holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "bellccp" or key.startswith("bellccp.")]
        for target in TRACED:
            module_name, attr = target.split(".", 1)
            owner = sys.modules[f"bellccp.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(target, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "job", "child", "info")
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle, default=str)


def _note(name: str, args, kwargs, result):
    """Work counts of a call, read from its inputs and public return values."""
    if name == "classical.classical_bound":
        scenario = args[0].scenario
        arities = [scenario.arity(i) for i in range(1, scenario.n + 1)]
        arities.remove(max(arities))        # the eliminated party is not swept
        return {"combos": math.prod(2 ** 2**a for a in arities)}
    if name == "classical.ccp_exhaustive_bound":
        scenario = args[0].inequality.scenario
        extra = 1 if kwargs.get("message_family", "all") == "all" else 0
        sizes = [2 ** 2 ** (scenario.arity(i) + extra) for i in range(1, scenario.n + 1)]
        work = sum(math.prod(sizes[:p] + sizes[p + 1:]) for p in range(len(sizes)))
        return {"combos": work}
    if name == "seesaw.optimize":
        return {"restarts": args[1].restarts, "sweeps": result.sweeps_used}
    if name == "protocol.run_session":
        return {"rounds": result.num_rounds, "retained": len(result.rounds),
                "prng": hasattr(args[3], "seed")}
    if name == "protocol.write_session_log":
        return {"bytes": os.path.getsize(args[1]), "rounds": len(args[0].rounds)}
    return None


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics over every traced span of the run.

    Count metrics are per job, over the jobs of the workloads they serve,
    or per pass (one round of every workload); both repeat exactly from
    pass to pass. Timing metrics are medians per call, or rates over the
    summed span time.
    """
    jobs = [s for s in spans if s[NAME] == "job"]
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur(s):
        return s[END] - s[START]

    def med_ms(name):
        return 1e3 * statistics.median(dur(s) for s in by_name[name])

    def in_workloads(names):
        return lambda s: spans[s[JOB]][INFO]["workload"] in names

    def job_count(names):
        return sum(1 for s in jobs if s[INFO]["workload"] in names)

    def per_job(name, names, value=lambda s: 1):
        keep = in_workloads(names)
        return sum(value(s) for s in by_name[name] if keep(s)) / job_count(names)

    def rate(chosen, field):
        return sum(s[INFO][field] for s in chosen) / sum(dur(s) for s in chosen)

    fresh_bound = [s for s in by_name["classical.classical_bound"]
                   if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "classical.classical_success_bound"]
    sessions = by_name["protocol.run_session"]
    prng = [s for s in sessions if s[INFO]["prng"]]
    bitsrc = [s for s in sessions if not s[INFO]["prng"]]
    writes = by_name["protocol.write_session_log"]
    quantum_jobs = ("verify", "optimize")
    return {
        "cli.self_ms": 1e3 * statistics.median(dur(s) - s[CHILD] for s in by_name["cli.main"]),
        "config.load_ms": 1e3 * statistics.median(
            dur(s) for s in by_name["config.load_inequality"] + by_name["config.load_strategy"]),
        "config.fingerprint_ms": med_ms("config.strategy_fingerprint"),
        "classical.bound_ms": 1e3 * statistics.median(dur(s) for s in fresh_bound),
        "classical.mcombos_per_s": rate(fresh_bound, "combos") / 1e6,
        "classical.ccp_ms": med_ms("classical.ccp_exhaustive_bound"),
        "classical.ccp_combos_per_s": rate(by_name["classical.ccp_exhaustive_bound"], "combos"),
        "qubits.tensor_product_calls": per_job("qubits.tensor_product", quantum_jobs),
        "qubits.tensor_product_ms": 1e3 * per_job("qubits.tensor_product", quantum_jobs, dur),
        "qubits.expectation_calls": per_job("qubits.expectation", ("verify",)),
        "qubits.expectation_ms": 1e3 * per_job("qubits.expectation", ("verify",), dur),
        "qubits.depolarize_ms": med_ms("qubits.depolarize"),
        "quantum.correlator_table_ms": med_ms("quantum.correlator_table"),
        "quantum.outcome_distribution_ms": med_ms("quantum.outcome_distribution"),
        "quantum.random_strategy_ms": med_ms("quantum.random_strategy"),
        "seesaw.restart_ms": 1e3 * statistics.median(
            dur(s) / s[INFO]["restarts"] for s in by_name["seesaw.optimize"]),
        "seesaw.sweeps_best": statistics.mean(s[INFO]["sweeps"] for s in by_name["seesaw.optimize"]),
        "seesaw.optimal_state_calls": per_job("seesaw.optimal_state", ("optimize",)),
        "seesaw.optimal_state_ms": med_ms("seesaw.optimal_state"),
        "seesaw.bell_operator_ms": med_ms("seesaw.bell_operator"),
        "randomness.prng_draw_ms": 1e3 * sum(
            dur(s) for s in by_name["randomness.SeededPrng.uniform_array"]) / len(prng),
        "protocol.prng_rounds_per_s": rate(prng, "rounds"),
        "protocol.file_rounds_per_s": rate(bitsrc, "rounds"),
        "protocol.records_retained": sum(s[INFO]["retained"] for s in sessions) / passes,
        "protocol.write_mb_per_s": rate(writes, "bytes") / 1e6,
        "protocol.log_bytes_per_round": sum(s[INFO]["bytes"] for s in writes)
        / sum(s[INFO]["rounds"] for s in writes),
        "protocol.exact_success_ms": med_ms("protocol.exact_success"),
    }
