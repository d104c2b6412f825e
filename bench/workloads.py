"""The four workloads: seeded inputs, fixed job lists, and their checks.

A workload is built once per run from ``--seed``. It writes its input files
into the run's work directory, computes the reference values its checks
need, and exposes a fixed list of jobs. A round runs every job once, in the
listed order; the order interleaves job kinds so that a machine-wide slow
phase hits all of them alike. Jobs drive the program as a user does:
``bellccp.cli.main`` in-process on the generated files, or the public
library function where the CLI has no subcommand. Every job loads its
inputs afresh, so the per-object caches never turn a job into a lookup.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference
from bellccp import classical, cli, config, protocol, quantum, scenarios

NAMES = ("bounds", "optimize", "simulate", "verify")
_TAGS = {name: k for k, name in enumerate(NAMES)}
PRESETS = ("gyni", "svetlichny", "chsh")


class JobFailed(Exception):
    """A job's command exited non-zero or raised."""


@dataclass
class Job:
    key: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # Checks a round's outputs ({job key: output}); returns problems.
    check_round: Callable[[dict], list[str]]
    inequalities: list[Inequality]
    strategies: list[str] = field(default_factory=list)
    # Checks made once per run on library calls outside the job list.
    check_once: Callable[[], list[str]] = lambda: []


def cli_json(argv: list[str]) -> dict:
    """Run one CLI command in-process; its last stdout line as JSON."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        raise JobFailed(f"{' '.join(argv)}: {type(exc).__name__}: {exc}") from exc
    if code != 0:
        raise JobFailed(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _interleave(*groups):
    """Round-robin merge, so no job kind runs as one block."""
    merged = []
    for batch in itertools.zip_longest(*groups):
        merged.extend(job for job in batch if job is not None)
    return merged


def ring(n: int) -> list[tuple[int, ...]]:
    """Each party also sees its left neighbour's input (gyni for n = 3)."""
    return [(i, (i - 2) % n + 1) for i in range(1, n + 1)]


def exchange(n: int) -> list[tuple[int, ...]]:
    """Parties 1-2, 3-4, ... see each other's input; an odd last party sees its own."""
    groups = []
    for i in range(1, n + 1, 2):
        groups += [(i, i + 1), (i + 1, i)] if i < n else [(i,)]
    return groups


@dataclass
class Inequality:
    """A generated or named inequality as the benchmark knows it."""

    source: str                     # preset name or config path
    n: int
    visibility: list
    q: list[int]                    # coefficients in canonical tuple order

    @property
    def gamma(self) -> int:
        return sum(abs(v) for v in self.q)


def random_inequality(rng, n: int, visibility, path: Path) -> Inequality:
    """Coefficients uniform on {-3..3} minus 0, with exactly 2^n / 8 of them
    (rounded down) set to 0; written as a config file. A fixed count of
    zero-weight inputs keeps the work of exact_success the same for every
    seed."""
    q = rng.choice([-3, -2, -1, 1, 2, 3], size=2**n)
    q[rng.choice(2**n, size=2**n // 8, replace=False)] = 0
    q = [int(v) for v in q]
    coeffs = [{"x": list(x), "q": v} for x, v in zip(reference.tuples(n), q) if v]
    doc = {"scenario": {"n": n, "visibility": [list(g) for g in visibility]}, "coeffs": coeffs}
    path.write_text(json.dumps(doc))
    return Inequality(str(path), n, [tuple(g) for g in visibility], q)


def preset_inequality(name: str) -> Inequality:
    ineq = scenarios.named_inequality(name)
    n = ineq.n
    return Inequality(name, n, list(ineq.scenario.visibility),
                      [int(ineq.coeffs[x]) for x in reference.tuples(n)])


def _derived_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------- bounds

def bounds(seed: int, workdir: Path) -> Workload:
    """bellccp bound on n = 4, 5, 6; ccp_exhaustive_bound on n = 3."""
    rng = np.random.default_rng([seed, _TAGS["bounds"]])
    generated = []
    for n, copies in ((4, 2), (5, 2), (6, 1)):
        for shape in (ring, exchange):
            for c in range(copies):
                path = workdir / f"bound-{shape.__name__}{n}-{c}.json"
                generated.append(random_inequality(rng, n, shape(n), path))
    ccp_inputs = [preset_inequality(name) for name in PRESETS]
    ccp_inputs += [random_inequality(rng, 3, shape(3), workdir / f"ccp-{shape.__name__}3.json")
                   for shape in (ring, exchange)]
    presets = [preset_inequality(name) for name in PRESETS]

    odometer = {ineq.source: reference.odometer_bound(ineq.n, ineq.visibility, ineq.q)
                for ineq in generated + ccp_inputs if ineq.n <= 5}
    by_key = {}

    def bound_job(ineq, key):
        by_key[key] = ineq
        return Job(key, lambda: cli_json(["bound", "--ineq", ineq.source]))

    def ccp_job(ineq, family, key):
        by_key[key] = ineq

        def run():
            instance = scenarios.CcpInstance(inequality=config.load_inequality(ineq.source))
            return classical.ccp_exhaustive_bound(instance, message_family=family)
        return Job(key, run)

    file_jobs = [bound_job(ineq, f"bound:{Path(ineq.source).stem}") for ineq in generated]
    preset_jobs = [bound_job(ineq, f"bound:{ineq.source}") for ineq in presets]
    ccp_jobs = [ccp_job(ineq, family, f"ccp:{Path(ineq.source).stem}:{family}")
                for ineq in ccp_inputs for family in ("all", "y-odd")]

    def check_round(outputs):
        problems = []
        for key, out in outputs.items():
            ineq = by_key[key]
            name = ineq.source if ineq.source in PRESETS else None
            expected = odometer.get(ineq.source)
            if key.startswith("bound:"):
                problems += checks.check_bound(out["classical_bound"], ineq.gamma, name, expected)
                problems += checks.check_success_bound(
                    out["success_bound"], out["classical_bound"], ineq.gamma)
            else:
                problems += checks.check_success_bound(out, expected, ineq.gamma)
        return [f"bounds: {p}" for p in problems]

    return Workload("bounds", _interleave(file_jobs, ccp_jobs, preset_jobs), check_round,
                    generated + ccp_inputs)


# ---------------------------------------------------------------- optimize

OPT_RESTARTS = 8
RING_INEQUALITIES = 2
RING_RESTARTS = 3
# How many sweeps a random instance needs to converge varies by an order of
# magnitude between instances; a fixed budget keeps a round's work the same
# whatever the seed. The presets converge in a few sweeps and run uncapped.
RING_MAX_SWEEPS = 10


def optimize(seed: int, workdir: Path) -> Workload:
    """bellccp optimize on the presets (plain, --noise-v, --optimize-state)
    and on random n = 4 ring inequalities (plain, a few restarts)."""
    rng = np.random.default_rng([seed, _TAGS["optimize"]])
    inputs = {name: preset_inequality(name) for name in PRESETS}
    for k in range(RING_INEQUALITIES):
        inputs[f"ring4-{k}"] = random_inequality(rng, 4, ring(4), workdir / f"opt-ring4-{k}.json")
    groups = []
    visibility = {}
    for name, ineq in inputs.items():
        base = ["optimize", "--ineq", ineq.source, "--seed", str(_derived_seed(rng))]
        if name in PRESETS:
            visibility[name] = round(float(rng.uniform(0.6, 0.95)), 4)
            base += ["--restarts", str(OPT_RESTARTS)]
            variants = {"plain": [], "noise": ["--noise-v", str(visibility[name])],
                        "state": ["--optimize-state"]}
        else:
            base += ["--restarts", str(RING_RESTARTS), "--max-sweeps", str(RING_MAX_SWEEPS)]
            variants = {"plain": []}
        groups.append([Job(f"{name}:{variant}", lambda argv=base + extra: cli_json(argv))
                       for variant, extra in variants.items()])

    def check_round(outputs):
        problems = []
        for key, out in outputs.items():
            name, variant = key.split(":")
            ineq = inputs[name]
            window = name if (variant == "plain" and name in PRESETS) else None
            problems += checks.check_optimize_payload(out, ineq.gamma, window)
            if variant == "noise":
                problems += checks.check_noisy_optimum(out["best_value"], name, visibility[name])
            if variant == "state":
                problems += checks.check_state_optimum(
                    out["best_value"], outputs[f"{name}:plain"]["best_value"])
        return [f"optimize: {p}" for p in problems]

    return Workload("optimize", _interleave(*groups), check_round, list(inputs.values()))


# ---------------------------------------------------------------- simulate

PRNG_ROUNDS = 15000
OUT_ROUNDS = 10000
LONG_ROUNDS = 50000
BIT_ROUNDS = 2000          # a multiple of 8, so the bit file ends on a byte
STRATEGY_INEQ = {"gyni-paper": "gyni", "svetlichny-paper": "svetlichny",
                 "experiment-like": "gyni"}


def _strategy_model(name: str):
    """Reference density matrix and Bloch vectors of a preset strategy."""
    strategy = quantum.canonical_strategy(name)
    blochs = {key: tuple(float(r) for r in obs.bloch)
              for key, obs in strategy.observables.items()}
    v = quantum.EXPERIMENT_VISIBILITY if name == "experiment-like" else None
    return reference.density(reference.ghz(strategy.scenario.n), v), blochs


def simulate(seed: int, workdir: Path) -> Workload:
    """bellccp simulate on the presets from a PRNG (with and without --out),
    a seeded bit file and a local beacon-record file."""
    rng = np.random.default_rng([seed, _TAGS["simulate"]])
    plans = []      # (key, strategy, rounds, PRNG seed or bit source, --out path)
    for name in STRATEGY_INEQ:
        plans.append((f"prng:{name}", name, PRNG_ROUNDS, _derived_seed(rng), None))
    plans.append(("prng-out:gyni-paper", "gyni-paper", OUT_ROUNDS, _derived_seed(rng),
                  workdir / "session.jsonl"))
    plans.append(("prng-long:experiment-like", "experiment-like", LONG_ROUNDS,
                  _derived_seed(rng), None))
    bits_needed = BIT_ROUNDS * (53 + 3 + 53)
    bit_path = workdir / "bits.bin"
    bit_path.write_bytes(rng.bytes(bits_needed // 8))
    records = math.ceil(bits_needed / 512)     # beacon records hold 512 bits
    beacon_path = workdir / "beacon.txt"
    beacon_path.write_text("".join(rng.bytes(64).hex() + "\n" for _ in range(records)))
    plans.append(("file:gyni-paper", "gyni-paper", BIT_ROUNDS, f"file:{bit_path}", None))
    plans.append(("beacon:svetlichny-paper", "svetlichny-paper", BIT_ROUNDS,
                  f"beacon:{beacon_path}", None))

    models = {name: _strategy_model(name) for name in STRATEGY_INEQ}
    ineqs = {name: preset_inequality(STRATEGY_INEQ[name]) for name in STRATEGY_INEQ}
    exact = {name: reference.exact_success(ineqs[name].n, ineqs[name].visibility,
                                           ineqs[name].q, *models[name])
             for name in STRATEGY_INEQ}

    jobs, expected = [], {}
    for key, name, rounds, source, out in plans:
        ineq = ineqs[name]
        argv = ["simulate", "--ineq", ineq.source, "--strategy", name, "--rounds", str(rounds)]
        if isinstance(source, int):
            argv += ["--seed", str(source)]
            draws = reference.prng_draws(source, rounds, ineq.n)
        else:
            argv += ["--randomness", source]
            path = source.split(":", 1)[1]
            data = (Path(path).read_bytes() if source.startswith("file:")
                    else b"".join(bytes.fromhex(line) for line in Path(path).read_text().split()))
            draws = reference.bit_draws(data, rounds, ineq.n)
        if out is not None:
            argv += ["--out", str(out)]
        expected[key] = (name, rounds, out,
                         reference.replay_session(ineq.n, ineq.visibility, ineq.q,
                                                  *models[name], *draws))
        jobs.append(Job(key, lambda argv=argv: cli_json(argv)))
    first_log = {}

    def check_round(outputs):
        problems = []
        for key, summary in outputs.items():
            name, rounds, out, replay = expected[key]
            problems += checks.check_session(summary, rounds, exact[name], replay["successes"])
            if out is not None:
                data = out.read_bytes()
                lines = data.decode().splitlines()
                recs = [json.loads(line) for line in lines[1:]]
                problems += checks.check_session_log(recs, replay, summary["successes"],
                                                     ineqs[name].q)
                digest = hashlib.sha256(data).hexdigest()
                if first_log.setdefault(key, digest) != digest:
                    problems.append(f"{key}: the same seed wrote a different log")
        return [f"simulate: {p}" for p in problems]

    return Workload("simulate", jobs, check_round, list(ineqs.values()), list(STRATEGY_INEQ))


# ---------------------------------------------------------------- verify

VERIFY_STRATEGIES = {2: 40, 3: 40, 4: 16, 5: 6}      # by party count
SAMPLE = 4      # strategies per job checked against the reference, mixed one included


def verify(seed: int, workdir: Path) -> Workload:
    """bellccp verify on the presets and on random n = 4 and n = 5 inequalities."""
    rng = np.random.default_rng([seed, _TAGS["verify"]])
    inputs = [preset_inequality(name) for name in PRESETS]
    inputs.append(random_inequality(rng, 4, ring(4), workdir / "verify-ring4.json"))
    inputs.append(random_inequality(rng, 5, exchange(5), workdir / "verify-exchange5.json"))
    jobs, plans = [], {}
    for ineq in inputs:
        key = f"verify:{Path(ineq.source).stem}"
        count = VERIFY_STRATEGIES[ineq.n]
        job_seed = _derived_seed(rng)
        plans[key] = (ineq, count, job_seed)
        argv = ["verify", "--ineq", ineq.source, "--seed", str(job_seed),
                "--strategies", str(count)]
        jobs.append(Job(key, lambda argv=argv: cli_json(argv)))

    def check_round(outputs):
        problems = []
        for key, out in outputs.items():
            problems += checks.check_verify_payload(out, plans[key][1])
            if out["seed"] != plans[key][2]:
                problems.append(f"{key}: seed {out['seed']} echoed for {plans[key][2]}")
        return [f"verify: {p}" for p in problems]

    def check_once():
        """Bell values and exact success of the same seeded strategies."""
        problems = []
        for key, (ineq, _count, job_seed) in plans.items():
            program_ineq = config.load_inequality(ineq.source)
            instance = scenarios.CcpInstance(inequality=program_ineq)
            gen = np.random.Generator(np.random.PCG64(job_seed))
            for k in range(SAMPLE):
                strategy = quantum.random_strategy(program_ineq.scenario, gen, mixed=(k % 4 == 3))
                rho = strategy.state.density_matrix()
                blochs = {s: tuple(obs.bloch) for s, obs in strategy.observables.items()}
                args = (ineq.n, ineq.visibility, ineq.q, rho, blochs)
                problems += checks.check_close(
                    f"{key} strategy {k} Bell value",
                    quantum.evaluate_strategy(strategy, program_ineq), reference.bell_value(*args))
                problems += checks.check_close(
                    f"{key} strategy {k} exact success",
                    protocol.exact_success(instance, strategy), reference.exact_success(*args))
        return [f"verify: {p}" for p in problems]

    return Workload("verify", jobs, check_round, inputs, check_once=check_once)


BUILDERS = {"bounds": bounds, "optimize": optimize, "simulate": simulate, "verify": verify}
