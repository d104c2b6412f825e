"""bellccp benchmark: one workload per run, one process, one thread.

    python3 bench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, runs one untimed warm-up round,
then runs whole rounds of the workload's fixed job list until --seconds
have passed. Every round's outputs are checked. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs whole passes
(one untraced round of the named workload, then one traced round of every
workload) until --seconds have passed, and reports the per-layer metrics,
including the tracing overhead on the named workload. The spans are
written to bench/results/trace-<workload>.json. See bench/README.md.
"""

from __future__ import annotations

import os

# One thread: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 5
PROBE_REPEATS = 3
RETAINED_ROUNDS = 20000

# A fresh interpreter: import bellccp, then load the workload's inputs.
_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import bellccp
imported = time.perf_counter() - start
from bellccp import config
spec = json.loads(sys.argv[2])
for source in spec["inequalities"]:
    config.load_inequality(source)
for name in spec["strategies"]:
    config.load_strategy(name, None)
print(imported)
"""


def _import_program():
    """Import bellccp from this checkout's src/, and from nowhere else."""
    if not (SRC / "bellccp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bellccp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellccp
    if Path(bellccp.__file__).resolve().parent != SRC / "bellccp":
        raise SystemExit(f"bench: imported bellccp from {bellccp.__file__}, not {SRC}")


def setup_spec(workload) -> str:
    return json.dumps({"inequalities": [i.source for i in workload.inequalities],
                       "strategies": workload.strategies})


def measure_setup(spec: str) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports bellccp and loads the
    workload's inputs, and the import time measured inside it."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), spec],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"bench: set-up interpreter failed:\n{done.stderr}")
    return wall, float(done.stdout.strip().splitlines()[-1])


# The host has machine-wide slow phases: for seconds, sometimes minutes, at a
# time every job runs 1.5 to 2.3 times slower, in CPU time as in wall time.
# A fixed calibration loop slows with them, so every job and every set-up
# sample is timed between two runs of it and reported as its duration over
# the loop's mean duration, times CALIBRATION_S: seconds at the speed at
# which the loop takes CALIBRATION_S, its best time on the reference host.
CALIBRATION_S = 4.5e-3
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def calibration() -> float:
    """Duration of a fixed mix of tuple/dict work and small Kronecker products."""
    start = time.perf_counter()
    table: dict[tuple, int] = {}
    for i in range(2000):
        key = (i & 1, i & 2, i & 4)
        table[key] = table.get(key, 0) + i
    m = np.eye(8, dtype=complex)
    for _ in range(100):
        m = np.kron(_SIGMA_X, np.kron(_SIGMA_X, _SIGMA_X)) @ m
    return time.perf_counter() - start


def calibrated_setup(spec: str) -> float:
    before = calibration()
    wall, _ = measure_setup(spec)
    return CALIBRATION_S * wall / ((before + calibration()) / 2)


class Runner:
    """Runs rounds, counts jobs, and collects check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, workload, costs: dict[str, list[float]], tracer=None) -> None:
        """One pass over the job list; appends each job's calibrated time."""
        from workloads import JobFailed
        gc.collect()
        outputs = {}
        previous = calibration()
        for job in workload.jobs:
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    outputs[job.key] = job.run()
                else:
                    outputs[job.key] = tracer.job(workload.name, job.key, job.run)
            except JobFailed as exc:
                self.failed += 1
                print(f"bench: job failed: {exc}", file=sys.stderr)
                continue
            duration = time.perf_counter() - start
            following = calibration()
            costs.setdefault(job.key, []).append(
                CALIBRATION_S * duration / ((previous + following) / 2))
            previous = following
        self.problems += workload.check_round(outputs)


def job_medians(costs: dict[str, list[float]]) -> list[float]:
    return [statistics.median(values) for values in costs.values()]


def end_to_end(workload, seconds: float, runner: Runner) -> dict:
    """Timed rounds until ``seconds`` have passed.

    wall_s sums each job's median calibrated time over the job list, and
    job_p50_ms is the median of those. Set-up samples are taken between
    rounds, so their median spans the run.
    """
    spec = setup_spec(workload)
    setups = [calibrated_setup(spec) for _ in range(2)]
    runner.round(workload, {})                   # warm-up, checked, not timed
    runner.problems += workload.check_once()
    runner.attempted = runner.failed = 0
    costs: dict[str, list[float]] = {}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        runner.round(workload, costs)
        setups.append(calibrated_setup(spec))
        rounds += 1
    per_job = job_medians(costs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": sum(per_job),
        "job_p50_ms": 1e3 * statistics.median(per_job),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def _probes(built: dict, workdir: Path, seed: int) -> dict:
    """Layer timings measured by calling public functions directly."""
    from bellccp import (BellInequality, BitFileSource, CcpInstance, SeededPrng,
                         canonical_strategy, gyni_inequality, make_scenario, run_session)
    import reference

    builds = []
    for workload in built.values():
        for ineq in workload.inequalities:
            coeffs = dict(zip(reference.tuples(ineq.n), ineq.q))
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                BellInequality(scenario=make_scenario(ineq.n, ineq.visibility), coeffs=coeffs)
                builds.append(time.perf_counter() - start)

    rates = []
    n = 3
    for _ in range(PROBE_REPEATS):
        source = BitFileSource(workdir / "simulate" / "bits.bin")
        rounds = source.bits_total // (53 + n + 53)
        start = time.perf_counter()
        for _ in range(rounds):
            source.uniform()
            for _ in range(n):
                source.bit()
            source.uniform()
        rates.append(source.cursor / (time.perf_counter() - start))

    instance = CcpInstance(inequality=gyni_inequality())
    strategy = canonical_strategy("gyni-paper")
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    log = run_session(instance, strategy, RETAINED_ROUNDS, SeededPrng(seed))
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del log
    return {
        "scenarios.build_ms": 1e3 * statistics.median(builds),
        "randomness.file_bits_per_s": statistics.median(rates),
        "protocol.retained_mb": retained / 1e6 * (1e5 / RETAINED_ROUNDS),
    }


def per_layer(name: str, built: dict, workdir: Path, seed: int, seconds: float,
              runner: Runner) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import NAMES

    named = built[name]
    spec = setup_spec(named)
    import_s = statistics.median(measure_setup(spec)[1] for _ in range(SETUP_REPEATS))
    runner.round(named, {})                      # warm-up, checked, not traced
    runner.attempted = runner.failed = 0
    tracer = Tracer()
    traced: dict[str, list[float]] = {}
    untraced: dict[str, list[float]] = {}
    passes = 0
    deadline = time.perf_counter() + seconds
    # The named workload's untraced and traced rounds run back to back.
    order = [name] + [other for other in NAMES if other != name]
    while passes == 0 or time.perf_counter() < deadline:
        runner.round(named, untraced)
        tracer.install()
        try:
            for workload_name in order:
                runner.round(built[workload_name],
                             traced if workload_name == name else {}, tracer)
        finally:
            tracer.uninstall()
        # Kept spans would make every later full collection slower, in traced
        # and untraced rounds and calibration loops alike; keep them out of it.
        gc.freeze()
        passes += 1
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{name}.json")
    values = layer_metrics(tracer.spans, passes)
    values.update(_probes(built, workdir, seed))
    values["setup.import_ms"] = 1e3 * import_s
    values["trace.overhead_pct"] = 100 * (sum(job_medians(traced)) / sum(job_medians(untraced)) - 1)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounds", "optimize", "simulate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    workdir = BENCH / ".work" / f"{args.workload}-{args.trace}-{os.getpid()}"
    try:
        names = workloads.NAMES if args.trace else (args.workload,)
        built = {}
        for name in names:
            (workdir / name).mkdir(parents=True)
            built[name] = workloads.BUILDERS[name](args.seed, workdir / name)
        runner = Runner()
        if args.trace:
            metrics = per_layer(args.workload, built, workdir, args.seed, args.seconds, runner)
        else:
            metrics = end_to_end(built[args.workload], args.seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
