"""Command-line front end.

Subcommands: bound, optimize, eval, simulate, verify, report. Output is
JSON on stdout (or --out); eval can emit the correlator table as CSV.
Exit codes: 0 success, 1 validation/usage error, 2 numeric error.
Randomized subcommands refuse to run without an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import config as cfg
from .classical import classical_bound
from .errors import NumericError, RandomnessExhaustedError, ValidationError
from .protocol import exact_success, run_session, write_session_log
from .quantum import (
    EXPERIMENT_VISIBILITY,
    bell_value,
    canonical_strategy,
    correlator_table,
    evaluate_strategy,
    random_strategy,
    success_probability,
    with_visibility,
)
from .qubits import depolarize, ghz_state
from .randomness import BitFileSource, SeededPrng, beacon_load
from .scenarios import CcpInstance, input_tuples
from .seesaw import OptimizerOptions, optimize

THEOREM_TOLERANCE = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise ValidationError(f"{message}\n{self.format_usage()}".rstrip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellccp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strategy=False, noise=False):
        p.add_argument("--ineq", required=True, help="inequality name or config path")
        if strategy:
            p.add_argument("--strategy", required=True, help="strategy preset or config path")
        if noise:
            p.add_argument("--noise-v", type=float, default=None,
                           help="depolarize the (pure) state at this visibility")
        # simulate prints its summary either way; its --out names the session log.
        out_help = ("write the session log (JSON lines) here; the summary stays on stdout"
                    if p.prog.endswith(" simulate") else "write output here instead of stdout")
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration (to --out if given) and exit")

    p = sub.add_parser("bound", help="exact classical bound by enumeration")
    common(p)

    p = sub.add_parser("optimize", help="variational maximization of the value")
    common(p, noise=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--optimize-state", action="store_true")

    p = sub.add_parser("eval", help="value and success probability of a strategy")
    common(p, strategy=True, noise=True)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv prints the correlator table instead")

    p = sub.add_parser("simulate", help="run protocol rounds and report statistics")
    common(p, strategy=True, noise=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--randomness", default="prng",
                   help="prng | file:PATH | beacon:URL_or_path")
    p.add_argument("--beacon-cache", default="beacon-records-cache.txt",
                   help="cache file for fetched beacon records")

    p = sub.add_parser("verify", help="check success = 1/2 + B/(2 Gamma) on random strategies")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategies", type=int, default=100)

    p = sub.add_parser("report", help="reproduce the headline numbers table")
    p.add_argument("--out", default=None)
    return parser


_PARSER = _build_parser()

# Parsed arguments that name inputs or outputs; every other one is an echoed option.
_NOT_OPTIONS = ("command", "ineq", "strategy", "out", "dump_config")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValidationError(f"{args.command} is randomized; an explicit --seed is required")
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _resolve_inputs(args):
    """The subcommand's (inequality, strategy), each None where it takes none."""
    noise_v = getattr(args, "noise_v", None)
    if noise_v is not None and not 0.0 <= noise_v <= 1.0:
        raise ValidationError(f"--noise-v must lie in [0, 1], got {noise_v}")
    if not hasattr(args, "ineq"):
        return None, None
    ineq = cfg.load_inequality(args.ineq)
    if not hasattr(args, "strategy"):
        return ineq, None
    strategy = cfg.load_strategy(args.strategy, ineq.scenario)
    if noise_v is not None:
        strategy = with_visibility(strategy, noise_v)
    return ineq, strategy


def _config_echo(args, ineq, strategy) -> dict:
    """The resolved inputs in the schema they load from, plus every option with a value."""
    doc = {"command": args.command, "inequality": cfg.inequality_to_config(ineq)}
    if strategy is not None:
        doc["strategy"] = cfg.strategy_to_config(strategy)
    doc["options"] = {key: value for key, value in vars(args).items()
                      if key not in _NOT_OPTIONS and value is not None}
    return doc


def _cmd_bound(args, ineq, strategy) -> int:
    value, _witness = classical_bound(ineq)
    payload = {"classical_bound": value, "success_bound": success_probability(value, ineq.gamma)}
    _emit(json.dumps(payload), args.out)
    return 0


def _cmd_optimize(args, ineq, strategy) -> int:
    seed = _require_seed(args)
    opts = OptimizerOptions(seed=seed, restarts=args.restarts, tol=args.tol,
                            max_sweeps=args.max_sweeps, optimize_state=args.optimize_state)
    state = ghz_state(ineq.scenario.n)
    if args.noise_v is not None:
        state = depolarize(state, args.noise_v)
    result = optimize(ineq, opts, initial_state=state)
    payload = {
        "best_value": result.best_value,
        "best_value_normalized": result.best_value / ineq.gamma,
        "success_probability": success_probability(result.best_value, ineq.gamma),
        "sweeps_used": result.sweeps_used,
        "restarts": args.restarts,
        "seed": seed,
    }
    _emit(json.dumps(payload), args.out)
    return 0


def _correlator_csv(ineq, table) -> str:
    n = ineq.n
    lines = [",".join([f"x_{i}" for i in range(1, n + 1)] + ["E"])]
    for x in input_tuples(n):
        lines.append(",".join([str(v) for v in x] + [f"{table[x]:.12g}"]))
    return "\n".join(lines)


def _cmd_eval(args, ineq, strategy) -> int:
    table = correlator_table(strategy)
    value = bell_value(table, ineq)
    if args.format == "csv":
        _emit(_correlator_csv(ineq, table), args.out)
        return 0
    payload = {
        "bell_value": value,
        "bell_value_normalized": value / ineq.gamma,
        "success_probability": success_probability(value, ineq.gamma),
    }
    _emit(json.dumps(payload), args.out)
    return 0


def _make_source(args):
    spec = args.randomness
    if spec == "prng":
        return SeededPrng(_require_seed(args))
    if spec.startswith("file:"):
        return BitFileSource(spec[len("file:"):])
    if spec.startswith("beacon:"):
        return beacon_load(spec[len("beacon:"):], cache_path=args.beacon_cache)
    raise ValidationError(f"unknown randomness source {spec!r}; "
                          "use prng, file:PATH, or beacon:URL_or_path")


def _cmd_simulate(args, ineq, strategy) -> int:
    if args.rounds < 1:
        raise ValidationError(f"--rounds must be at least 1, got {args.rounds}")
    instance = CcpInstance(inequality=ineq)
    source = _make_source(args)
    log = run_session(instance, strategy, args.rounds, source, keep_rounds=bool(args.out),
                      config=_config_echo(args, ineq, strategy))
    if args.out:
        write_session_log(log, args.out)
    print(json.dumps(log.summary()))
    return 0


def _cmd_verify(args, ineq, strategy) -> int:
    seed = _require_seed(args)
    if args.strategies < 1:
        raise ValidationError(f"--strategies must be at least 1, got {args.strategies}")
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = CcpInstance(inequality=ineq)
    worst = 0.0
    for k in range(args.strategies):
        strategy = random_strategy(ineq.scenario, rng, mixed=(k % 4 == 3))
        lhs = exact_success(instance, strategy)
        rhs = success_probability(evaluate_strategy(strategy, ineq), ineq.gamma)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= THEOREM_TOLERANCE
    payload = {"strategies": args.strategies, "max_deviation": worst,
               "tolerance": THEOREM_TOLERANCE, "ok": ok, "seed": seed}
    _emit(json.dumps(payload), args.out)
    if not ok:
        raise NumericError(f"success identity violated by {worst}")
    return 0


def _cmd_report(args, _ineq, _strategy) -> int:
    payload = {}
    for name in ("gyni", "svetlichny"):
        ineq = cfg.load_inequality(name)
        bound, _ = classical_bound(ineq)
        strategy = canonical_strategy(f"{name}-paper")
        value = evaluate_strategy(strategy, ineq)
        payload[name] = {
            "classical_bound": bound,
            "classical_success_bound": success_probability(bound, ineq.gamma),
            "quantum_value": value,
            "quantum_success": success_probability(value, ineq.gamma),
        }
    payload["experiment"] = {
        "reference_bell_value": 7.023,
        "success_probability": success_probability(7.023, 8.0),
        "visibility_preset": EXPERIMENT_VISIBILITY,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


_COMMANDS = {
    "bound": _cmd_bound,
    "optimize": _cmd_optimize,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        ineq, strategy = _resolve_inputs(args)
        if getattr(args, "dump_config", False):
            _emit(json.dumps(_config_echo(args, ineq, strategy), indent=2), args.out)
            return 0
        return _COMMANDS[args.command](args, ineq, strategy)
    except (ValidationError, RandomnessExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
