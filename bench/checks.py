"""Correctness checks on the program's outputs.

Every check returns a list of problems; an empty list means the output
passed. Expected values come from ``reference.py`` or from properties the
method must have, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import reference

KNOWN_BOUNDS = {"gyni": 6, "svetlichny": 4, "chsh": 2}

# Windows of the acceptance suite for the named optima.
OPTIMUM_WINDOWS = {
    "gyni": (7.3909, 7.3931),
    "svetlichny": (reference.SVETLICHNY_OPTIMUM - 1e-6, reference.SVETLICHNY_OPTIMUM + 1e-6),
    "chsh": (reference.CHSH_OPTIMUM - 1e-6, reference.CHSH_OPTIMUM + 1e-6),
}
IDEAL_OPTIMA = {"gyni": reference.GYNI_OPTIMUM, "svetlichny": reference.SVETLICHNY_OPTIMUM,
                "chsh": reference.CHSH_OPTIMUM}

IDENTITY_TOL = 1e-12    # float arithmetic on the success identity
NOISE_TOL = 1e-6        # value at visibility v against v times the ideal optimum
STATE_TOL = 1e-9        # state optimization may not lose against the fixed state
THEOREM_TOL = 1e-9      # verify's deviation and the sampled Bell values
SIGMAS = 5              # session estimates against the exact success


def check_bound(bound, gamma, name=None, reference_bound=None) -> list[str]:
    problems = []
    if not isinstance(bound, int):
        problems.append(f"bound {bound!r} is not an integer")
        return problems
    if name in KNOWN_BOUNDS and bound != KNOWN_BOUNDS[name]:
        problems.append(f"{name} bound {bound}, expected {KNOWN_BOUNDS[name]}")
    if reference_bound is not None and bound != reference_bound:
        problems.append(f"bound {bound} differs from the odometer's {reference_bound}")
    if (bound - gamma) % 2:
        problems.append(f"bound {bound} does not have the parity of Gamma {gamma}")
    if abs(bound) > gamma:
        problems.append(f"|bound| {abs(bound)} exceeds Gamma {gamma}")
    return problems


def check_success_bound(success, bound, gamma) -> list[str]:
    expected = 0.5 + bound / (2 * gamma)
    if abs(success - expected) > IDENTITY_TOL:
        return [f"success {success} != 1/2 + {bound}/(2*{gamma}) = {expected}"]
    return []


def check_optimize_payload(payload, gamma, name=None) -> list[str]:
    value = payload["best_value"]
    problems = []
    if abs(value) > gamma + IDENTITY_TOL:
        problems.append(f"value {value} exceeds Gamma {gamma}")
    if abs(payload["best_value_normalized"] - value / gamma) > IDENTITY_TOL:
        problems.append("normalized value is not value / Gamma")
    problems += check_success_bound(payload["success_probability"], value, gamma)
    if payload["sweeps_used"] < 1:
        problems.append(f"sweeps_used {payload['sweeps_used']} < 1")
    if name in OPTIMUM_WINDOWS:
        low, high = OPTIMUM_WINDOWS[name]
        if not low <= value <= high:
            problems.append(f"{name} optimum {value} outside [{low}, {high}]")
    return problems


def check_noisy_optimum(value, name, visibility) -> list[str]:
    expected = visibility * IDEAL_OPTIMA[name]
    if abs(value - expected) > NOISE_TOL:
        return [f"{name} at v={visibility}: {value}, expected {expected}"]
    return []


def check_state_optimum(state_value, fixed_value) -> list[str]:
    if state_value < fixed_value - STATE_TOL:
        return [f"state-optimized value {state_value} below fixed-state {fixed_value}"]
    return []


def check_session(summary, rounds, exact_p, replay_successes=None) -> list[str]:
    problems = []
    if summary["rounds"] != rounds:
        problems.append(f"session played {summary['rounds']} rounds, asked {rounds}")
    if abs(summary["estimate"] - summary["successes"] / rounds) > IDENTITY_TOL:
        problems.append("estimate is not successes / rounds")
    sigma = max(math.sqrt(exact_p * (1 - exact_p) / rounds), 1 / rounds)
    if abs(summary["estimate"] - exact_p) > SIGMAS * sigma:
        problems.append(f"estimate {summary['estimate']} is more than {SIGMAS} standard "
                        f"errors from the exact success {exact_p}")
    if replay_successes is not None and summary["successes"] != replay_successes:
        problems.append(f"{summary['successes']} successes, the replay of the same "
                        f"draws gives {replay_successes}")
    return problems


def check_session_log(records, replay, successes, q) -> list[str]:
    """JSONL round records: invariants, replayed draws, and the pass count."""
    if len(records) != len(replay["passes"]):
        return [f"{len(records)} records for {len(replay['passes'])} rounds"]
    problems = []
    passes = 0
    for k, rec in enumerate(records):
        x, y, a, m = rec["x"], rec["y"], rec["a"], rec["m"]
        bad = []
        if any(m_i != y_i * a_i for m_i, y_i, a_i in zip(m, y, a)):
            bad.append("m != y*a")
        if rec["guess"] != math.prod(m):
            bad.append("guess != prod(m)")
        if rec["pass"] != (rec["guess"] == rec["f_value"]):
            bad.append("pass != (guess == f)")
        index = reference.tuples(len(x)).index(tuple(x))
        if rec["f_value"] != math.prod(y) * (-1 if q[index] < 0 else 1):
            bad.append("f != prod(y) sign(Q(x))")
        if (x != replay["x"][k].tolist() or y != replay["y"][k].tolist()
                or a != replay["a"][k].tolist()):
            bad.append("x, y or a differ from the replayed draws")
        if bad:
            problems.append(f"record {k}: {', '.join(bad)}")
            if len(problems) >= 5:
                break
        passes += bool(rec["pass"])
    if not problems and passes != successes:
        problems.append(f"passes sum to {passes}, the summary reports {successes}")
    return problems


def check_verify_payload(payload, strategies) -> list[str]:
    problems = []
    if payload["strategies"] != strategies:
        problems.append(f"verified {payload['strategies']} strategies, asked {strategies}")
    if payload["ok"] is not True:
        problems.append("verify reports ok = false")
    if not 0 <= payload["max_deviation"] <= THEOREM_TOL:
        problems.append(f"max_deviation {payload['max_deviation']} above {THEOREM_TOL}")
    return problems


def check_close(label, value, expected, tol=THEOREM_TOL) -> list[str]:
    if abs(value - expected) > tol:
        return [f"{label}: {value}, reference {expected}"]
    return []
