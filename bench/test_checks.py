"""The benchmark's own checks must reject wrong answers.

Run with: python3 -m pytest bench/test_checks.py
"""

import math

import numpy as np

import checks
import reference

CHSH_VIS = [(1,), (2,)]
CHSH_Q = [1, 1, 1, -1]
GYNI_VIS = [(1, 3), (2, 1), (3, 2)]
GYNI_Q = [-1, 1, 1, 1, 1, 1, 1, 1]
SVETLICHNY_VIS = [(1, 2), (2, 1), (3,)]
SVETLICHNY_Q = [-1, 1, 1, 1, 1, 1, 1, -1]


def chsh_optimal_blochs():
    # Planar observables on GHZ(2) give E = cos(a + b); these angles attain 2 sqrt(2).
    angle = {(1, (-1,)): 0.0, (1, (1,)): math.pi / 2,
             (2, (-1,)): -math.pi / 4, (2, (1,)): math.pi / 4}
    return {key: (math.cos(t), math.sin(t), 0.0) for key, t in angle.items()}


def test_odometer_reproduces_the_known_bounds():
    assert reference.odometer_bound(2, CHSH_VIS, CHSH_Q) == 2
    assert reference.odometer_bound(3, GYNI_VIS, GYNI_Q) == 6
    assert reference.odometer_bound(3, SVETLICHNY_VIS, SVETLICHNY_Q) == 4


def test_reference_bell_value_and_success_identity():
    rho = reference.density(reference.ghz(2))
    blochs = chsh_optimal_blochs()
    value = reference.bell_value(2, CHSH_VIS, CHSH_Q, rho, blochs)
    assert abs(value - reference.CHSH_OPTIMUM) < 1e-12
    success = reference.exact_success(2, CHSH_VIS, CHSH_Q, rho, blochs)
    assert abs(success - (0.5 + value / 8)) < 1e-12


def test_bound_checks_reject_wrong_bounds():
    assert checks.check_bound(6, 8, "gyni", 6) == []
    assert checks.check_bound(8, 8, "gyni")                      # off by 2: known value
    assert checks.check_bound(27, 29, None, 25)                  # off by 2: odometer
    assert checks.check_bound(26, 29, None)                      # wrong parity
    assert checks.check_bound(31, 29, None)                      # above Gamma
    assert checks.check_success_bound(0.875, 6, 8) == []
    assert checks.check_success_bound(0.875 + 1e-9, 6, 8)


def test_optimum_checks_reject_small_errors():
    good = {"best_value": reference.SVETLICHNY_OPTIMUM, "sweeps_used": 3,
            "best_value_normalized": reference.SVETLICHNY_OPTIMUM / 8,
            "success_probability": 0.5 + reference.SVETLICHNY_OPTIMUM / 16}
    assert checks.check_optimize_payload(good, 8, "svetlichny") == []
    for name, optimum, gamma in (("svetlichny", reference.SVETLICHNY_OPTIMUM, 8),
                                 ("chsh", reference.CHSH_OPTIMUM, 4)):
        off = optimum + 1e-5
        wrong = {"best_value": off, "best_value_normalized": off / gamma,
                 "success_probability": 0.5 + off / (2 * gamma), "sweeps_used": 3}
        assert checks.check_optimize_payload(wrong, gamma, name)
    assert checks.check_optimize_payload(dict(good, best_value_normalized=0.8), 8)
    assert checks.check_noisy_optimum(0.9 * reference.GYNI_OPTIMUM, "gyni", 0.9) == []
    assert checks.check_noisy_optimum(0.9 * reference.GYNI_OPTIMUM + 1e-5, "gyni", 0.9)
    assert checks.check_state_optimum(7.0, 7.0) == []
    assert checks.check_state_optimum(7.0 - 1e-6, 7.0)


def _chsh_session(rounds=64, seed=3):
    rho = reference.density(reference.ghz(2))
    replay = reference.replay_session(2, CHSH_VIS, CHSH_Q, rho, chsh_optimal_blochs(),
                                      *reference.prng_draws(seed, rounds, 2))
    records = []
    for x, y, a in zip(replay["x"].tolist(), replay["y"].tolist(), replay["a"].tolist()):
        m = [y_i * a_i for y_i, a_i in zip(y, a)]
        f = math.prod(y) * (-1 if CHSH_Q[reference.tuples(2).index(tuple(x))] < 0 else 1)
        records.append({"x": x, "y": y, "a": a, "m": m, "guess": math.prod(m),
                        "f_value": f, "pass": math.prod(m) == f})
    return records, replay


def test_session_log_check_rejects_a_flipped_pass():
    records, replay = _chsh_session()
    assert checks.check_session_log(records, replay, replay["successes"], CHSH_Q) == []
    flipped = [dict(r) for r in records]
    flipped[5]["pass"] = not flipped[5]["pass"]
    assert checks.check_session_log(flipped, replay, replay["successes"], CHSH_Q)
    bad_message = [dict(r) for r in records]
    bad_message[7]["m"] = [-v for v in bad_message[7]["m"]]
    assert checks.check_session_log(bad_message, replay, replay["successes"], CHSH_Q)
    assert checks.check_session_log(records, replay, replay["successes"] + 1, CHSH_Q)


def test_session_check_rejects_estimates_and_counts_off():
    p, rounds = 0.85, 10000
    sigma = math.sqrt(p * (1 - p) / rounds)
    successes = round(p * rounds)
    summary = {"rounds": rounds, "successes": successes, "estimate": successes / rounds}
    assert checks.check_session(summary, rounds, p, successes) == []
    assert checks.check_session(summary, rounds, p, successes + 1)
    far = round((p + 6 * sigma) * rounds)
    assert checks.check_session(
        {"rounds": rounds, "successes": far, "estimate": far / rounds}, rounds, p)


def test_bit_draws_use_the_documented_stride():
    rounds, n = 8, 3
    data = np.random.default_rng(0).bytes(rounds * (53 + n + 53) // 8)
    x_u, y_bits, a_u = reference.bit_draws(data, rounds, n)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    second = bits[109:]
    assert x_u[1] == int("".join(map(str, second[:53])), 2) / 2**53
    assert y_bits[1].tolist() == second[53:56].tolist()
    assert a_u[1] == int("".join(map(str, second[56:109])), 2) / 2**53


def test_verify_check_rejects_deviation_above_tolerance():
    good = {"strategies": 40, "max_deviation": 2e-16, "ok": True}
    assert checks.check_verify_payload(good, 40) == []
    assert checks.check_verify_payload(dict(good, max_deviation=2e-9), 40)
    assert checks.check_verify_payload(dict(good, ok=False), 40)
    assert checks.check_verify_payload(good, 41)
    assert checks.check_close("value", 1.0, 1.0 + 5e-10) == []
    assert checks.check_close("value", 1.0, 1.0 + 2e-9)
