"""Acceptance suite: the headline claims, each with its stated tolerance.

Every test prints one pass/fail line (visible with ``pytest -s`` or on
failure). Expected values were frozen from the independent reference
computations in ``oracles.py`` or are fixed target constants; the session
tests pin seed 42, chosen up front.
"""

import math
import time

import numpy as np
import pytest

from bellccp import (
    CcpInstance,
    OptimizerOptions,
    SeededPrng,
    canonical_strategy,
    ccp_exhaustive_bound,
    chsh_inequality,
    classical_bound,
    classical_success_bound,
    correlator_table,
    evaluate_strategy,
    exact_success,
    gyni_inequality,
    input_tuples,
    make_scenario,
    optimize,
    outcome_distribution,
    random_strategy,
    run_session,
    success_probability,
    svetlichny_inequality,
    with_visibility,
)
from bellccp import BellInequality

import oracles

SESSION_SEED = 42
SESSION_ROUNDS = 10100


def _report(criterion: int, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {marker} ({detail})")


def test_criterion_1_exact_classical_bounds():
    start = time.perf_counter()
    gyni_value, _ = classical_bound(gyni_inequality())
    gyni_seconds = time.perf_counter() - start
    start = time.perf_counter()
    svet_value, _ = classical_bound(svetlichny_inequality())
    svet_seconds = time.perf_counter() - start
    gyni_success = classical_success_bound(gyni_inequality())
    svet_success = classical_success_bound(svetlichny_inequality())
    ok = (gyni_value == 6 and svet_value == 4
          and gyni_success == 0.875 and svet_success == 0.75
          and gyni_seconds < 1.0 and svet_seconds < 1.0)
    _report(1, ok, f"bounds {gyni_value} and {svet_value}, success {gyni_success} and "
                   f"{svet_success}, runtimes {gyni_seconds:.3f}s and {svet_seconds:.3f}s")
    assert gyni_value == 6 and svet_value == 4
    assert gyni_success == 0.875 and svet_success == 0.75
    assert gyni_seconds < 1.0 and svet_seconds < 1.0


def test_criterion_2_canonical_quantum_values():
    start = time.perf_counter()
    svet = evaluate_strategy(canonical_strategy("svetlichny-paper"), svetlichny_inequality())
    gyni = evaluate_strategy(canonical_strategy("gyni-paper"), gyni_inequality())
    gyni_success = success_probability(gyni, 8.0)
    seconds = time.perf_counter() - start
    svet_ok = abs(svet - 4 * math.sqrt(2)) <= 1e-9
    gyni_ok = 7.3909 <= gyni <= 7.3911 and 0.9619 <= gyni_success <= 0.9620
    ok = svet_ok and gyni_ok and seconds < 1.0
    _report(2, ok, f"svetlichny {svet:.12f}, gyni {gyni:.6f}, "
                   f"success {gyni_success:.6f}, runtime {seconds:.3f}s")
    assert svet_ok
    assert gyni_ok
    assert seconds < 1.0


def test_criterion_3_optimizer_reaches_optima():
    start = time.perf_counter()
    opts = OptimizerOptions(seed=SESSION_SEED, restarts=32)
    gyni = optimize(gyni_inequality(), opts).best_value
    svet = optimize(svetlichny_inequality(), opts).best_value
    chsh = optimize(chsh_inequality(), opts).best_value
    grid = oracles.planar_grid_chsh_max(chsh_inequality().coeffs, step=0.001)
    seconds = time.perf_counter() - start
    gyni_ok = 7.3909 <= gyni <= 7.3931
    svet_ok = abs(svet - 4 * math.sqrt(2)) <= 1e-6
    chsh_ok = abs(chsh - 2 * math.sqrt(2)) <= 1e-6 and abs(chsh - grid) <= 1e-6
    ok = gyni_ok and svet_ok and chsh_ok and seconds < 30.0
    _report(3, ok, f"gyni {gyni:.6f}, svetlichny {svet:.9f}, chsh {chsh:.9f} "
                   f"(grid oracle {grid:.9f}), runtime {seconds:.1f}s")
    assert gyni_ok and svet_ok and chsh_ok
    assert seconds < 30.0


def test_criterion_4_success_identity_forward():
    rng = np.random.default_rng(SESSION_SEED)
    worst = 0.0
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        instance = CcpInstance(inequality=ineq)
        for k in range(100):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 4 == 3))
            lhs = exact_success(instance, strategy)
            rhs = success_probability(evaluate_strategy(strategy, ineq), ineq.gamma)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _report(4, ok, f"max |exact - formula| = {worst:.3e} over 200 strategies")
    assert ok


def test_criterion_5_protocol_search_tightness():
    start = time.perf_counter()
    chsh = CcpInstance(inequality=chsh_inequality())
    chsh_value = ccp_exhaustive_bound(chsh)
    formula = classical_success_bound(chsh_inequality())
    gyni = CcpInstance(inequality=gyni_inequality())
    gyni_value = ccp_exhaustive_bound(gyni, message_family="y-odd")
    seconds = time.perf_counter() - start
    ok = chsh_value == 0.75 and chsh_value == formula and gyni_value == 0.875 \
        and seconds < 120.0
    _report(5, ok, f"chsh search {chsh_value} (formula {formula}), "
                   f"gyni product-form {gyni_value}, runtime {seconds:.2f}s")
    assert chsh_value == 0.75
    assert chsh_value == formula
    assert gyni_value == 0.875
    assert seconds < 120.0


def test_criterion_6_protocol_statistics():
    start = time.perf_counter()
    instance = CcpInstance(inequality=gyni_inequality())

    ideal = run_session(instance, canonical_strategy("gyni-paper"),
                        SESSION_ROUNDS, SeededPrng(SESSION_SEED), keep_rounds=False)
    ideal_gap = abs(ideal.estimate - 0.96188)
    ideal_ok = ideal_gap <= 3 * ideal.std_error

    noisy = run_session(instance, canonical_strategy("experiment-like"),
                        SESSION_ROUNDS, SeededPrng(SESSION_SEED), keep_rounds=False)
    # The 0.9310 anchor is itself a 9403-of-10100 count, so the comparison
    # sigma combines both binomial standard errors.
    anchor = 9403 / 10100
    anchor_sigma = math.sqrt(anchor * (1 - anchor) / 10100)
    combined_sigma = math.sqrt(anchor_sigma**2 + noisy.std_error**2)
    noisy_gap = abs(noisy.estimate - 0.9310)
    noisy_ok = noisy_gap <= 3 * combined_sigma

    formula = success_probability(7.023, 8.0)
    formula_ok = round(formula, 4) == 0.9389
    seconds = time.perf_counter() - start
    ok = ideal_ok and noisy_ok and formula_ok and seconds < 60.0
    _report(6, ok,
            f"ideal {ideal.estimate:.5f} vs 0.96188 (gap {ideal_gap:.5f}, "
            f"3se {3 * ideal.std_error:.5f}); noisy {noisy.estimate:.5f} vs 0.9310 "
            f"(gap {noisy_gap:.5f}, 3 combined sigma {3 * combined_sigma:.5f}, "
            f"3 session-only sigma {3 * noisy.std_error:.5f}); "
            f"formula {formula:.7f}; runtime {seconds:.2f}s")
    assert ideal_ok
    assert noisy_ok
    assert formula_ok
    assert seconds < 60.0


def _random_three_party_scenario(rng, max_extra=1):
    visibility = []
    for i in range(1, 4):
        others = [j for j in range(1, 4) if j != i]
        rng.shuffle(others)
        visibility.append((i, *others[:int(rng.integers(0, max_extra + 1))]))
    return make_scenario(3, visibility)


def _random_table(rng, scenario):
    coeffs = {}
    while not any(coeffs.values()):
        coeffs = {x: int(rng.integers(-3, 4)) for x in input_tuples(scenario.n)}
    return coeffs


def test_criterion_7_property_suites():
    rng = np.random.default_rng(SESSION_SEED)
    checks = []

    # correlator bounds and outcome distributions on random strategies
    bound_ok = True
    dist_ok = True
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        for k in range(10):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 3 == 2))
            table = correlator_table(strategy)
            bound_ok &= all(abs(e) <= 1 + 1e-9 for e in table)
            for x in input_tuples(3):
                dist = outcome_distribution(strategy, x)
                dist_ok &= all(p >= 0.0 for p in dist)
                dist_ok &= abs(sum(dist) - 1.0) <= 1e-9
    checks.append(("correlator bounds", bound_ok))
    checks.append(("outcome distributions", dist_ok))

    # depolarization linearity on a 10-point grid
    ineq = gyni_inequality()
    strategy = canonical_strategy("gyni-paper")
    ideal_value = evaluate_strategy(strategy, ineq)
    linear_ok = all(
        abs(evaluate_strategy(with_visibility(strategy, float(v)), ineq) - v * ideal_value)
        <= 1e-9
        for v in np.linspace(0.0, 1.0, 10))
    checks.append(("depolarization linearity", linear_ok))

    # see-saw monotone trace
    result = optimize(ineq, OptimizerOptions(seed=SESSION_SEED, restarts=8))
    trace = np.array(result.value_trace)
    checks.append(("seesaw trace monotone", bool(np.all(np.diff(trace) >= -1e-12))))

    # classical-bound monotonicity on 20 random structures
    monotone_ok = True
    tested = 0
    while tested < 20:
        scenario = _random_three_party_scenario(rng)
        coeffs = _random_table(rng, scenario)
        party = int(rng.integers(1, 4))
        missing = [j for j in range(1, 4) if j not in scenario.visibility[party - 1]]
        if not missing:
            continue
        base = BellInequality(scenario=scenario, coeffs=coeffs)
        enlarged_vis = list(scenario.visibility)
        enlarged_vis[party - 1] = (*enlarged_vis[party - 1], missing[0])
        enlarged = BellInequality(scenario=make_scenario(3, enlarged_vis), coeffs=coeffs)
        monotone_ok &= classical_bound(enlarged)[0] >= classical_bound(base)[0]
        tested += 1
    checks.append(("visibility monotonicity", monotone_ok))

    # full visibility saturates Gamma on 20 random tables
    full = make_scenario(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    gamma_ok = True
    for _ in range(20):
        ineq_full = BellInequality(scenario=full, coeffs=_random_table(rng, full))
        gamma_ok &= classical_bound(ineq_full)[0] == ineq_full.gamma
    checks.append(("full visibility saturates Gamma", gamma_ok))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    _report(7, ok, detail)
    assert ok, detail
