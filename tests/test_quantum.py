"""Tests for quantum correlators, distributions, and canonical strategies."""

import math

import numpy as np
import pytest

from bellccp import (
    CcpInstance,
    NumericError,
    QuantumStrategy,
    ValidationError,
    bell_value,
    bloch_to_observable,
    canonical_strategy,
    correlator_table,
    depolarize,
    evaluate_strategy,
    exact_success,
    ghz_state,
    gyni_inequality,
    input_tuples,
    outcome_distribution,
    random_strategy,
    success_probability,
    svetlichny_inequality,
    with_visibility,
)
from bellccp.quantum import EXPERIMENT_VISIBILITY
from bellccp.qubits import PureState

import oracles


def _sigma_z_strategy(scenario):
    obs = {(i, t): bloch_to_observable((0, 0, 1))
           for i in range(1, scenario.n + 1) for t in scenario.visible_tuples(i)}
    return QuantumStrategy(scenario=scenario, state=ghz_state(scenario.n), observables=obs)


def test_all_sigma_z_correlators_vanish():
    table = correlator_table(_sigma_z_strategy(gyni_inequality().scenario))
    # Oracle: 8-dimensional kron computation gives 0 for every tuple.
    vec = oracles.ghz_vector(3)
    zzz = oracles.kron_chain([oracles.SZ] * 3)
    assert oracles.pure_expectation(vec, zzz) == pytest.approx(0.0, abs=1e-12)
    for x in input_tuples(3):
        assert table[x] == pytest.approx(0.0, abs=1e-9)


def test_maximally_mixed_correlators_vanish():
    scenario = gyni_inequality().scenario
    strategy = canonical_strategy("gyni-paper")
    noisy = QuantumStrategy(scenario=scenario, state=depolarize(ghz_state(3), 0.0),
                            observables=strategy.observables)
    assert all(e == pytest.approx(0.0, abs=1e-12) for e in correlator_table(noisy).values())


def test_bell_value_extremes():
    ineq = gyni_inequality()
    all_plus = {x: 1.0 for x in input_tuples(3)}
    assert bell_value(all_plus, ineq) == 6.0
    all_zero = {x: 0.0 for x in input_tuples(3)}
    assert bell_value(all_zero, ineq) == 0.0
    with pytest.raises(ValidationError):
        bell_value({(1, 1, 1): 1.0}, ineq)


def test_canonical_svetlichny_value():
    ineq = svetlichny_inequality()
    value = evaluate_strategy(canonical_strategy("svetlichny-paper"), ineq)
    assert value == pytest.approx(4 * math.sqrt(2), abs=1e-9)
    assert success_probability(value, ineq.gamma) == pytest.approx(
        0.5 * (1 + math.sqrt(2) / 2), abs=1e-9)


def test_canonical_gyni_value():
    ineq = gyni_inequality()
    value = evaluate_strategy(canonical_strategy("gyni-paper"), ineq)
    assert 7.3909 <= value <= 7.3911
    assert 0.9619 <= success_probability(value, ineq.gamma) <= 0.9620


def test_canonical_gyni_correlators_are_uniform():
    # Every correlator of the optimal ring strategy has magnitude close to
    # cos(pi/8) with the sign of its coefficient.
    ineq = gyni_inequality()
    table = correlator_table(canonical_strategy("gyni-paper"))
    for x in input_tuples(3):
        assert table[x] * ineq.coeffs[x] == pytest.approx(math.cos(math.pi / 8), abs=1e-3)


def test_unknown_strategy_name():
    with pytest.raises(ValidationError):
        canonical_strategy("bogus")


def test_success_probability_formula():
    assert success_probability(7.023, 8.0) == 0.9389375
    assert round(success_probability(7.023, 8.0), 4) == 0.9389
    assert success_probability(6.0, 8.0) == 0.875
    assert success_probability(0.0, 5.0) == 0.5
    with pytest.raises(ValidationError):
        success_probability(1.0, 0.0)
    with pytest.raises(NumericError):
        success_probability(10.0, 8.0)


def test_outcome_distribution_ghz_x_basis():
    scenario = gyni_inequality().scenario
    obs = {(i, t): bloch_to_observable((1, 0, 0))
           for i in range(1, 4) for t in scenario.visible_tuples(i)}
    strategy = QuantumStrategy(scenario=scenario, state=ghz_state(3), observables=obs)
    x = (1, 1, 1)
    dist = outcome_distribution(strategy, x)
    # Oracle: explicit projector products on the raw GHZ vector.
    vec = oracles.ghz_vector(3)
    for a in input_tuples(3):
        expected = oracles.outcome_probability(vec, [oracles.SX] * 3, a)
        assert dist[a] == pytest.approx(expected, abs=1e-12)
        parity = a[0] * a[1] * a[2]
        assert dist[a] == pytest.approx(0.25 if parity == 1 else 0.0, abs=1e-12)


def test_outcome_distribution_ghz_z_basis():
    dist = outcome_distribution(_sigma_z_strategy(gyni_inequality().scenario), (1, 1, 1))
    assert dist[(1, 1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(-1, -1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_maximally_mixed_is_uniform():
    strategy = canonical_strategy("gyni-paper")
    noisy = QuantumStrategy(scenario=strategy.scenario, state=depolarize(ghz_state(3), 0.0),
                            observables=strategy.observables)
    dist = outcome_distribution(noisy, (-1, 1, -1))
    for p in dist.values():
        assert p == pytest.approx(1 / 8, abs=1e-12)


def test_distribution_parity_matches_correlator():
    rng = np.random.default_rng(5)
    scenario = gyni_inequality().scenario
    for _ in range(10):
        strategy = random_strategy(scenario, rng)
        table = correlator_table(strategy)
        for x in input_tuples(3):
            dist = outcome_distribution(strategy, x)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
            parity = sum(p * np.prod(a) for a, p in dist.items())
            assert parity == pytest.approx(table[x], abs=1e-9)


def test_correlators_bounded_for_random_strategies():
    rng = np.random.default_rng(9)
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        for k in range(10):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 3 == 2))
            assert all(abs(e) <= 1 + 1e-9 for e in correlator_table(strategy).values())


def test_depolarization_scales_bell_value_linearly():
    ineq = gyni_inequality()
    strategy = canonical_strategy("gyni-paper")
    ideal = evaluate_strategy(strategy, ineq)
    for v in np.linspace(0.0, 1.0, 10):
        noisy = with_visibility(strategy, float(v))
        assert evaluate_strategy(noisy, ineq) == pytest.approx(v * ideal, abs=1e-9)


def test_correlators_invariant_under_global_phase():
    rng = np.random.default_rng(21)
    strategy = random_strategy(gyni_inequality().scenario, rng)
    phase = np.exp(1j * 0.7349)
    rotated = QuantumStrategy(scenario=strategy.scenario,
                              state=PureState(strategy.state.amplitudes * phase),
                              observables=strategy.observables)
    base = correlator_table(strategy)
    shifted = correlator_table(rotated)
    for x in input_tuples(3):
        assert shifted[x] == pytest.approx(base[x], abs=1e-12)


def test_experiment_like_preset():
    strategy = canonical_strategy("experiment-like")
    ineq = gyni_inequality()
    ideal = evaluate_strategy(canonical_strategy("gyni-paper"), ineq)
    assert evaluate_strategy(strategy, ineq) == pytest.approx(
        EXPERIMENT_VISIBILITY * ideal, abs=1e-9)


def test_incomplete_observable_map_rejected():
    scenario = gyni_inequality().scenario
    obs = {(1, t): bloch_to_observable((0, 0, 1)) for t in scenario.visible_tuples(1)}
    with pytest.raises(ValidationError):
        QuantumStrategy(scenario=scenario, state=ghz_state(3), observables=obs)


def test_observables_are_read_only_in_canonical_order():
    strategy = canonical_strategy("gyni-paper")
    ineq = gyni_inequality()
    with pytest.raises(TypeError):
        strategy.observables[(1, (1, 1))] = bloch_to_observable((0, 0, 1))
    with pytest.raises(TypeError):
        del strategy.observables[(1, (1, 1))]
    # Memoized outcome rows stay consistent with the correlators.
    implied = success_probability(evaluate_strategy(strategy, ineq), ineq.gamma)
    assert exact_success(CcpInstance(ineq), strategy) == pytest.approx(implied, abs=1e-12)
    scenario = strategy.scenario
    canonical = [(i, t) for i in range(1, 4) for t in scenario.visible_tuples(i)]
    reversed_input = dict(reversed(list(strategy.observables.items())))
    rebuilt = QuantumStrategy(scenario=scenario, state=strategy.state,
                              observables=reversed_input)
    assert list(rebuilt.observables) == canonical


def test_strategies_compare_and_hash_by_value():
    for name in ("gyni-paper", "svetlichny-paper", "experiment-like"):
        a, b = canonical_strategy(name), canonical_strategy(name)
        assert a == b
        assert hash(a) == hash(b)
    gyni = canonical_strategy("gyni-paper")
    assert len({gyni, canonical_strategy("gyni-paper"), canonical_strategy("experiment-like")}) == 2
    flipped = dict(gyni.observables)
    flipped[(3, (1, 1))] = bloch_to_observable((0.38, 0.92, 0.0))
    other = QuantumStrategy(scenario=gyni.scenario, state=gyni.state, observables=flipped)
    assert other != gyni
    # -0.0 and 0.0 Bloch entries give the same strategy.
    signed = {key: bloch_to_observable(np.where(obs.bloch == 0.0, -0.0, obs.bloch))
              for key, obs in gyni.observables.items()}
    twin = QuantumStrategy(scenario=gyni.scenario, state=gyni.state, observables=signed)
    assert twin == gyni
    assert hash(twin) == hash(gyni)
