"""Tests for the coordinate-ascent optimizer and state updates."""

import math

import numpy as np
import pytest

from bellccp import (
    BellInequality,
    OptimizerOptions,
    ValidationError,
    canonical_strategy,
    classical_bound,
    depolarize,
    evaluate_strategy,
    ghz_state,
    gyni_inequality,
    chsh_inequality,
    input_tuples,
    make_scenario,
    optimal_state,
    optimize,
    seesaw_measurements,
    svetlichny_inequality,
)
from bellccp.qubits import MixedState, pauli_tensor
from bellccp.quantum import correlations, random_bloch_tables
from bellccp.seesaw import DEGENERATE_GRADIENT, _Restarts, _restart_streams, bell_operator

import oracles


def test_options_validation():
    with pytest.raises(ValidationError):
        OptimizerOptions(seed=1, restarts=0)
    with pytest.raises(ValidationError):
        OptimizerOptions(seed=1, tol=0.0)
    for tol in (math.nan, math.inf, -math.inf, "1e-12"):
        with pytest.raises(ValidationError, match="tol"):
            OptimizerOptions(seed=1, tol=tol)
    for name in ("restarts", "max_sweeps"):
        for value in (2.5, 2.0, math.nan, "2"):
            with pytest.raises(ValidationError, match=name):
                OptimizerOptions(seed=1, **{name: value})
    # A seed that is not a non-negative integer would draw OS entropy or fail in numpy.
    for seed in (None, 1.5, -1, "1"):
        with pytest.raises(ValidationError, match="seed"):
            OptimizerOptions(seed=seed)
    assert type(OptimizerOptions(seed=np.int64(3)).seed) is int


def test_seesaw_reaches_known_optima():
    opts = OptimizerOptions(seed=42)
    gyni = optimize(gyni_inequality(), opts)
    assert 7.3909 <= gyni.best_value <= 7.3931
    svet = optimize(svetlichny_inequality(), opts)
    assert svet.best_value == pytest.approx(4 * math.sqrt(2), abs=1e-6)
    chsh = optimize(chsh_inequality(), opts)
    assert chsh.best_value == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def test_chsh_matches_planar_grid_oracle():
    grid_max = oracles.planar_grid_chsh_max(chsh_inequality().coeffs)
    assert grid_max == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    result = optimize(chsh_inequality(), OptimizerOptions(seed=3))
    assert result.best_value == pytest.approx(grid_max, abs=1e-6)


def test_value_trace_monotone_and_consistent():
    for ineq in (gyni_inequality(), svetlichny_inequality(), chsh_inequality()):
        result = optimize(ineq, OptimizerOptions(seed=8, restarts=6))
        trace = np.array(result.value_trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert result.best_value == trace[-1]
        assert evaluate_strategy(result.strategy, ineq) == pytest.approx(
            result.best_value, abs=1e-9)
        assert result.best_value <= ineq.gamma + 1e-9


def test_determinism():
    opts = OptimizerOptions(seed=123, restarts=5)
    first = optimize(gyni_inequality(), opts)
    second = optimize(gyni_inequality(), opts)
    assert first.value_trace == second.value_trace
    assert first.best_value == second.best_value
    different = optimize(gyni_inequality(), OptimizerOptions(seed=124, restarts=5))
    assert different.value_trace != first.value_trace


def test_seesaw_on_mixed_state():
    ineq = gyni_inequality()
    from bellccp import depolarize

    state = depolarize(ghz_state(3), 0.5)
    result = seesaw_measurements(ineq, state, OptimizerOptions(seed=4, restarts=8))
    ideal = optimize(ineq, OptimizerOptions(seed=4, restarts=8)).best_value
    assert result.best_value == pytest.approx(0.5 * ideal, abs=1e-6)


def test_optimal_state_gyni_returns_ghz_like_vector():
    ineq = gyni_inequality()
    state, value = optimal_state(ineq, canonical_strategy("gyni-paper").bloch_tables)
    assert value >= 7.3909
    ghz = ghz_state(3)
    fidelity = abs(np.vdot(ghz.amplitudes, state.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-6


def test_optimal_state_svetlichny_eigenvalue():
    ineq = svetlichny_inequality()
    _, value = optimal_state(ineq, canonical_strategy("svetlichny-paper").bloch_tables)
    assert value == pytest.approx(4 * math.sqrt(2), abs=1e-9)


def test_optimal_state_trivial_case():
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={x: 1 for x in input_tuples(2)})
    tables = [np.array([(0.0, 0.0, 1.0)] * 2)] * 2
    state, value = optimal_state(ineq, tables)
    # Oracle: the 4x4 operator is 4 sigma_z x sigma_z; top eigenvalue 4.
    op = bell_operator(ineq, tables)
    assert np.allclose(op, 4 * oracles.kron_chain([oracles.SZ, oracles.SZ]))
    assert value == pytest.approx(4.0, abs=1e-9)
    achieved = float((state.amplitudes.conj() @ op @ state.amplitudes).real)
    assert achieved == pytest.approx(4.0, abs=1e-9)


def test_optimize_with_state_updates():
    result = optimize(gyni_inequality(), OptimizerOptions(seed=6, restarts=8,
                                                          optimize_state=True))
    assert 7.3909 <= result.best_value <= 7.3931
    trace = np.array(result.value_trace)
    assert np.all(np.diff(trace) >= -1e-12)


def test_communication_is_what_enables_the_ring_violation():
    # The ring coefficients admit no quantum advantage when each party sees
    # only its own input: the searched quantum value stays at the classical 6.
    # The exchange coefficients reach 4 sqrt(2) even then, since that
    # optimum never uses the communicated input.
    isolated = make_scenario(3, [(1,), (2,), (3,)])
    ring = BellInequality(scenario=isolated, coeffs=dict(gyni_inequality().coeffs))
    assert classical_bound(ring)[0] == 6
    found = optimize(ring, OptimizerOptions(seed=3, restarts=8, max_sweeps=200))
    assert found.best_value <= 6 + 1e-9
    assert found.best_value >= 6 - 1e-3
    exchange = BellInequality(scenario=isolated,
                              coeffs=dict(svetlichny_inequality().coeffs))
    reached = optimize(exchange, OptimizerOptions(seed=3, restarts=8))
    assert reached.best_value == pytest.approx(4 * math.sqrt(2), abs=1e-6)


def test_uniform_positive_coefficients_saturate_gamma():
    # With Q identically 1 the algebraic maximum Gamma is reachable by a
    # product strategy, so the optimizer must land on Gamma exactly.
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={x: 1 for x in input_tuples(2)})
    result = optimize(ineq, OptimizerOptions(seed=1, restarts=8, optimize_state=True))
    assert result.best_value == pytest.approx(ineq.gamma, abs=1e-9)


def test_fixed_state_search_rejects_state_optimization():
    with pytest.raises(ValidationError):
        seesaw_measurements(chsh_inequality(), ghz_state(2),
                            OptimizerOptions(seed=1, restarts=1, optimize_state=True))


def test_state_optimization_rejects_a_mixed_initial_state():
    # The state step returns a pure eigenvector, which would drop the noise.
    opts = OptimizerOptions(seed=3, restarts=1, optimize_state=True)
    with pytest.raises(ValidationError):
        optimize(chsh_inequality(), opts, initial_state=depolarize(ghz_state(2), 0.5))
    assert optimize(chsh_inequality(), opts, initial_state=ghz_state(2)).best_value > 2


def test_degenerate_slots_are_counted():
    # A coefficient table supported only on x_1 = +1 makes party 1's
    # setting (-1,) slot irrelevant: its gradient vanishes identically.
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={(1, -1): 1, (1, 1): 1})
    result = seesaw_measurements(ineq, ghz_state(2), OptimizerOptions(seed=2, restarts=1))
    assert result.degenerate_updates > 0
    assert result.best_value <= 2.0 + 1e-9


def _replay_restarts(ineq, state, tables, opts):
    """The restarts one after another, each a plain loop in the arithmetic of
    one restart alone: whole-party sweeps until the improvement drops below
    tol or max_sweeps is used, then, with state optimization, a state step
    (kept only if its eigenvalue gains at least tol), until an alternation
    gains less than tol.
    Returns per-restart (trace, sweeps, final tables)."""
    scenario = ineq.scenario
    q = ineq.coefficient_array().astype(float)
    index = scenario.setting_index()
    weights = [(np.arange(table.shape[1])[:, None] == row) * q
               for table, row in zip(tables, index)]
    runs = []
    for r in range(len(tables[0])):
        bloch = [table[r][None].copy() for table in tables]
        tensor = pauli_tensor(state)[None]
        trace, sweeps = [], 0

        def value():
            return float(q @ correlations(tensor, bloch, index)[0])

        start = value()
        for _ in range(100 if opts.optimize_state else 1):
            previous = value()
            for _ in range(opts.max_sweeps):
                for i, table in enumerate(bloch):
                    gradients = correlations(tensor, bloch, index, leave_out=i)[0]
                    totals = weights[i] @ gradients
                    norms = np.linalg.norm(totals, axis=1)
                    live = norms >= DEGENERATE_GRADIENT
                    table[0, live] = totals[live] / norms[live, None]
                    correlators = np.einsum("xa,xa->x", table[0, index[i]], gradients)
                sweeps += 1
                trace.append(float(q @ correlators))
                if trace[-1] - previous < opts.tol:
                    break
                previous = trace[-1]
            if not opts.optimize_state:
                break
            new_state, top = optimal_state(ineq, [table[0] for table in bloch])
            if top - trace[-1] < opts.tol:
                break
            tensor = pauli_tensor(new_state)[None]
            trace.append(value())
            if trace[-1] - start < opts.tol:
                break
            start = trace[-1]
        runs.append((trace, sweeps, [table[0] for table in bloch]))
    return runs


def _ring4_inequality():
    rng = np.random.default_rng(11)
    scenario = make_scenario(4, [(1, 4), (2, 1), (3, 2), (4, 3)])
    coeffs = {x: int(v) for x, v in zip(input_tuples(4), rng.integers(-3, 4, size=16))}
    return BellInequality(scenario=scenario, coeffs=coeffs)


def _random_mixed_state(n):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2**n, 2)) + 1j * rng.standard_normal((2**n, 2))
    rho = g @ g.conj().T
    return MixedState(rho / np.trace(rho).real)


RESTART_CASES = [(gyni_inequality, 8), (svetlichny_inequality, 8), (chsh_inequality, 8),
                 (_ring4_inequality, 4)]


def _initial_tables(ineq, opts):
    draws = [random_bloch_tables(ineq.scenario, rng)
             for rng in _restart_streams(opts.seed, opts.restarts)]
    return [np.stack(party) for party in zip(*draws)]


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("make, restarts", RESTART_CASES,
                         ids=["gyni", "svetlichny", "chsh", "ring4"])
def test_restart_batch_replays_the_sequential_loop(make, restarts, mixed):
    ineq = make()
    state = _random_mixed_state(ineq.n) if mixed else ghz_state(ineq.n)
    opts = OptimizerOptions(seed=9, restarts=restarts)
    tables = _initial_tables(ineq, opts)
    batch = _Restarts(ineq, state, tables)
    batch.run(opts)
    replay = _replay_restarts(ineq, state, tables, opts)
    for r, (trace, sweeps, final) in enumerate(replay):
        assert batch.sweeps[r] == sweeps
        assert len(batch.traces[r]) == len(trace)
        assert np.max(np.abs(np.array(batch.traces[r]) - trace)) < 1e-12
        for got, want in zip(batch.bloch, final):
            assert np.max(np.abs(got[r] - want)) < 1e-12
    finals = [trace[-1] for trace, _, _ in replay]
    winner = next(r for r, v in enumerate(finals) if v >= max(finals) - 1e-12)
    best = batch.best()
    assert best.value_trace == tuple(batch.traces[winner])
    assert best.sweeps_used == replay[winner][1]
    for got, want in zip(best.strategy.bloch_tables, replay[winner][2]):
        assert np.max(np.abs(got - want)) < 1e-12
    assert best == (optimize(ineq, opts, initial_state=state) if not mixed
                    else seesaw_measurements(ineq, state, opts))


@pytest.mark.parametrize("make, restarts", RESTART_CASES,
                         ids=["gyni", "svetlichny", "chsh", "ring4"])
def test_restart_batch_with_state_steps_reaches_the_sequential_best(make, restarts):
    # A state step must gain tol, so the winner's sweeps and trace replay
    # too, not only its value.
    ineq = make()
    opts = OptimizerOptions(seed=9, restarts=restarts, optimize_state=True)
    replay = _replay_restarts(ineq, ghz_state(ineq.n), _initial_tables(ineq, opts), opts)
    finals = [trace[-1] for trace, _, _ in replay]
    trace, sweeps, _ = replay[next(r for r, v in enumerate(finals) if v >= max(finals) - 1e-12)]
    result = optimize(ineq, opts)
    assert abs(result.best_value - max(finals)) < 1e-12
    assert result.sweeps_used == sweeps
    assert len(result.value_trace) == len(trace)
    assert np.max(np.abs(np.array(result.value_trace) - trace)) < 1e-12
