"""Property tests: the Pauli-tensor paths and the Born rule against dense
Kronecker oracles.

Scenarios, states and Bloch vectors are random with n <= 4; the outcome
rows also run on fixed pure and mixed cases at n = 5, the largest size
``bellccp verify`` meets in the benchmark, and on a few rows at n = 6.
Every expected value comes from ``oracles``, which builds the 2^n x 2^n
operators with raw numpy.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellccp import (BellInequality, MixedState, PureState, QuantumStrategy, correlator_table,
                     outcome_distribution)
from bellccp.qubits import pauli_tensor
from bellccp.scenarios import input_tuples, make_scenario
from bellccp.seesaw import DEGENERATE_GRADIENT, _Restarts, bell_operator, optimal_state

import oracles

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def scenarios(draw):
    """n in 2..4; each party sees its own input and any others, in any order."""
    n = draw(st.integers(2, 4))
    visibility = []
    for i in range(1, n + 1):
        others = draw(st.permutations([j for j in range(1, n + 1) if j != i]))
        visibility.append((i, *others[:draw(st.integers(0, n - 1))]))
    return n, visibility


def make_case(n, visibility, seed, rank=None):
    """(n, visibility, state, tables, q) from a seed: a pure state when
    ``rank`` is None, else a random density matrix of that rank."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    if rank is None:
        amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
    else:
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        state = MixedState(rho / np.trace(rho).real)
    tables = []
    for group in visibility:
        vecs = rng.standard_normal((2 ** len(group), 3))
        tables.append(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    q = rng.integers(-3, 4, size=dim)
    q[0] = q[0] or 1            # keep the inequality non-empty
    return n, visibility, state, tables, q


@st.composite
def cases(draw):
    """A scenario, a pure or mixed state, Bloch tables and coefficients."""
    n, visibility = draw(scenarios())
    seed = draw(st.integers(0, 2**32 - 1))
    rank = None if draw(st.booleans()) else draw(st.integers(1, 2**n))
    return make_case(n, visibility, seed, rank)


# Five parties; each sees its own input and its left neighbour's (ring), or
# parties 1-2 and 3-4 see each other's and party 5 only its own (exchange).
RING_5 = [(1, 5), (2, 1), (3, 2), (4, 3), (5, 4)]
EXCHANGE_5 = [(1, 2), (2, 1), (3, 4), (4, 3), (5,)]


@PROPERTY_SETTINGS
@given(cases())
def test_pauli_tensor_matches_pauli_strings(case):
    n, _visibility, state, _tables, _q = case
    tensor = pauli_tensor(state)
    rho = state.density_matrix()
    assert tensor.shape == (4,) * n
    assert not tensor.flags.writeable
    for paulis in itertools.product(range(4), repeat=n):
        assert abs(tensor[paulis] - oracles.pauli_string_expectation(rho, paulis)) < 1e-12


@PROPERTY_SETTINGS
@given(cases())
def test_correlator_table_matches_kron(case):
    n, visibility, state, tables, _q = case
    scenario = make_scenario(n, visibility)
    table = correlator_table(QuantumStrategy(scenario=scenario, state=state,
                                             bloch_tables=tables))
    expected = oracles.kron_correlators(state.density_matrix(), n, visibility, tables)
    assert table.shape == (2**n,) and table.dtype == np.float64
    assert np.max(np.abs(table - expected)) < 1e-12


@PROPERTY_SETTINGS
@given(cases())
@example(make_case(5, RING_5, seed=5))
@example(make_case(5, RING_5, seed=5, rank=3))
@example(make_case(5, EXCHANGE_5, seed=6, rank=32))
def test_outcome_rows_match_the_kron_born_rule(case):
    _assert_rows_match_the_kron_born_rule(case, range(2 ** case[0]))


def _assert_rows_match_the_kron_born_rule(case, row_indices):
    n, visibility, state, tables, _q = case
    strategy = QuantumStrategy(scenario=make_scenario(n, visibility), state=state,
                               bloch_tables=tables)
    rho = state.density_matrix()
    positions = oracles.setting_positions(n, visibility)
    for k in row_indices:
        row = outcome_distribution(strategy, input_tuples(n)[k])
        assert row.shape == (2**n,) and row.dtype == np.float64
        observables = [oracles.bloch_operator(tables[i][positions[i][k]]) for i in range(n)]
        for a, p in zip(input_tuples(n), row.tolist(), strict=True):
            assert p >= 0.0
            assert abs(p - oracles.density_outcome_probability(rho, observables, a)) < 1e-12
        assert abs(sum(row.tolist()) - 1.0) < 1e-12


# Six parties on a ring; a full n = 6 case would run 4096 Kronecker oracles.
RING_6 = [(1, 6), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]


@pytest.mark.parametrize("rank", [None, 5], ids=["pure", "mixed"])
def test_six_party_outcome_rows_match_the_kron_born_rule(rank):
    _assert_rows_match_the_kron_born_rule(make_case(6, RING_6, seed=7, rank=rank), (0, 21, 63))


@PROPERTY_SETTINGS
@given(cases())
def test_party_sweep_matches_slot_by_slot_kron_replay(case):
    n, visibility, state, tables, q = case
    scenario = make_scenario(n, visibility)
    ineq = BellInequality(scenario=scenario,
                          coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})
    # One restart: a batch of R = 1.
    sweeper = _Restarts(ineq, state, [table[None] for table in tables])
    sweeper.sweep(np.arange(1))
    rho = state.density_matrix()
    expected, expected_degenerate = oracles.kron_sweep(
        rho, n, visibility, q, tables, DEGENERATE_GRADIENT)
    assert sweeper.degenerate[0] == expected_degenerate
    for got, want in zip(sweeper.bloch, expected):
        assert np.max(np.abs(got[0] - want)) < 1e-12
    correlators = oracles.kron_correlators(rho, n, visibility, expected)
    assert abs(float(q @ sweeper.correlators[0]) - float(q @ correlators)) < 1e-11


@PROPERTY_SETTINGS
@given(cases())
def test_optimal_state_is_exact_top_eigenpair(case):
    n, visibility, _state, tables, q = case
    scenario = make_scenario(n, visibility)
    ineq = BellInequality(scenario=scenario,
                          coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})
    state, value = optimal_state(ineq, tables)
    op = oracles.kron_bell_operator(n, visibility, q, tables)
    top = np.linalg.eigvalsh(op)[-1]
    assert abs(value - top) < 1e-12
    achieved = (state.amplitudes.conj() @ op @ state.amplitudes).real
    assert abs(achieved - top) < 1e-12


@PROPERTY_SETTINGS
@given(cases())
def test_bell_operator_matches_kron(case):
    n, visibility, _state, tables, q = case
    scenario = make_scenario(n, visibility)
    ineq = BellInequality(scenario=scenario,
                          coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})
    op = bell_operator(ineq, tables)
    assert np.max(np.abs(op - oracles.kron_bell_operator(n, visibility, q, tables))) < 1e-12
