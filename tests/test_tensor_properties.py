"""Property tests: the Pauli-tensor paths against dense Kronecker oracles.

Scenarios, states and Bloch vectors are random with n <= 4. Every expected
value comes from ``oracles``, which builds the 2^n x 2^n operators with raw
numpy.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from bellccp import BellInequality, MixedState, PureState, QuantumStrategy, correlator_table
from bellccp.qubits import Observable2, pauli_tensor
from bellccp.scenarios import input_tuples, make_scenario
from bellccp.seesaw import DEGENERATE_GRADIENT, _Sweeper, optimal_state

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


@st.composite
def cases(draw):
    """A scenario, a pure or mixed state, Bloch tables and coefficients."""
    n, visibility = draw(scenarios())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    if draw(st.booleans()):
        amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
    else:
        rank = draw(st.integers(1, dim))
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
    observables = {(i, t): Observable2(bloch=r)
                   for i in range(1, n + 1)
                   for t, r in zip(scenario.visible_tuples(i), tables[i - 1])}
    table = correlator_table(QuantumStrategy(scenario=scenario, state=state,
                                             observables=observables))
    expected = oracles.kron_correlators(state.density_matrix(), n, visibility, tables)
    got = np.array([table[x] for x in input_tuples(n)])
    assert np.max(np.abs(got - expected)) < 1e-12


@PROPERTY_SETTINGS
@given(cases())
def test_party_sweep_matches_slot_by_slot_kron_replay(case):
    n, visibility, state, tables, q = case
    scenario = make_scenario(n, visibility)
    ineq = BellInequality(scenario=scenario,
                          coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})
    sweeper = _Sweeper(ineq, state)
    sweeper.set_observables(tables)
    degenerate = sweeper.sweep()
    rho = state.density_matrix()
    expected, expected_degenerate = oracles.kron_sweep(
        rho, n, visibility, q, tables, DEGENERATE_GRADIENT)
    assert degenerate == expected_degenerate
    for got, want in zip(sweeper.bloch, expected):
        assert np.max(np.abs(got - want)) < 1e-12
    correlators = oracles.kron_correlators(rho, n, visibility, expected)
    assert abs(sweeper.value() - float(q @ correlators)) < 1e-11


@PROPERTY_SETTINGS
@given(cases())
def test_optimal_state_is_exact_top_eigenpair(case):
    n, visibility, _state, tables, q = case
    scenario = make_scenario(n, visibility)
    ineq = BellInequality(scenario=scenario,
                          coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})
    observables = {(i, t): Observable2(bloch=r)
                   for i in range(1, n + 1)
                   for t, r in zip(scenario.visible_tuples(i), tables[i - 1])}
    state, value = optimal_state(ineq, observables)
    op = oracles.kron_bell_operator(n, visibility, q, tables)
    top = np.linalg.eigvalsh(op)[-1]
    assert abs(value - top) < 1e-12
    achieved = (state.amplitudes.conj() @ op @ state.amplitudes).real
    assert abs(achieved - top) < 1e-12
