"""Property tests: exact_success against dense Kronecker oracles.

Scenarios, coefficients, strategies and input distributions are random
with n <= 4; every distribution puts zero weight on some input tuple. A
distribution w enters the game as the inequality Q' = sign Q * w.
Quantum strategies (pure and mixed states) are checked against explicit
Born-rule projectors on the density matrix, deterministic ones against the
direct sum over input tuples, both from ``oracles``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from bellccp import (
    BellInequality,
    CcpInstance,
    DeterministicStrategy,
    MixedState,
    PureState,
    QuantumStrategy,
    exact_success,
)
from bellccp.scenarios import input_tuples, make_scenario

import oracles

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cases(draw):
    """A scenario, coefficients, a distribution with zero weights, and a
    pure, mixed or deterministic strategy as (kind, state, tables)."""
    n = draw(st.integers(2, 4))
    visibility = []
    for i in range(1, n + 1):
        others = draw(st.permutations([j for j in range(1, n + 1) if j != i]))
        visibility.append((i, *others[:draw(st.integers(0, n - 1))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    q = rng.integers(-3, 4, size=dim)
    q[0] = q[0] or 1            # keep the inequality non-empty
    counts = rng.integers(0, 4, size=dim)
    counts[draw(st.integers(0, dim - 1))] = 0
    counts[draw(st.integers(0, dim - 1))] += 1
    weights = counts / counts.sum()
    kind = draw(st.sampled_from(["pure", "mixed", "deterministic"]))
    state = None
    if kind == "pure":
        amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
    elif kind == "mixed":
        rank = draw(st.integers(1, dim))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        state = MixedState(rho / np.trace(rho).real)
    tables = []
    for group in visibility:
        if kind == "deterministic":
            tables.append(rng.choice([-1, 1], size=2 ** len(group)).tolist())
        else:
            vecs = rng.standard_normal((2 ** len(group), 3))
            tables.append(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    return n, visibility, q, weights, kind, state, tables


@PROPERTY_SETTINGS
@given(cases())
def test_exact_success_matches_oracles_on_any_input_distribution(case):
    n, visibility, q, weights, kind, state, tables = case
    scenario = make_scenario(n, visibility)
    tuples = input_tuples(n)
    folded = np.where(q < 0, -1, 1) * weights
    ineq = BellInequality(scenario=scenario, coeffs=dict(zip(tuples, folded.tolist())))
    instance = CcpInstance(inequality=ineq)
    if kind == "deterministic":
        strategy = DeterministicStrategy(scenario=scenario, tables=tables)
        expected = oracles.deterministic_game_success(n, visibility, tables, weights, q)
    else:
        strategy = QuantumStrategy(scenario=scenario, state=state, bloch_tables=tables)
        expected = oracles.quantum_game_success(
            state.density_matrix(), n, visibility, tables, weights, q)
    assert abs(exact_success(instance, strategy) - expected) < 1e-12
