"""Tests for states, observables, and Born-rule expectations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellccp import (
    BlochVectorError,
    MixedState,
    NumericError,
    PureState,
    ValidationError,
    bloch_to_observable,
    depolarize,
    expectation,
    ghz_state,
    tensor_product,
)
from bellccp.qubits import IDENTITY_2, SIGMA_X, SIGMA_Z, Observable2
from bellccp.scenarios import MAX_PARTIES

import oracles


def test_pauli_observables():
    assert np.allclose(bloch_to_observable((0, 0, 1)).matrix, np.diag([1, -1]))
    assert np.allclose(bloch_to_observable((1, 0, 0)).matrix, [[0, 1], [1, 0]])


def test_charlie_setting_is_renormalized():
    obs = bloch_to_observable((-0.38, -0.92, 0.0))
    assert np.linalg.norm(obs.bloch) == pytest.approx(1.0, abs=1e-12)
    # direction preserved
    assert obs.bloch[0] / obs.bloch[1] == pytest.approx(0.38 / 0.92, abs=1e-12)


def test_far_off_norm_rejected():
    with pytest.raises(BlochVectorError):
        bloch_to_observable((0.5, 0.5, 0.0))
    with pytest.raises(BlochVectorError):
        bloch_to_observable((0.0, 0.0, 0.0))


@given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
def test_observable_invariants(raw):
    vec = np.array(raw)
    norm = np.linalg.norm(vec)
    if norm < 1e-6:
        return
    obs = bloch_to_observable(vec / norm)
    assert np.allclose(obs.matrix @ obs.matrix, IDENTITY_2, atol=1e-9)
    assert abs(np.trace(obs.matrix)) < 1e-9
    plus, minus = obs.projector(1), obs.projector(-1)
    assert np.allclose(plus + minus, IDENTITY_2, atol=1e-12)
    for proj in (plus, minus):
        assert np.min(np.linalg.eigvalsh(proj)) > -1e-9


def test_tensor_product_order_and_errors():
    assert np.allclose(tensor_product([SIGMA_Z]), SIGMA_Z)
    xx = tensor_product([SIGMA_X, SIGMA_X])
    assert np.allclose(xx, np.fliplr(np.eye(4)))
    with pytest.raises(ValidationError):
        tensor_product([])
    with pytest.raises(ValidationError):
        tensor_product([np.eye(3)])


def test_ghz_state():
    state = ghz_state(3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)
    two = ghz_state(2)
    assert np.allclose(two.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    assert ghz_state(MAX_PARTIES).n == MAX_PARTIES
    for bad in (1, MAX_PARTIES + 1, 13, 2.5):
        with pytest.raises(ValidationError):
            ghz_state(bad)


def test_ghz_correlators_match_direct_computation():
    # Oracle: raw kron chain on the raw GHZ vector.
    vec = oracles.ghz_vector(3)
    xxx = oracles.kron_chain([oracles.SX] * 3)
    zzz = oracles.kron_chain([oracles.SZ] * 3)
    assert oracles.pure_expectation(vec, xxx) == pytest.approx(1.0, abs=1e-12)
    assert oracles.pure_expectation(vec, zzz) == pytest.approx(0.0, abs=1e-12)

    state = ghz_state(3)
    assert expectation(state, tensor_product([SIGMA_X] * 3)) == pytest.approx(1.0, abs=1e-9)
    assert expectation(state, tensor_product([SIGMA_Z] * 3)) == pytest.approx(0.0, abs=1e-9)
    assert expectation(state, np.eye(8)) == pytest.approx(1.0, abs=1e-12)


def test_depolarize_limits_and_linearity():
    state = ghz_state(3)
    pure = depolarize(state, 1.0)
    assert np.allclose(pure.matrix, np.outer(state.amplitudes, state.amplitudes.conj()))
    mixed = depolarize(state, 0.0)
    assert np.allclose(mixed.matrix, np.eye(8) / 8)
    xxx = tensor_product([SIGMA_X] * 3)
    # Traceless operator: expectation scales exactly linearly in v.
    assert expectation(depolarize(state, 0.5), xxx) == pytest.approx(0.5, abs=1e-12)
    for v in np.linspace(0, 1, 10):
        assert expectation(depolarize(state, v), xxx) == pytest.approx(v, abs=1e-12)
    with pytest.raises(ValidationError):
        depolarize(state, 1.2)
    with pytest.raises(ValidationError):
        depolarize(state, -0.1)


def test_expectation_errors():
    state = ghz_state(2)
    with pytest.raises(ValidationError):
        expectation(state, np.eye(8))
    # Non-Hermitian operator leaves a large imaginary residue.
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3] = 1.0j
    with pytest.raises(NumericError):
        expectation(state, skew)


def test_state_validation():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(ValidationError):
        PureState(np.eye(2 ** (MAX_PARTIES + 1))[0])  # more qubits than parties
    with pytest.raises(ValidationError):
        MixedState(np.eye(4))  # trace 4
    with pytest.raises(ValidationError):
        MixedState(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    rho = MixedState(np.eye(4) / 4)
    assert rho.n == 2


def test_states_are_immutable():
    state = ghz_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    obs = bloch_to_observable((0, 0, 1))
    with pytest.raises(ValueError):
        obs.bloch[0] = 1.0


def test_states_and_observables_compare_and_hash_by_value():
    # Signed zeros are equal entries, so they must not split equal values.
    pairs = [
        (PureState([1.0, 0.0]), PureState([1.0, -0.0])),
        (PureState([1.0, 0.0j]), PureState(np.array([1.0, complex(-0.0, -0.0)]))),
        (MixedState(np.diag([1.0, 0.0])), MixedState(np.array([[1.0, -0.0], [-0.0, 0.0]]))),
        (Observable2(bloch=(0.0, 0.0, 1.0)), Observable2(bloch=(-0.0, -0.0, 1.0))),
        (ghz_state(3), ghz_state(3)),
        (depolarize(ghz_state(2), 0.5), depolarize(ghz_state(2), 0.5)),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert PureState([1.0, 0.0]) != PureState([0.0, 1.0])
    assert MixedState(np.diag([1.0, 0.0])) != MixedState(np.diag([0.0, 1.0]))
    assert bloch_to_observable((0, 0, 1)) != bloch_to_observable((0, 0, -1))
    # Same entries, different types.
    assert PureState([1.0, 0.0]) != MixedState(np.diag([1.0, 0.0]))
    assert ghz_state(2) != ghz_state(2).amplitudes.tolist()
