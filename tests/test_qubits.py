"""Tests for states, observables, and Born-rule expectations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellccp import (
    BlochVectorError,
    MixedState,
    NumericError,
    PureState,
    QuantumStrategy,
    ValidationError,
    canonical_strategy,
    chsh_inequality,
    depolarize,
    expectation,
    ghz_state,
    outcome_distribution,
    tensor_product,
    unit_bloch,
)
from bellccp.qubits import IDENTITY_2, SIGMA_X, SIGMA_Z, Observable2
from bellccp.scenarios import MAX_PARTIES

import oracles


def test_pauli_observables():
    # r = z, x, y measure sigma_z, sigma_x, sigma_y: on two copies of each
    # one's +1 eigenvector the outcome is (+1, +1) with certainty.
    scenario = chsh_inequality().scenario
    eigenvectors = {(0, 0, 1): [1, 0], (1, 0, 0): [1, 1], (0, 1, 0): [1, 1j]}
    for r, vec in eigenvectors.items():
        vec = np.array(vec) / np.linalg.norm(vec)
        strategy = QuantumStrategy(scenario=scenario, state=PureState(np.kron(vec, vec)),
                                   bloch_tables=[[r, r], [r, r]])
        dist = outcome_distribution(strategy, (1, -1))
        assert dist[(1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_charlie_setting_is_renormalized():
    obs = Observable2(bloch=unit_bloch((-0.38, -0.92, 0.0)))
    assert np.linalg.norm(obs.bloch) == pytest.approx(1.0, abs=1e-12)
    # direction preserved
    assert obs.bloch[0] / obs.bloch[1] == pytest.approx(0.38 / 0.92, abs=1e-12)


def test_far_off_norm_rejected():
    with pytest.raises(BlochVectorError):
        Observable2(bloch=unit_bloch((0.5, 0.5, 0.0)))
    with pytest.raises(BlochVectorError):
        Observable2(bloch=unit_bloch((0.0, 0.0, 0.0)))


@given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
def test_observable_invariants(raw):
    vec = np.array(raw)
    norm = np.linalg.norm(vec)
    if norm < 1e-6:
        return
    matrix = oracles.bloch_operator(Observable2(bloch=unit_bloch(vec / norm)).bloch)
    assert np.allclose(matrix @ matrix, IDENTITY_2, atol=1e-9)
    assert abs(np.trace(matrix)) < 1e-9
    plus, minus = (IDENTITY_2 + matrix) / 2, (IDENTITY_2 - matrix) / 2
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
    with pytest.raises(ValidationError):
        tensor_product([SIGMA_X, SIGMA_Z, np.eye(3)])


@pytest.mark.parametrize("n", range(1, 7))
def test_tensor_product_equals_the_kron_chain_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        factors = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        got = tensor_product(list(factors))
        assert got.shape == (2**n, 2**n)
        assert np.array_equal(got, oracles.kron_chain(factors))


def _random_density_matrix(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", range(1, 7))
def test_mixed_expectation_matches_the_trace_of_the_product(n):
    rng = np.random.default_rng(10 + n)
    dim = 2**n
    for _ in range(5):
        state = MixedState(_random_density_matrix(rng, dim))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = h + h.conj().T
        op /= np.linalg.norm(op, 2)          # |Tr[rho op]| <= 1, as for a Born-rule projector
        want = np.trace(state.matrix @ op).real
        assert abs(expectation(state, op) - want) <= 1e-15


def _random_state(rng, n, mixed):
    dim = 2**n
    if mixed:
        return MixedState(_random_density_matrix(rng, dim))
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(amplitudes / np.linalg.norm(amplitudes))


def _hermitian_stack(rng, k, dim):
    h = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    ops = h + h.conj().transpose(0, 2, 1)
    return ops / np.linalg.norm(ops, 2, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_expectation_matches_one_call_per_operator(n, mixed):
    rng = np.random.default_rng(20 + n + 10 * mixed)
    state = _random_state(rng, n, mixed)
    ops = _hermitian_stack(rng, 5, 2**n)
    # A strided view of the stack reads the same as the stack itself.
    for stack in (ops, ops.transpose(0, 2, 1).conj()):
        got = expectation(state, stack)
        assert isinstance(got, np.ndarray) and got.shape == (5,) and got.dtype == float
        for value, op in zip(got, stack):
            single = expectation(state, op)
            assert type(single) is float
            assert abs(value - single) <= 1e-15


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_stacked_expectation_checks_every_entry(mixed):
    rng = np.random.default_rng(7)
    state = _random_state(rng, 2, mixed)
    ops = _hermitian_stack(rng, 4, 4)
    ops[2, 0, 3] += 1.0j                      # only entry 2 is non-Hermitian
    with pytest.raises(NumericError):
        expectation(state, ops)
    for bad in (np.zeros((3, 4, 2)), np.zeros((2, 3, 4, 4)), np.zeros((3, 8, 8)),
                np.zeros(4)):
        with pytest.raises(ValidationError):
            expectation(state, bad)
    assert expectation(state, np.zeros((0, 4, 4))).shape == (0,)


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
    # Non-Hermitian operator leaves a large imaginary residue.
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3] = 1.0j
    for state in (ghz_state(2), MixedState(_random_density_matrix(np.random.default_rng(3), 4))):
        with pytest.raises(ValidationError):
            expectation(state, np.eye(8))
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


def test_derived_fields_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        PureState(np.array([1.0, 0.0, 0.0, 0.0]), n=2)
    with pytest.raises(TypeError):
        MixedState(np.eye(4) / 4, n=2)
    gyni = canonical_strategy("gyni-paper")
    with pytest.raises(TypeError):
        QuantumStrategy(scenario=gyni.scenario, state=gyni.state, observables=gyni.observables)
    assert PureState(np.array([1.0, 0.0, 0.0, 0.0])).n == 2


def test_states_are_immutable():
    state = ghz_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    obs = Observable2(bloch=unit_bloch((0, 0, 1)))
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
    assert Observable2(bloch=unit_bloch((0, 0, 1))) != Observable2(bloch=unit_bloch((0, 0, -1)))
    # Same entries, different types.
    assert PureState([1.0, 0.0]) != MixedState(np.diag([1.0, 0.0]))
    assert ghz_state(2) != ghz_state(2).amplitudes.tolist()
