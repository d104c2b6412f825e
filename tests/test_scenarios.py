"""Tests for causal scenarios, inequalities, and the derived game data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellccp import (
    BellInequality,
    CcpInstance,
    DeterministicStrategy,
    ValidationError,
    chsh_inequality,
    gyni_inequality,
    input_tuples,
    make_scenario,
    named_inequality,
    svetlichny_inequality,
)
from bellccp.config import inequality_from_config, inequality_to_config
from bellccp.scenarios import tuple_array

from oracles import visible_tuple


def test_make_scenario_accepts_known_structures():
    ring = make_scenario(3, [(1, 3), (2, 1), (3, 2)])
    assert visible_tuple((1, -1, 1), ring.visibility[0]) == (1, 1)
    assert visible_tuple((1, -1, 1), ring.visibility[1]) == (-1, 1)
    assert visible_tuple((1, -1, 1), ring.visibility[2]) == (1, -1)
    pair = make_scenario(3, [(1, 2), (2, 1), (3,)])
    assert pair.arity(3) == 1
    bell = make_scenario(2, [(1,), (2,)])
    assert bell.arity(1) == bell.arity(2) == 1
    # NumPy integers and integral floats name parties too, stored as ints.
    loose = make_scenario(2, [(np.int64(1), 2.0), (np.float32(2),)])
    assert loose == make_scenario(2, [(1, 2), (2,)])
    assert all(type(j) is int for group in loose.visibility for j in group)


@pytest.mark.parametrize("n,visibility", [
    (3, [(3, 1), (2,), (3,)]),       # own index not first
    (3, [(1, 1), (2,), (3,)]),       # duplicate
    (3, [(1, 4), (2,), (3,)]),       # out of range
    (3, [(1,), (2,)]),               # missing a party
    (1, [(1,)]),                     # too few parties
    (7, [(i,) for i in range(1, 8)]),  # too many parties
    (2, [(1.5,), (2,)]),             # fractional index
    (2, [("1",), (2,)]),             # string index
    (2, [(float("nan"),), (2,)]),    # NaN index
    (2, [(None,), (2,)]),            # missing index
    (2, [1, 2]),                     # groups that are not lists
    (2, 5),                          # visibility that is not a list
])
def test_make_scenario_rejects_invalid(n, visibility):
    with pytest.raises(ValidationError):
        make_scenario(n, visibility)


def test_gyni_coefficients():
    # Direct evaluation of 1 - (1-x1)(1-x2)(1-x3)/4 tuple by tuple.
    ineq = gyni_inequality()
    for x in input_tuples(3):
        formula = 1 - (1 - x[0]) * (1 - x[1]) * (1 - x[2]) / 4
        assert ineq.coeffs[x] == formula
    assert ineq.coeffs[(1, 1, 1)] == 1
    assert ineq.coeffs[(-1, -1, -1)] == -1
    assert ineq.gamma == 8


def test_svetlichny_coefficients():
    ineq = svetlichny_inequality()
    for x in input_tuples(3):
        formula = (1 - (1 - x[0]) * (1 - x[1]) * (1 - x[2]) / 4
                   - (1 + x[0]) * (1 + x[1]) * (1 + x[2]) / 4)
        assert ineq.coeffs[x] == formula
    assert ineq.coeffs[(1, 1, 1)] == -1
    assert ineq.coeffs[(-1, -1, -1)] == -1
    assert ineq.coeffs[(1, -1, 1)] == 1
    assert ineq.gamma == 8


def test_gamma_recomputed_from_table():
    for ineq in (gyni_inequality(), svetlichny_inequality(), chsh_inequality()):
        assert ineq.gamma == sum(abs(q) for q in ineq.coeffs.values())


def _q_star(ineq):
    return CcpInstance(inequality=ineq).probability_vector().tolist()


def test_input_distribution():
    assert set(_q_star(gyni_inequality())) == {1 / 8}
    assert set(_q_star(svetlichny_inequality())) == {1 / 8}
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 2, (-1, 1): 0, (1, -1): 1, (1, 1): 1})
    assert _q_star(ineq) == [0.5, 0.0, 0.25, 0.25]


def test_all_zero_coefficients_rejected():
    scenario = make_scenario(2, [(1,), (2,)])
    with pytest.raises(ValidationError):
        BellInequality(scenario=scenario, coeffs={x: 0 for x in input_tuples(2)})


@pytest.mark.parametrize("q", [2**53, -2**62, 10**400, 1e308, math.inf, math.nan],
                         ids=["2^53", "-2^62", "10^400", "1e308", "inf", "nan"])
def test_coefficients_beyond_the_limit_rejected(q):
    # Four coefficients of 2^62 once summed to a classical bound of 0 in int64.
    scenario = make_scenario(2, [(1,), (2,)])
    with pytest.raises(ValidationError, match="below 2\\^53"):
        BellInequality(scenario=scenario, coeffs={x: q for x in input_tuples(2)})
    below = BellInequality(scenario=scenario, coeffs={x: 2**53 - 1 for x in input_tuples(2)})
    assert below.gamma == 4 * (2**53 - 1)


def _target(ineq, x, y):
    """The game's target f(x, y) = prod(y) * sign Q(x)."""
    return math.prod(y) * int(ineq.sign_array()[input_tuples(ineq.n).index(x)])


def test_target_function_values():
    ineq = gyni_inequality()
    assert _target(ineq, (-1, -1, -1), (1, 1, 1)) == -1
    assert _target(ineq, (1, 1, -1), (1, -1, 1)) == -1
    for x in input_tuples(3):
        if ineq.coeffs[x] > 0:
            assert _target(ineq, x, (1, 1, 1)) == 1


def test_target_function_zero_coefficient_convention():
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 1, (-1, 1): 0, (1, -1): 1, (1, 1): 1})
    assert _target(ineq, (-1, 1), (1, 1)) == 1
    assert _q_star(ineq)[1] == 0.0


def _sign_rule(q):
    return -1 if q < 0 else 1


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2, -0.5, 0.0, 1.5]),
             min_size=2**n, max_size=2**n).filter(any),
    st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))))
def test_sign_rule_sends_zero_to_plus_one(case):
    n, values, y = case
    ineq = BellInequality(scenario=make_scenario(n, [(i,) for i in range(1, n + 1)]),
                          coeffs=dict(zip(input_tuples(n), values)))
    signs = ineq.sign_array()
    assert signs.dtype == np.int8
    for k, (x, q) in enumerate(zip(input_tuples(n), values)):
        assert signs[k] == _sign_rule(q)
        assert _target(ineq, x, y) == math.prod(y) * _sign_rule(q)


@st.composite
def scenarios_up_to_six(draw):
    n = draw(st.integers(2, 6))
    visibility = []
    for i in range(1, n + 1):
        others = draw(st.permutations([j for j in range(1, n + 1) if j != i]))
        visibility.append((i, *others[:draw(st.integers(0, min(n - 1, 3)))]))
    return make_scenario(n, visibility)


@settings(max_examples=40, deadline=None)
@given(scenarios_up_to_six(), st.integers(0, 2**32 - 1))
def test_setting_index_locates_each_visible_tuple(scenario, seed):
    n = scenario.n
    index = scenario.setting_index()
    assert index.shape == (n, 2**n)
    rng = np.random.default_rng(seed)
    tables = [rng.choice([-1, 1], size=2**scenario.arity(i)) for i in range(1, n + 1)]
    outputs = DeterministicStrategy(scenario=scenario, tables=tables).output_array()
    assert outputs.shape == (2**n, n)
    for k, x in enumerate(input_tuples(n)):
        for i in range(1, n + 1):
            s = scenario.visible_tuples(i).index(visible_tuple(x, scenario.visibility[i - 1]))
            assert index[i - 1, k] == s
            assert outputs[k, i - 1] == tables[i - 1][s]


@given(st.lists(st.integers(-5, 5), min_size=8, max_size=8))
def test_input_distribution_is_valid_for_any_table(values):
    if not any(values):
        return
    scenario = make_scenario(3, [(1, 3), (2, 1), (3, 2)])
    ineq = BellInequality(scenario=scenario,
                          coeffs=dict(zip(input_tuples(3), values)))
    dist = _q_star(ineq)
    assert all(p >= 0 for p in dist)
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)


def test_ccp_instance_distribution_checks():
    instance = CcpInstance(inequality=gyni_inequality())
    assert instance.probability_vector().sum() == pytest.approx(1.0, abs=1e-15)
    for value in (5, None, "gyni"):
        with pytest.raises(ValidationError, match="needs a BellInequality"):
            CcpInstance(inequality=value)


def test_named_inequality_lookup():
    assert named_inequality("gyni").name == "gyni"
    with pytest.raises(ValidationError):
        named_inequality("nope")


def test_inequality_config_round_trip():
    for ineq in (gyni_inequality(), svetlichny_inequality(), chsh_inequality()):
        assert inequality_from_config(inequality_to_config(ineq)) == ineq
    scenario = make_scenario(2, [(1, 2), (2, 1)])
    custom = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 0.3, (1, 1): -2, (1, -1): 1})
    loaded = inequality_from_config(inequality_to_config(custom))
    assert loaded == custom
    assert loaded.coeffs[(-1, 1)] == 0
    assert isinstance(loaded.coeffs[(1, 1)], int)
    assert loaded.coeffs[(-1, -1)] == 0.3


def test_gamma_is_derived_not_passed():
    with pytest.raises(TypeError):
        BellInequality(scenario=gyni_inequality().scenario,
                       coeffs=dict(gyni_inequality().coeffs), gamma=8)


def test_coefficient_and_distribution_tables_are_read_only():
    ineq = gyni_inequality()
    with pytest.raises(TypeError):
        ineq.coeffs[(1, 1, 1)] = 5
    assert ineq.coeffs[(1, 1, 1)] == 1 and ineq.gamma == 8
    assert list(ineq.coeffs) == list(input_tuples(3))
    instance = CcpInstance(inequality=ineq)
    with pytest.raises(ValueError):
        instance.probability_vector()[7] = 0.9
    assert instance.probability_vector().sum() == pytest.approx(1.0, abs=1e-15)


def test_index_arrays_are_stored_once_and_read_only():
    ineq = gyni_inequality()
    scenario = ineq.scenario
    # Each party outputs the product of its two visible inputs.
    strategy = DeterministicStrategy(scenario=scenario, tables=tuple(
        [t[0] * t[1] for t in scenario.visible_tuples(i)] for i in range(1, 4)))
    for array, again, want in (
            (ineq.coefficient_array(), ineq.coefficient_array(), [-1, 1, 1, 1, 1, 1, 1, 1]),
            (ineq.sign_array(), ineq.sign_array(), [-1, 1, 1, 1, 1, 1, 1, 1]),
            (scenario.setting_index(), scenario.setting_index(),
             [[0, 1, 0, 1, 2, 3, 2, 3], [0, 0, 2, 2, 1, 1, 3, 3], [0, 2, 1, 3, 0, 2, 1, 3]]),
            (tuple_array(3), tuple_array(3), input_tuples(3)),
            (strategy.output_array(), strategy.output_array(),
             [(x[0] * x[2], x[1] * x[0], x[2] * x[1]) for x in input_tuples(3)])):
        assert array is again
        assert np.array_equal(array, again) and np.array_equal(array, want)
        with pytest.raises(ValueError):
            array[0] = 7
        assert np.array_equal(again, want)
    # The stored arrays are not fields: equality and hash ignore them.
    fresh = gyni_inequality()
    assert fresh == ineq and hash(fresh) == hash(ineq)
    assert fresh.scenario == scenario and hash(fresh.scenario) == hash(scenario)


def test_equal_instances_hash_alike():
    ineq = gyni_inequality()
    default = CcpInstance(inequality=ineq)
    explicit = CcpInstance(inequality=BellInequality(
        scenario=ineq.scenario, name="reversed",
        coeffs={x: float(ineq.coeffs[x]) for x in reversed(input_tuples(3))}))
    assert default == explicit
    assert hash(default) == hash(explicit)
    skewed = CcpInstance(inequality=BellInequality(scenario=ineq.scenario,
                                                   coeffs={(1, 1, 1): 1}))
    assert len({default, explicit, skewed}) == 2


def test_equal_inequalities_hash_alike():
    renamed = BellInequality(scenario=gyni_inequality().scenario,
                             coeffs={x: float(q) for x, q in gyni_inequality().coeffs.items()},
                             name="renamed")
    assert renamed == gyni_inequality()
    assert hash(renamed) == hash(gyni_inequality())
    scenario = make_scenario(2, [(1, 2), (2, 1)])
    sparse = BellInequality(scenario=scenario, coeffs={(1, 1): -2, (-1, -1): 0.5})
    dense = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 0.5, (-1, 1): 0, (1, -1): 0, (1, 1): -2})
    assert hash(sparse) == hash(dense)
    unique = {gyni_inequality(), renamed, svetlichny_inequality(), chsh_inequality(),
              sparse, dense}
    assert unique == {gyni_inequality(), svetlichny_inequality(), chsh_inequality(), sparse}
    assert len(unique) == 4
