"""Every +/-1 input tuple enters through one checked codec.

``scenarios.tuple_index`` accepts a tuple of length n whose entries each
equal +1 or -1 (not a bool) and returns its canonical position, the index
into every (2^n,) array over the input tuples; anything else raises
``ValidationError``. Coefficient tables, config entries and outcome rows
all take their positions from it. The first tests feed each entry point
keys that a truncating or ignoring check would let through; the rest pin
the codec itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellccp import (
    BellInequality,
    CcpInstance,
    ValidationError,
    canonical_strategy,
    chsh_inequality,
    gyni_inequality,
    input_tuples,
    make_scenario,
    outcome_distribution,
    svetlichny_inequality,
)
from bellccp import scenarios
from bellccp.config import inequality_from_config, strategy_from_config, strategy_to_config

CHSH_SCENARIO = make_scenario(2, [(1,), (2,)])
BAD_X = (1.9, -1.3, 1)


@pytest.mark.parametrize("key", [(1.5, -1), (-1.7, 1), ("1", -1)])
def test_inequality_rejects_keys_that_are_not_signs(key):
    coeffs = {(-1, -1): 1, (1, 1): -1, key: 2}
    with pytest.raises(ValidationError, match="coefficient tuple entries must be"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs=coeffs)


@pytest.mark.parametrize("coeffs", [5, [1, 2]], ids=["number", "list"])
def test_inequality_rejects_tables_that_are_not_mappings(coeffs):
    with pytest.raises(ValidationError, match="must be a mapping"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs=coeffs)
    with pytest.raises(ValidationError, match="needs a CausalScenario"):
        BellInequality(scenario=5, coeffs={(1, 1): 1})


def _inequality_config_with_x(x):
    return {"scenario": {"n": 2, "visibility": [[1], [2]]},
            "coeffs": [{"x": [-1, -1], "q": 1}, {"x": x, "q": -1}]}


def _strategy_config_with_setting(setting):
    strategy = canonical_strategy("gyni-paper")
    config = strategy_to_config(strategy)
    # The first entry is party 1's (-1, -1) row; a truncating loader reads
    # the setting below as that same row and loads the preset unchanged.
    assert config["observables"][0]["setting"] == [-1, -1]
    config["observables"][0] = dict(config["observables"][0], setting=setting)
    return config, strategy.scenario


@pytest.mark.parametrize("load", [
    lambda: inequality_from_config(_inequality_config_with_x([1.5, -1])),
    lambda: strategy_from_config(*_strategy_config_with_setting([-1.6, -1.2])),
], ids=["inequality-x", "observable-setting"])
def test_config_rejects_entries_that_are_not_signs(load):
    with pytest.raises(ValidationError, match="entries must be"):
        load()


@pytest.mark.parametrize("call", [
    lambda: outcome_distribution(canonical_strategy("gyni-paper"), BAD_X),
], ids=["outcome-x"])
def test_game_functions_reject_inputs_that_are_not_signs(call):
    with pytest.raises(ValidationError, match="entries must be"):
        call()


@pytest.mark.parametrize("n", range(1, 7))
def test_tuple_index_is_the_canonical_position(n):
    for k, x in enumerate(input_tuples(n)):
        assert scenarios.tuple_index(x, n, "x") == k
        assert scenarios.tuple_index(tuple(float(v) for v in x), n, "x") == k
        assert scenarios.tuple_index(tuple(np.int64(v) for v in x), n, "x") == k
        assert scenarios.tuple_index(list(x), n, "x") == k


@pytest.mark.parametrize("x,message", [
    ((1, -1, 1), "x must have length 2, got 3"),
    ((1,), "x must have length 2, got 1"),
    ((1, 0), "x entries must be"),
    ((1, 1.5), "x entries must be"),
    ((-1.7, 1), "x entries must be"),
    (("1", -1), "x entries must be"),
    ((math.nan, 1), "x entries must be"),
    ((True, -1), "x entries must be"),
    ((np.True_, -1), "x entries must be"),
    (5, "x must be a tuple"),
])
def test_tuple_index_rejects_everything_else(x, message):
    with pytest.raises(ValidationError, match=message):
        scenarios.tuple_index(x, 2, "x")


def test_reversed_tables_build_equal_values_in_canonical_order():
    ineq = gyni_inequality()
    tuples = input_tuples(3)
    reversed_ineq = BellInequality(scenario=ineq.scenario,
                                   coeffs={x: ineq.coeffs[x] for x in reversed(tuples)})
    assert reversed_ineq == ineq and list(reversed_ineq.coeffs) == list(tuples)


def test_two_keys_for_one_input_tuple_are_rejected():
    # range(1, -2, -2) iterates as (1, -1): the same tuple as the first key.
    coeffs = {(1, -1): 1, range(1, -2, -2): 5, (1, 1): 1}
    with pytest.raises(ValidationError, match=r"two coefficient entries for x = \(1, -1\)"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs=coeffs)


@pytest.mark.parametrize("given,stored", [
    ({(-1, -1): 3, (1, 1): -2}, [(3, int), (0, int), (0, int), (-2, int)]),
    ({(-1, -1): 3.0, (1, 1): -2.0}, [(3, int), (0, int), (0, int), (-2, int)]),
    ({(-1, -1): 0.5, (1, 1): -2, (1, -1): 4.0}, [(0.5, float), (0, int), (4, int), (-2, int)]),
    ({(np.int64(-1), np.float64(-1.0)): np.int64(3), (1, 1): np.float64(-2.0),
      (1, -1): np.float32(0.5)}, [(3, int), (0, int), (0.5, float), (-2, int)]),
], ids=["ints", "integral-floats", "mixed", "numpy-scalars"])
def test_coefficient_value_types_are_pinned(given, stored):
    ineq = BellInequality(scenario=CHSH_SCENARIO, coeffs=given)
    assert list(ineq.coeffs) == list(input_tuples(2))
    assert [(q, type(q)) for q in ineq.coeffs.values()] == stored
    exact = all(kind is int for _, kind in stored)
    assert ineq.coefficient_array().dtype == (np.int64 if exact else float)
    assert type(ineq.gamma) is (int if exact else float)


def test_the_first_bad_entry_in_mapping_order_is_reported():
    # Each entry is checked in turn: a bad value before a bad key is the one reported.
    with pytest.raises(ValidationError, match=r"coefficient Q\(1, -1\) must be a finite real"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs={(1, -1): True, ("1", 1): 2})
    with pytest.raises(ValidationError, match="coefficient tuple entries must be"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs={("1", 1): 2, (1, -1): True})
    with pytest.raises(ValidationError, match=r"coefficient Q\(1, 1\) must be a finite real"):
        BellInequality(scenario=CHSH_SCENARIO, coeffs={(1, 1): None, (-1, -1): math.inf})


_EXACT = 2**53 - 1
_KEY_KINDS = [int, float, np.int64]
_VALUES = st.one_of(
    st.integers(-_EXACT, _EXACT),
    st.integers(-_EXACT, _EXACT).map(float),
    st.floats(-_EXACT, _EXACT),
    st.integers(-_EXACT, _EXACT).map(np.int64),
    st.floats(-_EXACT, _EXACT).map(np.float64),
)


@st.composite
def _given_tables(draw):
    """n, then (position, key, value) for a random subset of positions in random order."""
    n = draw(st.integers(2, 6))
    positions = draw(st.permutations(range(2**n)))[:draw(st.integers(1, 2**n))]
    entries = [(k, tuple(map(draw(st.sampled_from(_KEY_KINDS)), input_tuples(n)[k])), draw(_VALUES))
               for k in positions]
    return n, entries


@settings(max_examples=40, deadline=None)
@given(_given_tables())
def test_one_pass_intake_matches_its_definition(table):
    n, entries = table
    # The definition: canonical order with zeros elsewhere; an entry is an
    # int exactly when it is integral; float64 exactly when some entry is a
    # float; Gamma sums |Q| over that list; sign(0) = +1.
    want = [0] * 2**n
    for k, _, q in entries:
        want[k] = int(q) if q == int(q) else float(q)
    scenario = make_scenario(n, [(i,) for i in range(1, n + 1)])
    coeffs = {x: q for _, x, q in entries}
    if not any(want):
        with pytest.raises(ValidationError, match="all coefficients are zero"):
            BellInequality(scenario=scenario, coeffs=coeffs)
        return
    exact = all(type(q) is int for q in want)
    ineq = BellInequality(scenario=scenario, coeffs=coeffs)
    assert [(x, q, type(q)) for x, q in ineq.coeffs.items()] == [
        (x, q, type(q)) for x, q in zip(input_tuples(n), want)]
    array = ineq.coefficient_array()
    assert array.dtype == (np.int64 if exact else np.float64)
    assert array.tobytes() == np.array(want, dtype=array.dtype).tobytes()
    gamma = sum(abs(q) for q in want)
    assert type(ineq.gamma) is type(gamma) and ineq.gamma == gamma
    assert ineq.sign_array().tolist() == [-1 if q < 0 else 1 for q in want]
    assert ineq.sign_array().dtype == np.int8
    canonical = BellInequality(scenario=scenario, coeffs={
        input_tuples(n)[k]: q for k, _, q in sorted(entries, key=lambda entry: entry[0])})
    assert ineq == canonical and hash(ineq) == hash(canonical)


def _random_integer_inequalities():
    rng = np.random.default_rng(19)
    for n in range(2, 7):
        for _ in range(3):
            q = rng.integers(-4, 5, size=2**n)
            q[rng.integers(2**n)] = 1
            yield BellInequality(scenario=make_scenario(n, [(i,) for i in range(1, n + 1)]),
                                 coeffs={x: int(v) for x, v in zip(input_tuples(n), q)})


@pytest.mark.parametrize("ineq", [gyni_inequality(), svetlichny_inequality(),
                                  chsh_inequality(), *_random_integer_inequalities()])
def test_default_distribution_is_abs_q_over_gamma_bit_for_bit(ineq):
    want = np.array([abs(q) / ineq.gamma for q in ineq.coeffs.values()])
    instance = CcpInstance(inequality=ineq)
    assert instance.probability_vector().tobytes() == want.tobytes()
