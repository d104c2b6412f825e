"""Every table keyed by +/-1 input tuples goes through one checked codec.

``scenarios.tuple_index`` accepts a key of length n whose entries each equal
+1 or -1 and returns its canonical position; anything else raises
``ValidationError``. ``scenarios.canonical_values`` orders a whole table
through it. The first tests feed each entry point keys that a truncating or
ignoring check would let through; the rest pin the codec itself.
"""

import math

import numpy as np
import pytest

from bellccp import (
    BellInequality,
    CcpInstance,
    ValidationError,
    bell_value,
    canonical_strategy,
    chsh_inequality,
    correlator_table,
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
    lambda: bell_value({**correlator_table(canonical_strategy("gyni-paper")), BAD_X: 0.0},
                       gyni_inequality()),
], ids=["outcome-x", "bell-value-key"])
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
    (5, "x must be a tuple"),
])
def test_tuple_index_rejects_everything_else(x, message):
    with pytest.raises(ValidationError, match=message):
        scenarios.tuple_index(x, 2, "x")


def test_canonical_values_fills_or_requires_every_tuple():
    table = {(1, 1): "d", (-1, -1): "a"}
    assert scenarios.canonical_values(table, 2, "x", 0) == ["a", 0, 0, "d"]
    with pytest.raises(ValidationError, match=r"x table is missing \[\(-1, 1\), \(1, -1\)\]"):
        scenarios.canonical_values(table, 2, "x")


def test_reversed_tables_build_equal_values_in_canonical_order():
    ineq = gyni_inequality()
    tuples = input_tuples(3)
    reversed_ineq = BellInequality(scenario=ineq.scenario,
                                   coeffs={x: ineq.coeffs[x] for x in reversed(tuples)})
    assert reversed_ineq == ineq and list(reversed_ineq.coeffs) == list(tuples)


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
