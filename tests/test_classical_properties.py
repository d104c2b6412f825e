"""Property tests: both exact classical searches against plain listings.

Scenarios and integer coefficients are random with n <= 4, small enough
to list every strategy. On every case the two searches also meet the
paper's identity: the best one-bit broadcast protocol succeeds with
probability exactly 1/2 + bound / (2 Gamma), equal as floats to the bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellccp import (
    BellInequality,
    CcpInstance,
    ccp_exhaustive_bound,
    classical_bound,
    classical_success_bound,
    input_tuples,
    make_scenario,
)

import oracles

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def coefficients(draw, n):
    values = draw(st.lists(st.integers(-3, 3), min_size=2**n, max_size=2**n).filter(any))
    return dict(zip(input_tuples(n), values))


@st.composite
def listable_inequalities(draw):
    """n in 2..4 with at most 10 settings over all parties, so at most 2^10
    deterministic strategies. At n = 4 every party sees only its own input;
    n = 4 parties that see a neighbour come from neighbour_inequalities."""
    n = draw(st.integers(2, 4))
    spare = (10 if n < 4 else 8) - 2 * n
    visibility = []
    for i in range(1, n + 1):
        others = draw(st.permutations([j for j in range(1, n + 1) if j != i]))
        extra = draw(st.integers(0, max(e for e in range(n) if 2 ** (e + 1) - 2 <= spare)))
        spare -= 2 ** (extra + 1) - 2
        visibility.append((i, *others[:extra]))
    return BellInequality(scenario=make_scenario(n, visibility), coeffs=draw(coefficients(n)))


@st.composite
def protocol_inequalities(draw):
    """n = 2 with any visibility, or n = 3 with every party seeing only its
    own input."""
    if draw(st.booleans()):
        n = 2
        visibility = [(1, 2) if draw(st.booleans()) else (1,),
                      (2, 1) if draw(st.booleans()) else (2,)]
    else:
        n = 3
        visibility = [(1,), (2,), (3,)]
    return BellInequality(scenario=make_scenario(n, visibility), coeffs=draw(coefficients(n)))


@st.composite
def neighbour_inequalities(draw):
    """n = 4 with one or two parties that also see one ring neighbour."""
    seeing = draw(st.sets(st.integers(1, 4), min_size=1, max_size=2))
    visibility = []
    for i in range(1, 5):
        neighbour = i % 4 + 1 if draw(st.booleans()) else (i - 2) % 4 + 1
        visibility.append((i, neighbour) if i in seeing else (i,))
    return BellInequality(scenario=make_scenario(4, visibility), coeffs=draw(coefficients(4)))


def _best_listed(ineq, listed):
    """Best oracles.message_success over listed message tables. For each party
    ``listed(size)`` gives every table of every other party over its ``size``
    settings, as pairs (message at y = -1, message at y = +1); the party's own
    table stays all +1, since its score never reads its own message."""
    scenario = ineq.scenario
    q = ineq.coefficient_array().tolist()
    sizes = [2 ** scenario.arity(i) for i in range(1, scenario.n + 1)]
    best = 0.0
    for party in range(1, scenario.n + 1):
        choices = [[[(1, 1)] * size] if i == party else listed(size)
                   for i, size in enumerate(sizes, start=1)]
        for tables in itertools.product(*choices):
            best = max(best, oracles.message_success(scenario.n, scenario.visibility,
                                                     tables, q, party))
    return best


def best_listed_protocol(ineq):
    """Best success over every message table m(setting, y)."""
    return _best_listed(ineq, lambda size: [
        list(zip(out[0::2], out[1::2])) for out in itertools.product((1, -1), repeat=2 * size)])


def best_listed_y_odd_protocol(ineq):
    """Best success over the y-odd tables m = y * h(setting) of every listed
    response table h."""
    return _best_listed(ineq, lambda size: [
        [(-h, h) for h in outputs] for outputs in itertools.product((1, -1), repeat=size)])


@PROPERTY_SETTINGS
@given(listable_inequalities())
def test_bound_is_best_listed_strategy(ineq):
    n, visibility = ineq.n, ineq.scenario.visibility
    q = ineq.coefficient_array().tolist()
    bound, witness = classical_bound(ineq)
    assert bound == max(oracles.deterministic_bell_value(n, visibility, tables, q)
                        for tables in oracles.response_tables(visibility))
    assert oracles.deterministic_bell_value(
        n, visibility, [table.tolist() for table in witness.tables], q) == bound
    assert ccp_exhaustive_bound(CcpInstance(inequality=ineq)) == classical_success_bound(ineq)


@PROPERTY_SETTINGS
@given(listable_inequalities())
def test_witness_is_odometer_first_maximizer(ineq):
    scenario = ineq.scenario
    value, tables = oracles.odometer_first_maximizer(
        scenario.n, list(scenario.visibility), ineq.coeffs)
    bound, witness = classical_bound(ineq)
    assert bound == value
    assert [w.tolist() for w in witness.tables] == [
        [table[s] for s in scenario.visible_tuples(i)] for i, table in enumerate(tables, start=1)]


@PROPERTY_SETTINGS
@given(protocol_inequalities())
def test_protocol_search_is_best_listed_protocol(ineq):
    instance = CcpInstance(inequality=ineq)
    searched = ccp_exhaustive_bound(instance)
    assert searched == pytest.approx(best_listed_protocol(ineq), abs=1e-12)
    assert searched == classical_success_bound(ineq)


@PROPERTY_SETTINGS
@given(protocol_inequalities())
def test_y_odd_search_is_best_listed_y_odd_protocol(ineq):
    instance = CcpInstance(inequality=ineq)
    searched = ccp_exhaustive_bound(instance, message_family="y-odd")
    assert searched == pytest.approx(best_listed_y_odd_protocol(ineq), abs=1e-12)
    assert searched == classical_success_bound(ineq)


@PROPERTY_SETTINGS
@given(neighbour_inequalities())
def test_neighbour_search_meets_success_bound(ineq):
    # Two neighbour-seeing parties need 2^18 + 2^14 combinations, inside the
    # default guard.
    searched = ccp_exhaustive_bound(CcpInstance(inequality=ineq))
    assert searched == classical_success_bound(ineq)


@pytest.mark.parametrize("seed, visibility", [
    (77, [(1,), (2,), (3,), (4,)]),
    (81, [(1,), (2,), (3,), (4,)]),
    (73, [(1, 2), (2,), (3,), (4,)]),
])
def test_four_party_y_odd_search_is_best_listed_y_odd_protocol(seed, visibility):
    # At n = 4 each party's search keys one other party's messages and folds
    # another's, which the n <= 3 cases above never do. In the first two
    # cases the best protocol needs a keyed party's second function.
    rng = np.random.default_rng(seed)
    coeffs = {}
    while not any(coeffs.values()):
        coeffs = {x: int(rng.integers(-3, 4)) for x in input_tuples(4)}
    ineq = BellInequality(scenario=make_scenario(4, visibility), coeffs=coeffs)
    searched = ccp_exhaustive_bound(CcpInstance(inequality=ineq), message_family="y-odd")
    assert searched == pytest.approx(best_listed_y_odd_protocol(ineq), abs=1e-12)
