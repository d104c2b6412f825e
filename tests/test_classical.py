"""Tests for deterministic-strategy enumeration and the protocol search."""

import tracemalloc

import numpy as np
import pytest

from bellccp import (
    BellInequality,
    CcpInstance,
    DeterministicStrategy,
    EnumerationGuardError,
    ValidationError,
    ccp_exhaustive_bound,
    chsh_inequality,
    classical_bound,
    classical_success_bound,
    exact_success,
    gyni_inequality,
    input_tuples,
    make_scenario,
    svetlichny_inequality,
)
from bellccp import classical
from bellccp.classical import MESSAGE_WORK_GUARD

import oracles


def _random_scenario(rng, max_arity=2):
    visibility = []
    for i in range(1, 4):
        others = [j for j in range(1, 4) if j != i]
        rng.shuffle(others)
        extra = int(rng.integers(0, max_arity))
        visibility.append((i, *others[:extra]))
    return make_scenario(3, visibility)


def _random_inequality(rng, scenario):
    coeffs = {}
    while not any(coeffs.values()):
        coeffs = {x: int(rng.integers(-3, 4)) for x in input_tuples(scenario.n)}
    return BellInequality(scenario=scenario, coeffs=coeffs)


def _constant(scenario, value):
    """The strategy in which every party always outputs ``value``."""
    return DeterministicStrategy(scenario=scenario, tables=[
        np.full(2 ** scenario.arity(i), value) for i in range(1, scenario.n + 1)])


def _value(tables, ineq):
    """The oracle's sum_x Q(x) prod_i a_i(x) of one table per party."""
    return oracles.deterministic_bell_value(ineq.n, ineq.scenario.visibility, tables,
                                            ineq.coefficient_array().tolist())


def _strategy_value(strategy, ineq):
    return _value([table.tolist() for table in strategy.tables], ineq)


def test_all_plus_strategies():
    for ineq, value in ((gyni_inequality(), 6), (svetlichny_inequality(), 4)):
        assert _strategy_value(_constant(ineq.scenario, 1), ineq) == value


def test_bell_value_is_an_int_when_q_is_integral():
    ineq = gyni_inequality()
    assert type(classical_bound(ineq)[0]) is int
    halves = BellInequality(scenario=ineq.scenario,
                            coeffs={x: q / 2 for x, q in ineq.coeffs.items()})
    value = classical_bound(halves)[0]
    assert type(value) is float and value == 3.0


def test_global_flip_negates_for_three_parties():
    # With three parties, negating every output negates prod_i a_i, so every
    # passing round fails and every failing round passes.
    instance = CcpInstance(inequality=gyni_inequality())
    plus = exact_success(instance, _constant(instance.inequality.scenario, 1))
    minus = exact_success(instance, _constant(instance.inequality.scenario, -1))
    assert plus == 0.875 and minus == 1 - plus


def test_known_bounds():
    assert classical_bound(gyni_inequality())[0] == 6
    assert classical_bound(svetlichny_inequality())[0] == 4
    assert classical_bound(chsh_inequality())[0] == 2


def test_bound_matches_plain_odometer_oracle():
    cases = [gyni_inequality(), svetlichny_inequality(), chsh_inequality()]
    rng = np.random.default_rng(7)
    for _ in range(6):
        scenario = _random_scenario(rng)
        cases.append(_random_inequality(rng, scenario))
    for ineq in cases:
        expected = oracles.odometer_classical_bound(
            ineq.n, list(ineq.scenario.visibility), ineq.coeffs)
        assert classical_bound(ineq)[0] == expected


def test_witness_attains_bound_and_no_strategy_beats_it():
    for ineq in (gyni_inequality(), svetlichny_inequality(), chsh_inequality()):
        bound, witness = classical_bound(ineq)
        assert _strategy_value(witness, ineq) == bound
        assert all(_value(tables, ineq) <= bound
                   for tables in oracles.response_tables(ineq.scenario.visibility))


def test_bound_leaves_the_inequality_unchanged():
    ineq = gyni_inequality()
    before = dict(vars(ineq))
    first = classical_bound(ineq)
    assert vars(ineq) == before
    assert classical_bound(ineq) == first


def test_cyclic_relabeling_invariance():
    # The ring structure maps onto itself under the party cycle 1->2->3->1;
    # permuting a coefficient table the same way must not move the bound.
    scenario = gyni_inequality().scenario
    rng = np.random.default_rng(11)
    for _ in range(5):
        ineq = _random_inequality(rng, scenario)
        rotated = BellInequality(scenario=scenario, coeffs={
            (x[2], x[0], x[1]): q for x, q in ineq.coeffs.items()})
        assert classical_bound(ineq)[0] == classical_bound(rotated)[0]


def test_visibility_enlargement_never_decreases_bound():
    rng = np.random.default_rng(13)
    for _ in range(20):
        scenario = _random_scenario(rng, max_arity=1)
        ineq = _random_inequality(rng, scenario)
        party = int(rng.integers(1, 4))
        missing = [j for j in range(1, 4) if j not in scenario.visibility[party - 1]]
        if not missing:
            continue
        enlarged_vis = list(scenario.visibility)
        enlarged_vis[party - 1] = (*enlarged_vis[party - 1], missing[0])
        enlarged = BellInequality(scenario=make_scenario(3, enlarged_vis), coeffs=ineq.coeffs)
        assert classical_bound(enlarged)[0] >= classical_bound(ineq)[0]


def test_full_visibility_bound_is_gamma():
    full = make_scenario(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    rng = np.random.default_rng(17)
    for _ in range(20):
        ineq = _random_inequality(rng, full)
        assert classical_bound(ineq)[0] == ineq.gamma


def test_enumeration_guard():
    big = make_scenario(5, [(i, *(j for j in range(1, 6) if j != i)) for i in range(1, 6)])
    coeffs = {x: 1 for x in input_tuples(5)}
    with pytest.raises(EnumerationGuardError):
        classical_bound(BellInequality(scenario=big, coeffs=coeffs))


def test_enumeration_guard_bounds_swept_work(monkeypatch):
    # Every party sees three inputs: the strategy space is exactly 2^40, but
    # the sweep would cover 128^4 combinations over 32 input tuples (2^33).
    scenario = make_scenario(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)])
    ineq = BellInequality(scenario=scenario, coeffs={x: 1 for x in input_tuples(5)})

    def no_sweep(arity):
        raise AssertionError("the sweep started before the guard was checked")

    monkeypatch.setattr(classical, "_response_matrix", no_sweep)
    with pytest.raises(EnumerationGuardError, match=r"an estimated [0-9.e+]+ s"):
        classical_bound(ineq)


def test_enumeration_guard_counts_reduced_sweep(monkeypatch):
    # gyni sweeps two parties with 16 response functions each, one of every
    # +/- pair: 8 * 8 combinations over 8 input tuples.
    ineq = gyni_inequality()
    monkeypatch.setattr(classical, "SWEEP_WORK_GUARD", 8 * 8 * 8)
    assert classical_bound(ineq)[0] == 6
    monkeypatch.setattr(classical, "SWEEP_WORK_GUARD", 8 * 8 * 8 - 1)
    with pytest.raises(EnumerationGuardError,
                       match="sweeping 64 combinations over 8 input tuples"):
        classical_bound(ineq)


def test_success_bounds():
    assert classical_success_bound(gyni_inequality()) == 0.875
    assert classical_success_bound(svetlichny_inequality()) == 0.75
    scenario = make_scenario(2, [(1, 2), (2, 1)])
    full = BellInequality(scenario=scenario, coeffs={x: 1 for x in input_tuples(2)})
    assert classical_success_bound(full) == 1.0


def test_chsh_exhaustive_protocol_search():
    instance = CcpInstance(inequality=chsh_inequality())
    assert ccp_exhaustive_bound(instance) == 0.75
    assert ccp_exhaustive_bound(instance) == classical_success_bound(chsh_inequality())


def test_trivial_inequality_is_winnable():
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={x: 1 for x in input_tuples(2)})
    assert ccp_exhaustive_bound(CcpInstance(inequality=ineq)) == 1.0


def test_gyni_product_form_search():
    instance = CcpInstance(inequality=gyni_inequality())
    assert ccp_exhaustive_bound(instance, message_family="y-odd") == 0.875


def test_gyni_full_search_matches_formula():
    instance = CcpInstance(inequality=gyni_inequality())
    assert ccp_exhaustive_bound(instance, message_family="all") == 0.875


def test_exhaustive_equals_success_bound_on_small_instances():
    rng = np.random.default_rng(23)
    scenario = make_scenario(2, [(1,), (2,)])
    for _ in range(5):
        ineq = _random_inequality(rng, scenario)
        instance = CcpInstance(inequality=ineq)
        assert ccp_exhaustive_bound(instance) == pytest.approx(
            classical_success_bound(ineq), abs=1e-12)


def test_four_party_search_matches_formula():
    # n = 4 exercises the multi-party head loop in the message search; the
    # searched optimum must still land exactly on 1/2 + bound / (2 Gamma).
    rng = np.random.default_rng(41)
    scenario = make_scenario(4, [(1,), (2,), (3,), (4,)])
    for _ in range(3):
        coeffs = {x: int(rng.integers(-2, 3)) for x in input_tuples(4)}
        if not any(coeffs.values()):
            continue
        ineq = BellInequality(scenario=scenario, coeffs=coeffs)
        expected = oracles.odometer_classical_bound(4, list(scenario.visibility), ineq.coeffs)
        assert classical_bound(ineq)[0] == expected
        instance = CcpInstance(inequality=ineq)
        assert ccp_exhaustive_bound(instance) == pytest.approx(
            classical_success_bound(ineq), abs=1e-12)


def test_message_guard(monkeypatch):
    instance = CcpInstance(inequality=gyni_inequality())
    assert 3 * 2**16 <= MESSAGE_WORK_GUARD
    monkeypatch.setattr(classical, "MESSAGE_WORK_GUARD", 10)
    with pytest.raises(EnumerationGuardError):
        ccp_exhaustive_bound(instance)


def test_unknown_message_family_is_rejected_before_the_guard(monkeypatch):
    instance = CcpInstance(inequality=gyni_inequality())
    monkeypatch.setattr(classical, "MESSAGE_WORK_GUARD", 10)
    with pytest.raises(ValidationError, match="'bogus'"):
        ccp_exhaustive_bound(instance, message_family="bogus")


@pytest.mark.parametrize("family, combos", [("all", 3 * 128**2), ("y-odd", 3 * 8**2)])
def test_message_guard_counts_scored_combinations(monkeypatch, family, combos):
    # Each gyni party scores every pair of the other two parties' functions.
    instance = CcpInstance(inequality=gyni_inequality())
    monkeypatch.setattr(classical, "MESSAGE_WORK_GUARD", combos)
    assert ccp_exhaustive_bound(instance, message_family=family) == 0.875
    monkeypatch.setattr(classical, "MESSAGE_WORK_GUARD", combos - 1)
    with pytest.raises(EnumerationGuardError, match=f"needs {combos} combinations"):
        ccp_exhaustive_bound(instance, message_family=family)


@pytest.mark.parametrize("chunk", [100, 400])
def test_message_search_blocks_agree(chunk, monkeypatch):
    # Caps that are not powers of two leave partial head and tail blocks.
    rng = np.random.default_rng(53)
    scenario = make_scenario(4, [(1, 2), (2,), (3,), (4, 3)])
    coeffs = {x: int(rng.integers(-3, 4)) or 1 for x in input_tuples(4)}
    instances = [CcpInstance(inequality=gyni_inequality()),
                 CcpInstance(inequality=svetlichny_inequality()),
                 CcpInstance(inequality=BellInequality(scenario=scenario, coeffs=coeffs))]
    expected = [ccp_exhaustive_bound(instance, message_family="y-odd") for instance in instances]
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    for instance, value in zip(instances, expected):
        assert ccp_exhaustive_bound(instance, message_family="y-odd") == pytest.approx(
            value, abs=1e-12)
    assert expected[:2] == [0.875, 0.75]


@pytest.mark.parametrize("chunk", [100, 400])
def test_message_search_blocks_agree_on_all_functions(chunk, monkeypatch):
    # As test_message_search_blocks_agree, for the full family: its halved
    # tables put the head and tail block boundaries elsewhere.
    rng = np.random.default_rng(61)
    scenario = make_scenario(3, [(1, 2), (2,), (3, 1)])
    coeffs = {x: int(rng.integers(-3, 4)) or 1 for x in input_tuples(3)}
    instances = [CcpInstance(inequality=gyni_inequality()),
                 CcpInstance(inequality=svetlichny_inequality()),
                 CcpInstance(inequality=BellInequality(scenario=scenario, coeffs=coeffs))]
    expected = [ccp_exhaustive_bound(instance) for instance in instances]
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    for instance, value in zip(instances, expected):
        assert ccp_exhaustive_bound(instance) == pytest.approx(value, abs=1e-12)
    assert expected[:2] == [0.875, 0.75]


def test_message_search_memory_stays_bounded():
    # Party 1's 2^15 message functions (one of each +/- class) are the tail
    # for parties 2 and 3, so the search must block them as well as the
    # head; its 2^19 + 64 combinations fit the default guard.
    rng = np.random.default_rng(59)
    scenario = make_scenario(3, [(1, 2, 3), (2,), (3,)])
    coeffs = {x: int(rng.integers(-3, 4)) or 1 for x in input_tuples(3)}
    ineq = BellInequality(scenario=scenario, coeffs=coeffs)
    instance = CcpInstance(inequality=ineq)
    tracemalloc.start()
    try:
        value = ccp_exhaustive_bound(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert value == pytest.approx(classical_success_bound(ineq), abs=1e-12)


def test_protocol_messages_reach_the_bound():
    # The broadcast m_i = y_i a_i of the optimal deterministic strategy,
    # scored via pointwise-optimal guessing, attains the success bound.
    ineq = gyni_inequality()
    _, witness = classical_bound(ineq)
    messages = [[(-a, a) for a in table.tolist()] for table in witness.tables]
    for party in (1, 2, 3):
        assert oracles.message_success(3, ineq.scenario.visibility, messages,
                                       ineq.coefficient_array().tolist(),
                                       party) == pytest.approx(0.875, abs=1e-12)


def test_message_search_dominates_sampled_strategies():
    ineq = chsh_inequality()
    instance = CcpInstance(inequality=ineq)
    rng = np.random.default_rng(29)
    scenario = ineq.scenario
    q = ineq.coefficient_array().tolist()
    best = ccp_exhaustive_bound(instance)
    for _ in range(25):
        tables = [[[int(rng.choice((-1, 1))) for _y in (-1, 1)]
                   for _t in scenario.visible_tuples(i)] for i in (1, 2)]
        for party in (1, 2):
            assert oracles.message_success(2, scenario.visibility, tables, q,
                                           party) <= best + 1e-12


def test_equal_witnesses_hash_alike():
    first = classical_bound(gyni_inequality())[1]
    second = classical_bound(gyni_inequality())[1]
    assert first is not second
    assert first == second and hash(first) == hash(second)
    # Equal tables given as float lists are equal and hash alike.
    floats = DeterministicStrategy(scenario=first.scenario,
                                   tables=[t.astype(float).tolist() for t in first.tables])
    assert floats == first and hash(floats) == hash(first)
    assert floats.tables[0].dtype == np.int8
    assert len({first, second, _constant(first.scenario, -1)}) == 2


def test_witness_tables_are_read_only():
    ineq = gyni_inequality()
    bound, witness = classical_bound(ineq)
    with pytest.raises(ValueError):
        witness.tables[0][0] = -witness.tables[0][0]
    # The table a caller passed in stays the caller's: changing it later does
    # not reach the stored strategy.
    tables = [np.ones(4, dtype=np.int8) for _ in range(3)]
    strategy = DeterministicStrategy(scenario=ineq.scenario, tables=tables)
    tables[0][0] = -1
    assert set(strategy.tables[0].tolist()) == {1}
    assert classical_bound(ineq) == (bound, witness)
    assert _strategy_value(classical_bound(ineq)[1], ineq) == bound


def _set_last(tables, value):
    tables[-1].flat[-1] = value
    return tables


@pytest.mark.parametrize("kind", [DeterministicStrategy], ids=["deterministic"])
@pytest.mark.parametrize("edit", [
    lambda t: _set_last(t, 0),
    lambda t: _set_last(t, 1.5),
    lambda t: _set_last(t, np.nan),
    lambda t: [t[0].astype(str), *t[1:]],
    lambda t: [t[0][:-1], *t[1:]],
    lambda t: [np.ones((len(t[0]), 3)), *t[1:]],
    lambda t: [[[1, 1], [1]], *t[1:]],
    lambda t: t[:-1],
    lambda t: 5,
], ids=["zero", "one-and-a-half", "nan", "string", "short", "wide", "ragged", "party-missing",
        "not-a-list"])
def test_tables_outside_the_layout_are_rejected(kind, edit):
    scenario = gyni_inequality().scenario
    tables = [np.ones(2 ** scenario.arity(i)) for i in range(1, scenario.n + 1)]
    assert kind(scenario=scenario, tables=tables).tables[0].dtype == np.int8
    with pytest.raises(ValidationError):
        kind(scenario=scenario, tables=edit(tables))
    with pytest.raises(ValidationError, match="needs a CausalScenario"):
        kind(scenario=None, tables=())


def _tie_heavy_cases():
    # Coefficients in {-1, 0, 1} leave many maximizers, so only the first in
    # odometer order matches the oracle. n = 2 has one swept party; the last
    # two scenarios sweep a party with three visible inputs.
    visibilities = [
        [(1,), (2,)], [(1, 2), (2,)], [(1, 2), (2, 1)],
        [(1, 3), (2, 1), (3, 2)], [(1, 2), (2, 1), (3,)], [(1,), (2,), (3,)],
        [(1, 4), (2, 1), (3, 2), (4, 3)], [(1, 2), (2, 1), (3, 4), (4, 3)],
        [(1,), (2, 3), (3,), (4, 1)],
        [(1, 2, 3), (2, 3, 4), (3,), (4,)], [(1, 4), (2, 1, 3), (3, 4, 1), (4,)],
    ]
    rng = np.random.default_rng(43)
    for visibility in visibilities:
        n = len(visibility)
        for _ in range(3):
            q = rng.integers(-1, 2, size=2**n)
            q[0] = q[0] or 1
            yield visibility, {x: int(v) for x, v in zip(input_tuples(n), q)}


def _in_setting_order(tables, visibility):
    """The oracle's {setting: output} dicts as lists by setting index."""
    return [[table[s] for s in input_tuples(len(group))]
            for table, group in zip(tables, visibility)]


@pytest.mark.parametrize("visibility, coeffs", list(_tie_heavy_cases()))
def test_witness_is_first_maximizer(visibility, coeffs, monkeypatch):
    n = len(visibility)
    value, tables = oracles.odometer_first_maximizer(n, visibility, coeffs)
    # The default blocks, then blocks of at most four combinations, so that
    # ties also fall across blocks and inside the tail.
    for chunk in (classical._CHUNK, 4):
        monkeypatch.setattr(classical, "_CHUNK", chunk)
        ineq = BellInequality(scenario=make_scenario(n, visibility), coeffs=coeffs)
        bound, witness = classical_bound(ineq)
        assert bound == value
        assert [w.tolist() for w in witness.tables] == _in_setting_order(tables, visibility)


def test_non_integral_bound_matches_first_maximizer():
    rng = np.random.default_rng(47)
    visibility = [(1, 2), (2, 3), (3,), (4, 1)]
    coeffs = {x: float(v) for x, v in zip(input_tuples(4), rng.normal(size=16))}
    ineq = BellInequality(scenario=make_scenario(4, visibility), coeffs=coeffs)
    value, _tables = oracles.odometer_first_maximizer(4, visibility, coeffs)
    bound, witness = classical_bound(ineq)
    assert abs(bound - value) <= 1e-12 * ineq.gamma
    assert abs(_strategy_value(witness, ineq) - bound) <= 1e-12 * ineq.gamma
