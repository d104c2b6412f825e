"""Tests for quantum correlators, distributions, and canonical strategies."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellccp import (
    CcpInstance,
    NumericError,
    QuantumStrategy,
    ValidationError,
    canonical_strategy,
    correlator_table,
    depolarize,
    evaluate_strategy,
    exact_success,
    ghz_state,
    gyni_inequality,
    input_tuples,
    outcome_distribution,
    random_strategy,
    success_probability,
    svetlichny_inequality,
    with_visibility,
)
from bellccp import cli
from bellccp.quantum import EXPERIMENT_VISIBILITY, random_bloch_tables
from bellccp.scenarios import make_scenario
from bellccp.qubits import ATOL, PAULI_ROWS, PureState

import oracles


def _uniform_tables(scenario, r):
    """Every party measures r . sigma at every setting."""
    return [np.tile(r, (2 ** scenario.arity(i), 1)) for i in range(1, scenario.n + 1)]


def _sigma_z_strategy(scenario):
    return QuantumStrategy(scenario=scenario, state=ghz_state(scenario.n),
                           bloch_tables=_uniform_tables(scenario, (0.0, 0.0, 1.0)))


def test_all_sigma_z_correlators_vanish():
    table = correlator_table(_sigma_z_strategy(gyni_inequality().scenario))
    # Oracle: 8-dimensional kron computation gives 0 for every tuple.
    vec = oracles.ghz_vector(3)
    zzz = oracles.kron_chain([oracles.SZ] * 3)
    assert oracles.pure_expectation(vec, zzz) == pytest.approx(0.0, abs=1e-12)
    assert table.shape == (8,) and table.dtype == np.float64
    for e in table:
        assert e == pytest.approx(0.0, abs=1e-9)


def test_maximally_mixed_correlators_vanish():
    scenario = gyni_inequality().scenario
    strategy = canonical_strategy("gyni-paper")
    noisy = QuantumStrategy(scenario=scenario, state=depolarize(ghz_state(3), 0.0),
                            bloch_tables=strategy.bloch_tables)
    assert all(e == pytest.approx(0.0, abs=1e-12) for e in correlator_table(noisy))


def test_bell_value_is_the_dot_product_of_q_and_the_correlators():
    rng = np.random.default_rng(13)
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        q = ineq.coefficient_array()
        assert q @ np.ones(8) == sum(ineq.coeffs.values())
        assert q @ np.zeros(8) == 0.0
        for k in range(4):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 2 == 1))
            value = evaluate_strategy(strategy, ineq)
            correlators = correlator_table(strategy)
            assert type(value) is float
            assert value == float(q @ correlators)
            # The term-by-term sum agrees to within the roundoff of its 8 terms.
            total = 0.0
            for q_x, e_x in zip(ineq.coeffs.values(), correlators.tolist(), strict=True):
                total += q_x * e_x
            assert abs(value - total) <= 8 * np.finfo(float).eps * ineq.gamma
        # Wherever E is taken, one of the wrong length is rejected.
        for wrong in (np.ones(7), np.ones(16)):
            with pytest.raises(ValueError):
                q @ wrong
            with pytest.raises(ValueError):
                cli._correlator_csv(ineq.n, wrong)


def test_canonical_svetlichny_value():
    ineq = svetlichny_inequality()
    value = evaluate_strategy(canonical_strategy("svetlichny-paper"), ineq)
    assert value == pytest.approx(4 * math.sqrt(2), abs=1e-9)
    assert success_probability(value, ineq.gamma) == pytest.approx(
        0.5 * (1 + math.sqrt(2) / 2), abs=1e-9)


def test_canonical_gyni_value():
    ineq = gyni_inequality()
    value = evaluate_strategy(canonical_strategy("gyni-paper"), ineq)
    assert 7.3909 <= value <= 7.3911
    assert 0.9619 <= success_probability(value, ineq.gamma) <= 0.9620


def test_canonical_gyni_correlators_are_uniform():
    # Every correlator of the optimal ring strategy has magnitude close to
    # cos(pi/8) with the sign of its coefficient.
    ineq = gyni_inequality()
    table = correlator_table(canonical_strategy("gyni-paper"))
    for e, q in zip(table, ineq.coeffs.values(), strict=True):
        assert e * q == pytest.approx(math.cos(math.pi / 8), abs=1e-3)


def test_unknown_strategy_name():
    with pytest.raises(ValidationError):
        canonical_strategy("bogus")


def test_success_probability_formula():
    assert success_probability(7.023, 8.0) == 0.9389375
    assert round(success_probability(7.023, 8.0), 4) == 0.9389
    assert success_probability(6.0, 8.0) == 0.875
    assert success_probability(0.0, 5.0) == 0.5
    with pytest.raises(ValidationError):
        success_probability(1.0, 0.0)
    with pytest.raises(NumericError):
        success_probability(10.0, 8.0)
    for b, gamma in ((math.nan, 8), (1, math.nan), (math.inf, 8), (1, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            success_probability(b, gamma)
    # Integers beyond the float range, where float() overflows.
    for b, gamma in ((10**400, 8), (1, 10**400), (-10**400, 10**401)):
        with pytest.raises(ValidationError, match="float range"):
            success_probability(b, gamma)


@given(st.integers(1, 2**70).flatmap(
    lambda g: st.tuples(st.integers(-g, g), st.just(g))))
@example((2, 3))
def test_integral_success_is_the_rounded_exact_fraction(case):
    b, g = case
    assert success_probability(b, g) == float(Fraction(1, 2) + Fraction(b, 2 * g))


def test_outcome_distribution_ghz_x_basis():
    scenario = gyni_inequality().scenario
    strategy = QuantumStrategy(scenario=scenario, state=ghz_state(3),
                               bloch_tables=_uniform_tables(scenario, (1.0, 0.0, 0.0)))
    x = (1, 1, 1)
    dist = outcome_distribution(strategy, x)
    # Oracle: explicit projector products on the raw GHZ vector.
    vec = oracles.ghz_vector(3)
    for a, p in zip(input_tuples(3), dist, strict=True):
        expected = oracles.outcome_probability(vec, [oracles.SX] * 3, a)
        assert p == pytest.approx(expected, abs=1e-12)
        parity = a[0] * a[1] * a[2]
        assert p == pytest.approx(0.25 if parity == 1 else 0.0, abs=1e-12)


def test_outcome_distribution_ghz_z_basis():
    dist = outcome_distribution(_sigma_z_strategy(gyni_inequality().scenario), (1, 1, 1))
    # (-1, -1, -1) is first in the canonical order and (1, 1, 1) last.
    assert dist[-1] == pytest.approx(0.5, abs=1e-12)
    assert dist[0] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_maximally_mixed_is_uniform():
    strategy = canonical_strategy("gyni-paper")
    noisy = QuantumStrategy(scenario=strategy.scenario, state=depolarize(ghz_state(3), 0.0),
                            bloch_tables=strategy.bloch_tables)
    dist = outcome_distribution(noisy, (-1, 1, -1))
    for p in dist:
        assert p == pytest.approx(1 / 8, abs=1e-12)


def test_distribution_parity_matches_correlator():
    rng = np.random.default_rng(5)
    scenario = gyni_inequality().scenario
    for _ in range(10):
        strategy = random_strategy(scenario, rng)
        table = correlator_table(strategy)
        for x, e in zip(input_tuples(3), table, strict=True):
            dist = outcome_distribution(strategy, x)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            parity = sum(p * np.prod(a) for a, p in zip(input_tuples(3), dist, strict=True))
            assert parity == pytest.approx(e, abs=1e-9)


def test_correlators_bounded_for_random_strategies():
    rng = np.random.default_rng(9)
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        for k in range(10):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 3 == 2))
            assert all(abs(e) <= 1 + 1e-9 for e in correlator_table(strategy))


def test_depolarization_scales_bell_value_linearly():
    ineq = gyni_inequality()
    strategy = canonical_strategy("gyni-paper")
    ideal = evaluate_strategy(strategy, ineq)
    for v in np.linspace(0.0, 1.0, 10):
        noisy = with_visibility(strategy, float(v))
        assert evaluate_strategy(noisy, ineq) == pytest.approx(v * ideal, abs=1e-9)


def test_correlators_invariant_under_global_phase():
    rng = np.random.default_rng(21)
    strategy = random_strategy(gyni_inequality().scenario, rng)
    phase = np.exp(1j * 0.7349)
    rotated = QuantumStrategy(scenario=strategy.scenario,
                              state=PureState(strategy.state.amplitudes * phase),
                              bloch_tables=strategy.bloch_tables)
    base = correlator_table(strategy)
    shifted = correlator_table(rotated)
    for e_shifted, e_base in zip(shifted, base, strict=True):
        assert e_shifted == pytest.approx(e_base, abs=1e-12)


def test_experiment_like_preset():
    strategy = canonical_strategy("experiment-like")
    ineq = gyni_inequality()
    ideal = evaluate_strategy(canonical_strategy("gyni-paper"), ineq)
    assert evaluate_strategy(strategy, ineq) == pytest.approx(
        EXPERIMENT_VISIBILITY * ideal, abs=1e-9)


def test_incomplete_observable_map_rejected():
    scenario = gyni_inequality().scenario
    tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
    with pytest.raises(ValidationError):      # party 1 only
        QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables[:1])
    with pytest.raises(ValidationError):      # a setting short
        QuantumStrategy(scenario=scenario, state=ghz_state(3),
                        bloch_tables=[tables[0][:3], *tables[1:]])
    for bad in (5, [5, 5, 5], [[(0.0, 0.0, 1.0), (0.0, 1.0)], *tables[1:]]):
        with pytest.raises(ValidationError):  # not one numeric array per party
            QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=bad)
    with pytest.raises(ValidationError, match="needs a CausalScenario"):
        QuantumStrategy(scenario=None, state=ghz_state(3), bloch_tables=tables)
    with pytest.raises(ValidationError, match="state must be"):
        QuantumStrategy(scenario=scenario, state=5, bloch_tables=tables)


def test_bloch_tables_are_checked_and_copied():
    scenario = gyni_inequality().scenario
    tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
    for bad in (np.nan, 0.5):
        broken = [table.copy() for table in tables]
        broken[2][1, 2] = bad
        with pytest.raises(ValidationError):
            QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=broken)
    strategy = QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables)
    tables[0][0] = (1.0, 0.0, 0.0)
    assert strategy.bloch_tables[0][0].tolist() == [0.0, 0.0, 1.0]
    assert isinstance(strategy.bloch_tables, tuple)
    for table in strategy.bloch_tables:
        assert not table.flags.writeable


@pytest.mark.parametrize("kind", ["gyni-paper", "svetlichny-paper", "experiment-like",
                                  "pure", "mixed"])
def test_eigenbases_match_each_partys_own_eigh(kind):
    # One eigh runs over the validated block the tables are views of; each
    # party's bases equal its own eigh bit for bit.
    if kind in ("pure", "mixed"):
        scenario = make_scenario(4, [(1, 2), (2,), (3, 1, 4), (4,)])
        strategy = random_strategy(scenario, np.random.default_rng(71), mixed=kind == "mixed")
    else:
        strategy = canonical_strategy(kind)
    assert all(np.shares_memory(table, strategy._rows) for table in strategy.bloch_tables)
    for table, bases in zip(strategy.bloch_tables, strategy._eigenbases, strict=True):
        assert np.array_equal(bases, np.linalg.eigh((table @ PAULI_ROWS).reshape(-1, 2, 2))[1])
        assert not bases.flags.writeable


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_bloch_entries_are_rejected_without_a_warning():
    scenario = gyni_inequality().scenario
    tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
    tables[1][2] = (1e200, 0.0, 0.0)
    with pytest.raises(ValidationError, match="party 2's Bloch vectors must be unit"):
        QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables)


def _one_bad_row_tables(scenario, party, row):
    tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
    tables[party - 1][0] = row
    return tables


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_pass_validation_names_the_first_bad_party():
    scenario = gyni_inequality().scenario
    tables = _one_bad_row_tables(scenario, 2, (0.5, 0.0, 0.0))
    tables[2][1] = (np.nan, 0.0, 0.0)
    with pytest.raises(ValidationError, match="party 2's Bloch vectors must be unit within"):
        QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables)
    for party in (1, 2, 3):
        with pytest.raises(ValidationError, match=f"party {party}'s Bloch vectors must be unit"):
            QuantumStrategy(scenario=scenario, state=ghz_state(3),
                            bloch_tables=_one_bad_row_tables(scenario, party, (1e200, 0, 0)))
        tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
        tables[party - 1] = np.full_like(tables[party - 1], np.nan)
        with pytest.raises(ValidationError, match=f"party {party}'s Bloch vectors must be finite"):
            QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables)


def test_bloch_tables_are_read_only_views_of_one_copy():
    scenario = gyni_inequality().scenario
    tables = _uniform_tables(scenario, (0.0, 0.0, 1.0))
    strategy = QuantumStrategy(scenario=scenario, state=ghz_state(3), bloch_tables=tables)
    stored = strategy.bloch_tables
    assert all(table.base is stored[0].base is not None for table in stored[1:])
    assert not any(np.shares_memory(table, given) for table in stored for given in tables)
    assert [table.shape for table in stored] == [table.shape for table in tables]
    assert all(not table.flags.writeable and table.flags.c_contiguous for table in stored)


def _ring_strategy(seed, mixed=False):
    ring = make_scenario(4, [(1, 4), (2, 1), (3, 2), (4, 3)])
    return random_strategy(ring, np.random.default_rng(seed), mixed=mixed)


def test_cached_eigenbases_are_read_only_eigenvectors():
    for strategy in (canonical_strategy("gyni-paper"), canonical_strategy("svetlichny-paper"),
                     _ring_strategy(1)):
        bases = strategy._eigenbases
        assert strategy._eigenbases is bases
        assert len(bases) == strategy.scenario.n
        for table, party in zip(strategy.bloch_tables, bases):
            assert party.shape == (len(table), 2, 2)
            with pytest.raises(ValueError):
                party[0, 0, 0] = 1.0
            for r, basis in zip(table, party):
                operator = oracles.bloch_operator(r)
                # Column 0 has eigenvalue -1 and column 1 has +1, as in the
                # canonical outcome order.
                for eigenvalue, vector in zip((-1.0, 1.0), basis.T):
                    assert np.max(np.abs(operator @ vector - eigenvalue * vector)) < ATOL
                assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < ATOL


def test_cached_eigenbases_stay_out_of_values_and_copies():
    built, fresh = canonical_strategy("experiment-like"), canonical_strategy("experiment-like")
    outcome_distribution(built, (1, 1, 1))
    assert "_eigenbases" in vars(built) and "_eigenbases" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert pickle.dumps(built) == pickle.dumps(fresh)
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
        assert copied == built
        assert "_eigenbases" not in vars(copied)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_rows_do_not_depend_on_the_order_they_are_read_in(mixed):
    strategy = _ring_strategy(3, mixed)
    twin = copy.deepcopy(strategy)
    tuples = input_tuples(4)
    forward = {x: outcome_distribution(strategy, x) for x in tuples}
    backward = {x: outcome_distribution(twin, x) for x in reversed(tuples)}
    for x in tuples:
        assert forward[x].shape == backward[x].shape == (len(tuples),)
        assert forward[x].tobytes() == backward[x].tobytes()


def test_rows_take_one_eigh_per_strategy_and_one_product_per_row(monkeypatch):
    from bellccp import quantum

    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for name in ("tensor_product", "expectation"):
        monkeypatch.setattr(quantum, name, counted(name, getattr(quantum, name)))
    instance = CcpInstance(gyni_inequality())
    rows = np.count_nonzero(instance.probability_vector())
    strategy = canonical_strategy("gyni-paper")
    exact_success(instance, strategy)
    exact_success(instance, strategy)
    assert sorted(calls) == ["eigh"] + ["expectation"] * 2 * rows + ["tensor_product"] * 2 * rows


def test_observables_are_read_only_in_canonical_order():
    strategy = canonical_strategy("gyni-paper")
    ineq = gyni_inequality()
    with pytest.raises(TypeError):
        strategy.observables[(1, (1, 1))] = strategy.observables[(1, (1, -1))]
    with pytest.raises(TypeError):
        del strategy.observables[(1, (1, 1))]
    # Outcome rows, built from the tables, agree with the correlators.
    implied = success_probability(evaluate_strategy(strategy, ineq), ineq.gamma)
    assert exact_success(CcpInstance(ineq), strategy) == pytest.approx(implied, abs=1e-12)
    scenario = strategy.scenario
    canonical = [(i, t) for i in range(1, 4) for t in scenario.visible_tuples(i)]
    assert list(strategy.observables) == canonical
    # The view reads the tables row by row and is built once.
    assert strategy.observables is strategy.observables
    for (i, t), obs in strategy.observables.items():
        row = strategy.bloch_tables[i - 1][scenario.visible_tuples(i).index(t)]
        assert obs.bloch.tolist() == row.tolist()


def test_strategies_compare_and_hash_by_value():
    for name in ("gyni-paper", "svetlichny-paper", "experiment-like"):
        a, b = canonical_strategy(name), canonical_strategy(name)
        assert a == b
        assert hash(a) == hash(b)
    gyni = canonical_strategy("gyni-paper")
    assert len({gyni, canonical_strategy("gyni-paper"), canonical_strategy("experiment-like")}) == 2
    flipped = [table.copy() for table in gyni.bloch_tables]
    flipped[2][3] = -flipped[2][3]          # party 3 at setting (+1, +1)
    other = QuantumStrategy(scenario=gyni.scenario, state=gyni.state, bloch_tables=flipped)
    assert other != gyni
    # -0.0 and 0.0 Bloch entries give the same strategy.
    signed = [np.where(table == 0.0, -0.0, table) for table in gyni.bloch_tables]
    twin = QuantumStrategy(scenario=gyni.scenario, state=gyni.state, bloch_tables=signed)
    assert twin == gyni
    assert hash(twin) == hash(gyni)


def _per_row_bloch_tables(scenario, rng):
    """The draw one setting at a time: a normal 3-vector per row, its norm
    from np.linalg.norm."""
    tables = []
    for i in range(1, scenario.n + 1):
        rows = []
        for _ in scenario.visible_tuples(i):
            vec = rng.standard_normal(3)
            while np.linalg.norm(vec) < 1e-12:
                vec = rng.standard_normal(3)
            rows.append(vec / np.linalg.norm(vec))
        tables.append(np.array(rows))
    return tables


def _per_party_bloch_tables(scenario, rng):
    """The draw one party at a time: a block of normal 3-vectors per party,
    each row divided by its np.linalg.norm."""
    tables = []
    for i in range(1, scenario.n + 1):
        block = rng.standard_normal((2 ** scenario.arity(i), 3))
        tables.append(block / np.array([np.linalg.norm(row) for row in block])[:, None])
    return tables


_DRAW_SCENARIOS = {
    "gyni": lambda: gyni_inequality().scenario,
    "svetlichny": lambda: svetlichny_inequality().scenario,
    "ring-4": lambda: make_scenario(4, [(1, 4), (2, 1), (3, 2), (4, 3)]),
    "exchange-5": lambda: make_scenario(5, [(1, 2), (2, 1), (3, 4), (4, 3), (5,)]),
}


@pytest.mark.parametrize("name", list(_DRAW_SCENARIOS))
def test_one_block_bloch_draw_matches_the_per_party_draw(name):
    scenario = _DRAW_SCENARIOS[name]()
    for seed in range(50):
        rng_block, rng_party = np.random.default_rng(seed), np.random.default_rng(seed)
        block = random_bloch_tables(scenario, rng_block)
        party = _per_party_bloch_tables(scenario, rng_party)
        assert len(block) == len(party) == scenario.n
        for a, b in zip(block, party):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert rng_block.standard_normal() == rng_party.standard_normal()


class _ScriptedNormals:
    """A generator stub that returns scripted normal draws and logs each
    requested shape."""

    def __init__(self, block, redraws):
        self.draws = [np.array(block, dtype=float), *map(np.array, redraws)]
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        draw = self.draws.pop(0)
        assert draw.shape == np.empty(shape).shape
        return draw.copy()


def test_short_rows_are_redrawn_after_the_whole_block():
    # gyni has 4 + 4 + 4 rows. Rows 1 (party 1) and 9 (party 3) come out of
    # the block as zero and tiny, and row 1's first redraw is zero again.
    scenario = gyni_inequality().scenario
    block = np.arange(1.0, 37.0).reshape(12, 3)
    block[1] = 0.0
    block[9] = (1e-13, 0.0, 0.0)
    rng = _ScriptedNormals(block, [(0.0, 0.0, 0.0), (0.0, 3.0, 4.0), (2.0, 0.0, 0.0)])
    tables = random_bloch_tables(scenario, rng)
    assert rng.shapes == [(12, 3), 3, 3, 3] and not rng.draws
    rows = np.concatenate(tables)
    assert [len(table) for table in tables] == [4, 4, 4]
    assert rows[1].tolist() == [0.0, 0.6, 0.8]
    assert rows[9].tolist() == [1.0, 0.0, 0.0]
    kept = np.delete(block, [1, 9], axis=0)
    assert np.array_equal(np.delete(rows, [1, 9], axis=0),
                          kept / np.array([np.linalg.norm(row) for row in kept])[:, None])
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-15)


def test_block_bloch_draw_matches_the_per_row_draw():
    scenarios = [gyni_inequality().scenario,
                 make_scenario(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5,)])]
    for scenario in scenarios:
        for seed in range(300):
            rng_block, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
            block = random_bloch_tables(scenario, rng_block)
            rows = _per_row_bloch_tables(scenario, rng_rows)
            assert len(block) == len(rows)
            for a, b in zip(block, rows):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert np.array_equal(a, b)
            # Both leave the stream at the same place.
            assert rng_block.standard_normal() == rng_rows.standard_normal()
