"""Tests for protocol rounds, sessions, and randomness sources."""

import dataclasses
import hashlib
import itertools
import json
import math
import tempfile
import tracemalloc
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bellccp import (
    BeaconRecordsSource,
    BellInequality,
    BitFileSource,
    CcpInstance,
    DeterministicStrategy,
    RandomnessExhaustedError,
    SeededPrng,
    ValidationError,
    beacon_load,
    canonical_strategy,
    classical_bound,
    classical_success_bound,
    evaluate_strategy,
    exact_success,
    gyni_inequality,
    input_tuples,
    make_scenario,
    MixedState,
    outcome_distribution,
    parse_beacon_records,
    PureState,
    QuantumStrategy,
    RoundRecord,
    SessionLog,
    random_strategy,
    run_session,
    success_probability,
    svetlichny_inequality,
    write_session_log,
)
from bellccp import protocol
from bellccp.randomness import BitStreamSource

import oracles


def _gyni_instance():
    return CcpInstance(inequality=gyni_inequality())


def _input_draws(instance, rng, draws):
    """(x, y) of each round of a session whose parties always output +1. Such
    a round draws one x uniform and n y bits, and no outcome uniform."""
    scenario = instance.inequality.scenario
    strategy = DeterministicStrategy(scenario=scenario, tables=[
        np.ones(2 ** scenario.arity(i)) for i in range(1, scenario.n + 1)])
    return [(r.x, r.y) for r in run_session(instance, strategy, draws, rng).rounds]


def test_sample_inputs_deterministic_replay():
    instance = _gyni_instance()
    draws_a = _input_draws(instance, SeededPrng(42), 1)
    rng1, rng2 = SeededPrng(42), SeededPrng(42)
    stream1 = _input_draws(instance, rng1, 200)
    stream2 = _input_draws(instance, rng2, 200)
    assert stream1 == stream2
    assert stream1[0] == draws_a[0]


def test_sample_inputs_chi_square():
    instance = _gyni_instance()
    rng = SeededPrng(7)
    counts = {x: 0 for x in input_tuples(3)}
    draws = 100_000
    for x, _ in _input_draws(instance, rng, draws):
        counts[x] += 1
    expected = draws / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < stats.chi2.ppf(0.999, df=7)


def test_zero_mass_tuples_never_drawn():
    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 2, (-1, 1): 0, (1, -1): 1, (1, 1): 1})
    instance = CcpInstance(inequality=ineq)
    rng = SeededPrng(3)
    seen = {x for x, _ in _input_draws(instance, rng, 100_000)}
    assert (-1, 1) not in seen
    assert seen == {(-1, -1), (1, -1), (1, 1)}


def test_y_bits_are_fair():
    instance = _gyni_instance()
    rng = SeededPrng(11)
    total = np.zeros(3)
    draws = 40_000
    for _, y in _input_draws(instance, rng, draws):
        total += y
    assert np.all(np.abs(total) < 5 * np.sqrt(draws))


def test_round_record_invariants():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    rng = SeededPrng(5)
    sign_q = {x: (1 if instance.inequality.coeffs[x] >= 0 else -1) for x in input_tuples(3)}
    for record in run_session(instance, strategy, 300, rng).rounds:
        assert record.m == tuple(record.y[i] * record.a[i] for i in range(3))
        assert record.guess == record.m[0] * record.m[1] * record.m[2]
        assert record.passed == (record.guess == record.f_value)
        prod_a = record.a[0] * record.a[1] * record.a[2]
        assert record.passed == (prod_a == sign_q[record.x])
        # all parties share one guess: it equals prod(y) * prod(a)
        prod_y = record.y[0] * record.y[1] * record.y[2]
        assert record.guess == prod_y * prod_a
        assert record.settings == tuple(
            oracles.visible_tuple(record.x, group)
            for group in instance.inequality.scenario.visibility)


def test_record_built_from_lists_stores_tuples_and_derives_the_rest():
    record = RoundRecord(x=[1, -1, 1], y=[1, 1, -1], settings=[[1, 1], [-1, 1], [1, -1]],
                         a=[-1, 1, 1], f_value=1)
    assert (record.x, record.y, record.a) == ((1, -1, 1), (1, 1, -1), (-1, 1, 1))
    assert record.settings == ((1, 1), (-1, 1), (1, -1))
    assert hash(record) == hash(RoundRecord(x=(1, -1, 1), y=(1, 1, -1), a=(-1, 1, 1),
                                            settings=((1, 1), (-1, 1), (1, -1)), f_value=1))
    with pytest.raises(AttributeError):
        record.x.append(5)
    assert (record.m, record.guess, record.passed) == ((-1, 1, -1), 1, True)
    flipped = dataclasses.replace(record, f_value=-record.f_value)
    assert (flipped.guess, flipped.passed) == (1, False)


def test_flipping_all_y_leaves_pass_unchanged():
    inequality = _gyni_instance().inequality
    x_idx, y_idx, a_idx = np.array(list(itertools.product(range(8), repeat=3))).T

    def rounds(y_idx):
        keys = ((x_idx << 3 | y_idx) << 3 | a_idx).astype(np.uint32)
        return protocol.SessionRounds(keys, inequality)

    # Inverting every bit of a canonical index negates every entry of its tuple.
    first, second = rounds(y_idx), rounds(0b111 ^ y_idx)
    assert len({(r.x, r.y, r.a) for r in first}) == 8**3
    for record, flipped in zip(first, second):
        assert flipped.y == tuple(-v for v in record.y)
        assert record.passed == flipped.passed
        assert record.f_value == -flipped.f_value or len(record.y) % 2 == 0


def test_exact_success_matches_formula_for_quantum():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    lhs = exact_success(instance, strategy)
    rhs = success_probability(evaluate_strategy(strategy, instance.inequality), 8.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(0.96194, abs=5e-5)


def test_exact_success_random_strategies_identity():
    rng = np.random.default_rng(31)
    for ineq in (gyni_inequality(), svetlichny_inequality()):
        instance = CcpInstance(inequality=ineq)
        for k in range(20):
            strategy = random_strategy(ineq.scenario, rng, mixed=(k % 5 == 4))
            lhs = exact_success(instance, strategy)
            rhs = success_probability(evaluate_strategy(strategy, ineq), ineq.gamma)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_exact_success_classical_witness_and_bound():
    ineq = gyni_inequality()
    instance = CcpInstance(inequality=ineq)
    _, witness = classical_bound(ineq)
    assert exact_success(instance, witness) == 0.875
    bound = classical_success_bound(ineq)
    for tables in oracles.response_tables(ineq.scenario.visibility):
        strategy = DeterministicStrategy(scenario=ineq.scenario, tables=tables)
        assert exact_success(instance, strategy) <= bound + 1e-12


def test_exact_success_svetlichny_canonical():
    instance = CcpInstance(inequality=svetlichny_inequality())
    value = exact_success(instance, canonical_strategy("svetlichny-paper"))
    assert value == pytest.approx(0.5 * (1 + np.sqrt(2) / 2), abs=1e-9)


@pytest.mark.parametrize("kind", ["quantum", "deterministic"])
def test_exact_success_rejects_mismatched_scenario(kind):
    instance = _gyni_instance()
    ineq = svetlichny_inequality()
    strategy = (canonical_strategy("svetlichny-paper") if kind == "quantum"
                else classical_bound(ineq)[1])
    message = "strategy scenario does not match the instance"
    with pytest.raises(ValidationError, match=message):
        run_session(instance, strategy, 1, SeededPrng(1))
    with pytest.raises(ValidationError, match=message):
        exact_success(instance, strategy)


def test_session_statistics_classical_witness():
    ineq = gyni_inequality()
    instance = CcpInstance(inequality=ineq)
    _, witness = classical_bound(ineq)
    log = run_session(instance, witness, 100_000, SeededPrng(17))
    assert abs(log.estimate - 0.875) <= 3 * log.std_error
    assert log.successes <= log.num_rounds
    assert 0.0 <= log.estimate <= 1.0


def test_session_statistics_quantum():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    log = run_session(instance, strategy, 100_000, SeededPrng(19), keep_rounds=False)
    assert abs(log.estimate - 0.96188) <= 3 * log.std_error


def test_single_round_session():
    instance = _gyni_instance()
    log = run_session(instance, canonical_strategy("gyni-paper"), 1, SeededPrng(23))
    assert log.estimate in (0.0, 1.0)


def _reference_record(ineq, x, y, a):
    """One round scored from the game's definition, as its log line's dict:
    m = y a, guess = prod(m), f = prod(y) sign Q(x) with sign(0) = +1,
    settings the visible tuples, and pass when the guess equals f."""
    m = [y_i * a_i for y_i, a_i in zip(y, a)]
    guess = math.prod(m)
    f_value = math.prod(y) * (-1 if ineq.coeffs[x] < 0 else 1)
    settings = [list(oracles.visible_tuple(x, group)) for group in ineq.scenario.visibility]
    return {"x": list(x), "y": list(y), "settings": settings, "a": list(a), "m": m,
            "guess": guess, "f_value": f_value, "pass": guess == f_value}


def _scalar_replay(instance, strategy, rounds, rng):
    """Reference session: one uniform()/bit() call at a time, outcomes by
    inverse CDF over outcome_distribution, records from the game's
    definition. Returns the records and the exhaustion error, if the source
    ran dry."""
    tuples = input_tuples(instance.inequality.n)

    def pick(probabilities):
        cum = np.cumsum(probabilities)
        cum[-1] = 1.0
        return tuples[int(np.searchsorted(cum, rng.uniform(), side="right"))]

    records = []
    for _ in range(rounds):
        try:
            x = pick(instance.probability_vector())
            y = tuple(1 - 2 * rng.bit() for _ in tuples[0])
            if isinstance(strategy, QuantumStrategy):
                a = pick(outcome_distribution(strategy, x))
            else:
                sc = strategy.scenario
                a = tuple(int(table[sc.visible_tuples(i).index(oracles.visible_tuple(x, group))])
                          for i, (table, group) in enumerate(zip(strategy.tables, sc.visibility),
                                                             start=1))
        except RandomnessExhaustedError as exc:
            return records, exc
        records.append(_reference_record(instance.inequality, x, y, a))
    return records, None


def _sources(kind, stream_bytes, tmp_path):
    """Two fresh sources of one kind, replaying the same stream."""
    if kind == "prng":
        return SeededPrng(29), SeededPrng(29)
    data = np.random.default_rng(29).bytes(stream_bytes)
    if kind == "bit-file":
        path = tmp_path / "bits.bin"
        path.write_bytes(data)
        return BitFileSource(path), BitFileSource(path)
    records = [data[k:k + 64] for k in range(0, len(data) - 63, 64)]
    return BeaconRecordsSource(records), BeaconRecordsSource(records)


def _strategy(kind):
    if kind == "quantum":
        return canonical_strategy("gyni-paper")
    return classical_bound(gyni_inequality())[1]


def test_vectorized_and_scalar_sessions_agree():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    fast = run_session(instance, strategy, 400, SeededPrng(29))
    records, _ = _scalar_replay(instance, strategy, 400, SeededPrng(29))
    assert sum(r["pass"] for r in records) == fast.successes
    assert [r.to_json_dict() for r in fast.rounds] == records


@pytest.mark.parametrize("block", [protocol._BLOCK_ROUNDS, 7])
@pytest.mark.parametrize("sessions", [1, 2])
@pytest.mark.parametrize("strategy_kind", ["quantum", "deterministic"])
@pytest.mark.parametrize("source_kind", ["prng", "bit-file", "beacon"])
def test_every_source_matches_scalar_replay(monkeypatch, tmp_path, source_kind,
                                            strategy_kind, sessions, block):
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    instance = _gyni_instance()
    strategy = _strategy(strategy_kind)
    # 11008 bytes fund two back-to-back 400-round sessions at 109 bits a round.
    fast_rng, scalar_rng = _sources(source_kind, 11008, tmp_path)
    for _ in range(sessions):
        fast = run_session(instance, strategy, 400, fast_rng)
        records, exhausted = _scalar_replay(instance, strategy, 400, scalar_rng)
        assert exhausted is None
        assert sum(r["pass"] for r in records) == fast.successes
        assert [r.to_json_dict() for r in fast.rounds] == records
        assert getattr(fast_rng, "cursor", None) == getattr(scalar_rng, "cursor", None)


@pytest.mark.parametrize("block", [protocol._BLOCK_ROUNDS, 3])
@pytest.mark.parametrize("strategy_kind, stride", [("quantum", 109), ("deterministic", 56)])
@pytest.mark.parametrize("source_kind", ["bit-file", "beacon"])
def test_exhaustion_with_partial_round_matches_scalar_replay(
        monkeypatch, tmp_path, source_kind, strategy_kind, stride, block):
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    instance = _gyni_instance()
    strategy = _strategy(strategy_kind)
    # Two records: 1024 bits leave a partial final round at either stride.
    fast_rng, scalar_rng = _sources(source_kind, 128, tmp_path)
    assert fast_rng.bits_total % stride != 0
    run_session(instance, strategy, 1, fast_rng)
    _scalar_replay(instance, strategy, 1, scalar_rng)
    with pytest.raises(RandomnessExhaustedError) as err:
        run_session(instance, strategy, 100, fast_rng)
    records, exhausted = _scalar_replay(instance, strategy, 100, scalar_rng)
    completed = (fast_rng.bits_total - stride) // stride
    assert err.value.rounds_completed == len(records) == completed
    assert str(err.value) == f"randomness exhausted after {completed} complete rounds"
    assert err.value.bits_consumed == exhausted.bits_consumed == fast_rng.bits_total
    assert fast_rng.cursor == scalar_rng.cursor == fast_rng.bits_total
    assert str(err.value.__cause__) == str(exhausted)


@st.composite
def session_cases(draw):
    """A scenario with n = 2-6 parties, integer coefficients with some zero,
    a pure, mixed or deterministic strategy, a block size, and a PRNG seed
    or the bytes of a bit file that may run dry."""
    n = draw(st.integers(2, 6))
    visibility = []
    for i in range(1, n + 1):
        others = draw(st.permutations([j for j in range(1, n + 1) if j != i]))
        visibility.append((i, *others[:draw(st.integers(0, min(n - 1, 2)))]))
    scenario = make_scenario(n, visibility)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    q = rng.integers(-3, 4, size=dim)
    q[draw(st.integers(0, dim - 1))] = 0
    q[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-2, 1, 3]))
    ineq = BellInequality(scenario=scenario, coeffs=dict(zip(input_tuples(n), q.tolist())))
    kind = draw(st.sampled_from(["pure", "mixed", "deterministic"]))
    if kind == "deterministic":
        strategy = DeterministicStrategy(scenario=scenario, tables=[
            rng.choice([-1, 1], size=2 ** len(group)).tolist() for group in visibility])
    else:
        amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
        if kind == "mixed":
            rank = draw(st.integers(1, 4))
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            rho = g @ g.conj().T
            state = MixedState(rho / np.trace(rho).real)
        tables = [rng.standard_normal((2 ** len(group), 3)) for group in visibility]
        strategy = QuantumStrategy(scenario=scenario, state=state, bloch_tables=[
            t / np.linalg.norm(t, axis=1, keepdims=True) for t in tables])
    rounds = draw(st.integers(1, 30))
    source = draw(st.one_of(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=480)))
    return CcpInstance(inequality=ineq), strategy, rounds, draw(st.integers(1, 8)), source


@settings(max_examples=30, deadline=None)
@given(session_cases())
def test_sessions_on_random_scenarios_match_scalar_replay(case):
    instance, strategy, rounds, block, source = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(source, int):
            fast_rng, scalar_rng = SeededPrng(source), SeededPrng(source)
        else:
            path = Path(tmp) / "bits.bin"
            path.write_bytes(source)
            fast_rng, scalar_rng = BitFileSource(path), BitFileSource(path)
        records, exhausted = _scalar_replay(instance, strategy, rounds, scalar_rng)
        with mock.patch.object(protocol, "_BLOCK_ROUNDS", block):
            if exhausted is None:
                fast = run_session(instance, strategy, rounds, fast_rng)
                assert [r.to_json_dict() for r in fast.rounds] == records
                assert fast.successes == sum(r["pass"] for r in records)
            else:
                with pytest.raises(RandomnessExhaustedError) as err:
                    run_session(instance, strategy, rounds, fast_rng)
                assert err.value.rounds_completed == len(records)
    if isinstance(source, int):
        assert fast_rng.uniform() == scalar_rng.uniform()
    else:
        assert fast_rng.cursor == scalar_rng.cursor


def _uniform_bits(u: float) -> list:
    """The 53 bits, most significant first, that a bit source reads as the
    uniform u = k / 2^53."""
    return [int(b) for b in format(int(u * 2**53), "053b")]


def _bit_file(tmp_path, bits) -> BitFileSource:
    path = tmp_path / "bits.bin"
    path.write_bytes(np.packbits(np.array(bits, dtype=np.uint8)).tobytes())
    return BitFileSource(path)


def test_uniforms_on_a_cdf_boundary_draw_the_next_input(tmp_path):
    # Always-+1 parties draw one x uniform and n y bits a round and no
    # outcome uniform. A uniform equal to a cumulative weight selects the
    # input after it, as searchsorted(side="right") does, so one on the
    # boundary of a zero-weight input skips that input.
    gyni = _gyni_instance()
    assert np.array_equal(gyni.probability_vector(), np.full(8, 0.125))
    boundaries = [k / 8 for k in range(8)]
    bits = [b for u in boundaries for b in _uniform_bits(u) + [0, 0, 0]]
    draws = _input_draws(gyni, _bit_file(tmp_path, bits), len(boundaries))
    assert [x for x, _ in draws] == list(input_tuples(3))

    scenario = make_scenario(2, [(1,), (2,)])
    ineq = BellInequality(scenario=scenario, coeffs={
        (-1, -1): 2, (-1, 1): 0, (1, -1): 1, (1, 1): 1})
    instance = CcpInstance(inequality=ineq)
    # Cumulative weights 0.5, 0.5, 0.75, 1.0.
    uniforms = [0.0, 0.5 - 2**-53, 0.5, 0.75 - 2**-53, 0.75, 1 - 2**-53]
    bits = [b for u in uniforms for b in _uniform_bits(u) + [0, 0]]
    draws = _input_draws(instance, _bit_file(tmp_path, bits), len(uniforms))
    assert [x for x, _ in draws] == [(-1, -1), (-1, -1), (1, -1), (1, -1), (1, 1), (1, 1)]


def test_long_session_memory_stays_bounded():
    # Sampling holds one block's draws and one flat index per round, not a
    # (rounds, 2^n) slice of the outcome CDFs, so a 200000-round six-party
    # session peaks well below what one such slice of a block would take.
    rng = np.random.default_rng(61)
    scenario = make_scenario(6, [(i, i % 6 + 1) for i in range(1, 7)])
    q = rng.integers(-3, 4, size=64)
    q[0] = q[0] or 1
    ineq = BellInequality(scenario=scenario, coeffs=dict(zip(input_tuples(6), q.tolist())))
    instance = CcpInstance(inequality=ineq)
    strategy = random_strategy(scenario, rng)
    tracemalloc.start()
    try:
        log = run_session(instance, strategy, 200_000, SeededPrng(3), keep_rounds=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert log.num_rounds == 200_000 and log.rounds == ()


@pytest.mark.parametrize("strategy_kind", ["quantum", "deterministic"])
@pytest.mark.parametrize("source_kind", ["prng", "bit-file", "beacon"])
def test_written_log_is_header_plus_one_dumped_record_per_round(
        monkeypatch, tmp_path, source_kind, strategy_kind):
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 7)
    monkeypatch.setattr(protocol, "_WRITE_ROUNDS", 5)
    instance = _gyni_instance()
    rng, _ = _sources(source_kind, 11008, tmp_path)
    log = run_session(instance, _strategy(strategy_kind), 400, rng,
                      config={"source": source_kind})
    path = tmp_path / "session.jsonl"
    write_session_log(log, path)
    expected = [json.dumps({"header": log.config})]
    expected += [json.dumps(record.to_json_dict()) for record in log.rounds]
    assert path.read_text() == "".join(line + "\n" for line in expected)


def test_equal_rounds_share_one_record_per_block(monkeypatch):
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    rounds = run_session(instance, strategy, 20000, SeededPrng(31)).rounds
    assert isinstance(rounds, Sequence) and len(rounds) == 20000
    # One block: equal records are one object, at most 8^3 of them.
    assert len({id(r) for r in rounds}) == len(set(rounds)) <= 8**3
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 4096)
    blocked = run_session(instance, strategy, 20000, SeededPrng(31)).rounds
    assert blocked == rounds
    for start in range(0, 20000, 4096):
        block = blocked[start:start + 4096]
        assert len({id(r) for r in block}) == len(set(block)) <= 8**3


def test_kept_rounds_cost_about_one_reference_each():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    run_session(instance, strategy, 1, SeededPrng(31))     # fill the per-object caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run_session(instance, strategy, 20000, SeededPrng(31))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.rounds) == 20000
    assert retained / 20000 < 32


def _traced_peak(call):
    """What ``call()`` returns and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kept_session_peaks_at_its_keys_plus_one_block(monkeypatch):
    # The keys are written into one array as the blocks are drawn, so the
    # peak is that array's 4 B a round plus one block's working set.
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 4096)
    instance, strategy, rounds = _gyni_instance(), canonical_strategy("gyni-paper"), 500_000
    run_session(instance, strategy, 1, SeededPrng(31))     # fill the per-object caches
    _, block = _traced_peak(lambda: run_session(instance, strategy, rounds, SeededPrng(31),
                                                keep_rounds=False))
    log, peak = _traced_peak(lambda: run_session(instance, strategy, rounds, SeededPrng(31)))
    assert len(log.rounds) == rounds
    assert peak <= 4 * rounds + block + 2**18


def test_log_writer_memory_does_not_grow_with_rounds(tmp_path):
    # The writer finds each round's line by rank in a table over all keys,
    # a chunk of rounds at a time, so ten times the rounds peaks alike.
    instance, strategy = _gyni_instance(), canonical_strategy("gyni-paper")
    peaks = []
    for rounds in (20_000, 200_000):
        log = run_session(instance, strategy, rounds, SeededPrng(37))
        peaks.append(_traced_peak(lambda: write_session_log(log, tmp_path / "log.jsonl"))[1])
    assert peaks[1] <= peaks[0] + 2**18


def test_kept_rounds_cost_one_key_each():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    run_session(instance, strategy, 1, SeededPrng(31))     # fill the per-object caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run_session(instance, strategy, 20000, SeededPrng(31))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.rounds) == 20000
    assert retained / 20000 <= 8


def test_kept_round_keys_are_read_only_uint32():
    rounds = run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300,
                         SeededPrng(2)).rounds
    assert rounds.keys.dtype == np.uint32 and rounds.keys.shape == (300,)
    with pytest.raises(ValueError, match="read-only"):
        rounds.keys[0] = 0


def test_unkept_session_builds_no_view_and_no_header(monkeypatch):
    calls = []
    monkeypatch.setattr(protocol, "strategy_fingerprint", lambda s: calls.append("fingerprint"))
    monkeypatch.setattr(SeededPrng, "describe", lambda self: calls.append("describe"))
    given = {"command": "simulate"}
    log = run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300, SeededPrng(2),
                      keep_rounds=False, config=given)
    assert log.rounds == () and log.config is given and calls == []
    assert run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300, SeededPrng(2),
                       keep_rounds=False).config == {}
    assert run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300,
                       SeededPrng(2)).successes == log.successes
    assert calls == ["describe", "fingerprint"]


def test_unkept_session_cannot_be_written(tmp_path):
    log = run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300, SeededPrng(2),
                      keep_rounds=False)
    path = tmp_path / "session.jsonl"
    with pytest.raises(ValidationError, match="written from the rounds run_session kept"):
        write_session_log(log, path)
    assert not path.exists()


def test_rounds_length_builds_no_record(monkeypatch):
    rounds = run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 1000,
                         SeededPrng(3)).rounds
    built = []
    post_init = RoundRecord.__post_init__

    def counting(record):
        built.append(record)
        post_init(record)

    monkeypatch.setattr(RoundRecord, "__post_init__", counting)
    assert len(rounds) == 1000 and built == []
    rounds[-1]
    assert len(built) == 1


def test_rounds_index_slice_and_iteration_give_the_replayed_records():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    rounds = run_session(instance, strategy, 400, SeededPrng(29)).rounds
    records, _ = _scalar_replay(instance, strategy, 400, SeededPrng(29))
    listed = list(rounds)
    assert [r.to_json_dict() for r in listed] == records
    assert all(type(r.f_value) is int for r in listed)
    assert [rounds[k] for k in range(400)] == listed
    assert [rounds[k - 400] for k in range(400)] == listed
    assert rounds[np.int64(7)] == listed[7]
    assert rounds[5:300:7] == tuple(listed[5:300:7])
    assert rounds[::-1] == tuple(reversed(listed))
    # One call shares one record among its equal rounds.
    sliced = rounds[:]
    assert len({id(r) for r in sliced}) == len(set(sliced)) < 400
    for index in (400, -401):
        with pytest.raises(IndexError):
            rounds[index]
    with pytest.raises(TypeError):
        rounds[1.0]
    assert rounds == listed and rounds == tuple(listed) and listed == list(rounds)
    assert rounds != listed[:-1] and rounds != listed[::-1]
    assert len(repr(rounds)) < 60


def test_one_round_is_decoded_from_its_own_key():
    # An index reads its one key's bits; it builds no table over all 2^(3n)
    # keys, which at n = 6 would take 256 KB of flags and 2 MB of ranks.
    rounds = _six_party_log().rounds
    listed = list(rounds)
    for index in (0, 1, -1, len(rounds) // 2):
        assert rounds[index] == listed[index]
    rounds[3]                                   # fill the per-object caches
    record, peak = _traced_peak(lambda: rounds[2024])
    assert record == listed[2024]
    assert peak < 64 * 1024
    for index in (len(rounds), -len(rounds) - 1):
        with pytest.raises(IndexError):
            rounds[index]


@pytest.mark.parametrize("keep", [True, False], ids=["kept", "unkept"])
def test_equal_sessions_hash_alike(keep):
    logs = [run_session(_gyni_instance(), canonical_strategy("gyni-paper"), 300, SeededPrng(2),
                        keep_rounds=keep, config={"command": "simulate"}) for _ in range(2)]
    assert logs[0] == logs[1]
    assert hash(logs[0]) == hash(logs[1])
    assert len({*logs}) == 1


def test_only_kept_rounds_are_written(tmp_path):
    with pytest.raises(ValidationError, match="written from the rounds run_session kept"):
        write_session_log(SessionLog(rounds=(), num_rounds=1, successes=0),
                          tmp_path / "session.jsonl")


def _round_lines_digest(log, tmp_path):
    """sha256 of a written log's round lines, everything after the header."""
    path = tmp_path / "session.jsonl"
    write_session_log(log, path)
    return hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()


def _six_party_log():
    """5000 rounds of a random strategy on a random six-party ring."""
    rng = np.random.default_rng(6)
    scenario = make_scenario(6, [(i, (i - 2) % 6 + 1) for i in range(1, 7)])
    ineq = BellInequality(scenario=scenario, coeffs=dict(
        zip(input_tuples(6), rng.integers(-3, 4, size=64).tolist())))
    return run_session(CcpInstance(inequality=ineq), random_strategy(scenario, rng), 5000,
                       SeededPrng(6))


def test_six_party_round_lines_are_pinned(tmp_path):
    # Six parties give 18-bit round keys; nearly every round is distinct.
    log = _six_party_log()
    assert len(set(log.rounds)) == 4864
    assert _round_lines_digest(log, tmp_path) == (
        "b024213b749f1916349d762a4e2dd43fa4f8c2a04a7af71f52afed4d09e37a3f")


def test_deterministic_round_lines_are_pinned(tmp_path):
    ineq = svetlichny_inequality()
    log = run_session(CcpInstance(inequality=ineq), classical_bound(ineq)[1], 3000,
                      SeededPrng(7))
    assert _round_lines_digest(log, tmp_path) == (
        "98f2724d5e8d99a03a5a38c3b10aa4d2e65cb4685b5b33c40d5b894db9e375ea")


def test_session_estimate_converges_over_many_seeds():
    # Statistical gate: the empirical rate lands within 4 standard errors
    # of the exact success in at least 999 of 1000 seeded sessions.
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    target = exact_success(instance, strategy)
    hits = 0
    for seed in range(1000):
        log = run_session(instance, strategy, 10_000, SeededPrng(seed), keep_rounds=False)
        if abs(log.estimate - target) <= 4 * log.std_error:
            hits += 1
    assert hits >= 999


def test_session_validation(tmp_path):
    instance = _gyni_instance()
    # A fractional seed once played its floor; a negative one failed in numpy.
    for seed in (1.5, -1, None, "1"):
        with pytest.raises(ValidationError, match="seed"):
            SeededPrng(seed)
    assert type(SeededPrng(np.int64(3)).seed) is int
    for rounds in (0, 2.5, math.nan):
        with pytest.raises(ValidationError, match="rounds"):
            run_session(instance, canonical_strategy("gyni-paper"), rounds, SeededPrng(1))
    # An integral NumPy count is stored as a Python int, so the log stays JSON.
    log = run_session(instance, canonical_strategy("gyni-paper"), np.int64(5), SeededPrng(1))
    assert type(log.num_rounds) is int and log.num_rounds == 5
    write_session_log(log, tmp_path / "session.jsonl")
    header = json.loads((tmp_path / "session.jsonl").read_text().splitlines()[0])
    assert header["header"]["rounds"] == 5 and type(header["header"]["rounds"]) is int


def test_bit_file_source(tmp_path):
    path = tmp_path / "bits.bin"
    path.write_bytes(bytes([0b10110000, 0xFF]))
    source = BitFileSource(path)
    assert [source.bit() for _ in range(4)] == [1, 0, 1, 1]
    assert source.describe()["bits"] == 16


NOT_BYTES = [8, np.int64(2), True, [1, 2], "ab"]
NOT_BYTES_IDS = ["int", "numpy-int", "bool", "list-of-ints", "str"]


@pytest.mark.parametrize("data", NOT_BYTES, ids=NOT_BYTES_IDS)
def test_bit_stream_data_must_be_bytes_like(data):
    # bytes(8) is eight zero bytes: a number must not become a stream of zero bits.
    with pytest.raises(ValidationError, match=f"must be bytes-like, got {type(data).__name__}"):
        BitStreamSource(data)


@pytest.mark.parametrize("record", [*NOT_BYTES, [0] * 64, "ff" * 32],
                         ids=[*NOT_BYTES_IDS, "64-ints", "64-chars"])
def test_beacon_records_must_be_bytes_like(record):
    with pytest.raises(ValidationError,
                       match=f"record 1 must be bytes-like, got {type(record).__name__}"):
        BeaconRecordsSource([b"\x00" * 64, record])


@pytest.mark.parametrize("records", [5, None, b"\x00" * 64, "00" * 64,
                                     (b"\x00" * 64 for _ in range(2))],
                         ids=["int", "none", "bytes", "str", "generator"])
def test_beacon_records_must_be_a_sequence_of_records(records):
    message = f"must be a sequence of bytes-like records, got {type(records).__name__}"
    with pytest.raises(ValidationError, match=message):
        BeaconRecordsSource(records)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_bytes_like_data_gives_the_same_stream(wrap):
    data = bytes([0b10110000, 0xFF]) * 32
    source = BitStreamSource(wrap(data))
    assert [source.bit() for _ in range(16)] == [1, 0, 1, 1] + [0] * 4 + [1] * 8
    assert BeaconRecordsSource([wrap(data)]).describe()["bits"] == 512


def test_all_ones_record_yields_all_one_bits():
    source = BeaconRecordsSource([b"\xff" * 64])
    assert [source.bit() for _ in range(8)] == [1] * 8
    # a uniform built from 53 one-bits is just below 1
    rest = BeaconRecordsSource([b"\xff" * 64])
    assert rest.uniform() == pytest.approx(1.0, abs=1e-15)


def test_bit_exhaustion_reports_rounds_completed():
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    # One 512-bit record funds four full rounds (109 bits each).
    source = BeaconRecordsSource([b"\x5a" * 64])
    with pytest.raises(RandomnessExhaustedError) as err:
        run_session(instance, strategy, 100, source)
    assert err.value.rounds_completed == 4


def test_identical_record_files_give_identical_logs(tmp_path):
    text = ("ab" * 64 + "\n" + "cd" * 64 + "\n") * 2
    path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
    path_a.write_text(text)
    path_b.write_text(text)
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    log_a = run_session(instance, strategy, 15, beacon_load(path_a))
    log_b = run_session(instance, strategy, 15, beacon_load(path_b))
    assert log_a.rounds == log_b.rounds
    assert log_a.successes == log_b.successes


def test_beacon_parse_errors_name_byte_offset():
    good = "12" * 64
    with pytest.raises(ValidationError, match="byte offset 0"):
        parse_beacon_records(good[:-2])
    with pytest.raises(ValidationError, match=f"byte offset {len(good) + 1}"):
        parse_beacon_records(good + "\n" + "zz" * 64)
    with pytest.raises(ValidationError):
        parse_beacon_records("")


def test_beacon_fetch_caches_records(tmp_path):
    document = ("0f" * 64 + "\n") * 3
    remote = tmp_path / "remote.txt"
    remote.write_text(document)
    cache = tmp_path / "cache.txt"
    url = remote.as_uri()
    source = beacon_load(url, cache_path=cache)
    assert cache.read_text() == document
    assert source.describe()["records"] == 3
    replay = beacon_load(cache)
    instance = _gyni_instance()
    strategy = canonical_strategy("gyni-paper")
    first = run_session(instance, strategy, 5, source)
    second = run_session(instance, strategy, 5, replay)
    assert first.rounds == second.rounds


def test_beacon_fetch_requires_cache_path(tmp_path):
    remote = tmp_path / "remote.txt"
    remote.write_text("00" * 64 + "\n")
    with pytest.raises(ValidationError):
        beacon_load(remote.as_uri())


def test_deterministic_strategy_session_consumes_no_outcome_randomness():
    ineq = gyni_inequality()
    instance = CcpInstance(inequality=ineq)
    _, witness = classical_bound(ineq)
    # 56 bits per round (53 for x, 3 for y): one record funds 9 rounds.
    source = BeaconRecordsSource([b"\x33" * 64])
    log = run_session(instance, witness, 9, source)
    assert log.num_rounds == 9
