"""Round-by-round execution of the broadcast guessing game.

Each round: draw the input tuple x from q*(x) = |Q(x)| / Gamma and a
fair y bit per party, have every party measure (or look up) its outcome
a_i at its visible setting, broadcast m_i = y_i * a_i, and let everyone
guess the product of all messages. The guess equals y_1..y_n a_1..a_n, so
a round passes exactly when the outcome product matches the sign of Q(x);
the y's cancel between the guess and the target.

Randomness consumption per round is fixed for replay stability: one
uniform selects x by inverse CDF over the canonical tuple order, then one
bit per party (party 1 first) sets the y's with bit 0 mapping to +1, then
for quantum strategies one more uniform selects the joint outcome by
inverse CDF over the canonical outcome order.

``run_session`` is the one way to play: it draws its rounds a block at a
time through ``RandomnessSource.draw_rounds``, which returns what the same
sequence of ``uniform()``/``bit()`` calls would. Each round lands on one
flat (input, outcome) index f = x_idx·2^n + a_idx by an inverse-CDF search
of n halving steps over the input CDF and then n over the ravelled
outcome CDFs, for quantum and deterministic strategies alike. The pass
rule is computed once per outcome table, as a mask over (input, outcome)
index pairs; session counts read it at f and exact success sums it. Its
sign of Q, with sign(0) = +1, is ``BellInequality.sign_array()``. A
``RoundRecord`` keeps x, y, settings, a and f = prod(y) sign Q(x) and
derives m, guess and pass.

A kept session is its inequality and one uint32 key per round, (x_idx << n |
y_idx) << n | a_idx over canonical tuple indices. ``SessionLog.rounds`` reads
the keys as records built on access; ``write_session_log`` writes each
distinct key's line once, found by rank in a table over all 2^(3n) keys, so
only the keys grow with the rounds. An unkept session has ``rounds == ()``.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .classical import DeterministicStrategy
from .errors import RandomnessExhaustedError, ValidationError
from .quantum import QuantumStrategy, outcome_distribution
from .randomness import RandomnessSource
from .scenarios import BellInequality, CcpInstance, input_tuples, read_only, tuple_array
from .config import strategy_fingerprint


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round: x, y, each party's visible setting, the outcomes a
    and the target f_value = prod(y) sign Q(x). The sequences are stored as
    tuples, so a record is immutable and hashable. The messages m, the guess
    prod(m) = prod(y) prod(a) and the pass flag follow by the game's rule."""

    x: tuple
    y: tuple
    settings: tuple
    a: tuple
    f_value: int

    def __post_init__(self):
        for name in ("x", "y", "a"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "settings", tuple(map(tuple, self.settings)))
        n = len(self.x)
        if any(len(v) != n for v in (self.y, self.settings, self.a)):
            raise ValidationError("round record fields have inconsistent lengths")

    @property
    def m(self) -> tuple:
        return tuple(y_i * a_i for y_i, a_i in zip(self.y, self.a))

    @property
    def guess(self):
        return math.prod(self.y) * math.prod(self.a)

    @property
    def passed(self) -> bool:
        return self.guess == self.f_value

    def to_json_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y),
                "settings": [list(s) for s in self.settings],
                "a": list(self.a), "m": list(self.m),
                "guess": self.guess, "f_value": self.f_value, "pass": self.passed}


class SessionRounds(Sequence):
    """A session's kept rounds in play order, as one read-only uint32 key per
    round, read as ``RoundRecord``s built on access.

    A round's key is ``(x_idx << n | y_idx) << n | a_idx`` over canonical
    tuple indices, with y_idx bit 1 meaning +1. With the inequality the
    session was played on, which gives each input's visible settings and
    sign, the key fixes the record. ``len`` builds nothing. An index
    decodes its one key from the key's bits. A slice or an iteration builds
    one record per distinct key it reads and shares it among equal rounds.
    """

    def __init__(self, keys: np.ndarray, inequality: BellInequality):
        self.keys = keys
        self.inequality = inequality

    def _settings(self, x: tuple) -> tuple:
        """Each party's visible setting at input x."""
        return tuple(tuple(x[j - 1] for j in g) for g in self.inequality.scenario.visibility)

    def _decode(self, keys: np.ndarray):
        """Per key its input, y and outcome indices and its target
        f = prod(y) sign Q(x)."""
        n = self.inequality.n
        mask = (1 << n) - 1
        x_idx, y_idx, a_idx = keys >> 2 * n, keys >> n & mask, keys & mask
        signs = self.inequality.sign_array()
        return x_idx, y_idx, a_idx, tuple_array(n).prod(axis=1)[y_idx] * signs[x_idx]

    def _distinct(self, keys: np.ndarray):
        """A table over all 2^(3n) keys of each key's rank among the distinct
        ``keys``, marked a write chunk at a time, and the distinct keys decoded."""
        present = np.zeros(1 << 3 * self.inequality.n, dtype=bool)
        for start in range(0, keys.shape[0], _WRITE_ROUNDS):
            present[keys[start:start + _WRITE_ROUNDS]] = True
        distinct = np.flatnonzero(present)
        rank = np.empty(present.shape, dtype=np.intp)
        rank[distinct] = np.arange(distinct.shape[0])
        return rank, *self._decode(distinct)

    def _built(self, decoded) -> list:
        """One record per decoded key."""
        tuples = input_tuples(self.inequality.n)
        return [RoundRecord(x=tuples[x], y=tuples[y], settings=self._settings(tuples[x]),
                            a=tuples[a], f_value=f)
                for x, y, a, f in zip(*(v.tolist() for v in decoded))]

    def _records(self, keys: np.ndarray) -> tuple:
        rank, *decoded = self._distinct(keys)
        built = self._built(decoded)
        return tuple(map(built.__getitem__, rank[keys].tolist()))

    def __len__(self) -> int:
        return self.keys.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(self.keys[index])
        return self._built(self._decode(self.keys[[operator.index(index)]]))[0]

    def __iter__(self):
        return iter(self._records(self.keys))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"SessionRounds(<{len(self)} rounds, n={self.inequality.n}>)"


@dataclass(frozen=True)
class SessionLog:
    """Aggregate of a session.

    Kept rounds are a ``SessionRounds`` view: one 4-byte key per round,
    read as ``RoundRecord``s in play order. A session that keeps no rounds
    has ``rounds == ()`` and no header defaults in ``config``. The hash
    reads ``num_rounds`` and ``successes`` only, so equal logs hash alike;
    ``==`` compares every field.
    """

    rounds: SessionRounds | tuple = field(hash=False)
    num_rounds: int
    successes: int
    config: dict = field(default_factory=dict, hash=False)

    @property
    def estimate(self) -> float:
        return self.successes / self.num_rounds

    @property
    def std_error(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.num_rounds)

    def summary(self) -> dict:
        return {"rounds": self.num_rounds, "successes": self.successes,
                "estimate": self.estimate, "std_error": self.std_error}


# Rounds drawn at once; bounds a session's working memory whatever its length.
_BLOCK_ROUNDS = 1 << 16
# Log lines joined per write; bounds the joined string.
_WRITE_ROUNDS = 1 << 12


def _cumulative(probabilities: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probabilities, axis=-1)
    cum[..., -1] = 1.0
    return cum


class _Tables:
    """A strategy's outcome table on an instance and the pass rule that
    scores it; sessions sample it and exact success sums it.

    Rows and columns follow the canonical tuple order. ``weights[x]`` is
    q*(x) and ``outcomes[x, a]`` the probability of outcome tuple a at
    input x: the Born-rule distribution for quantum strategies,
    left at zero on inputs of zero weight, and one-hot at the row of
    ``output_array()`` for deterministic ones. ``passing[x, a]`` is the pass
    rule, prod(a) = sign Q(x), with the signs of ``sign_array()``; its
    ravelled entry f = x·2^n + a scores the round of flat index f. Nothing
    else is held: a kept session reads the rest from its inequality.
    """

    def __init__(self, instance: CcpInstance, strategy):
        ineq = instance.inequality
        if not isinstance(strategy, (QuantumStrategy, DeterministicStrategy)):
            raise ValidationError(f"unsupported strategy type {type(strategy).__name__}")
        if strategy.scenario != ineq.scenario:
            raise ValidationError("strategy scenario does not match the instance")
        self.n = ineq.n
        self.weights = instance.probability_vector()
        self.quantum = isinstance(strategy, QuantumStrategy)
        tuples = tuple_array(self.n)
        if self.quantum:
            self.outcomes = np.zeros((len(tuples), len(tuples)))
            for k in np.flatnonzero(self.weights):
                self.outcomes[k] = outcome_distribution(strategy, input_tuples(self.n)[k])
        else:
            self.outcomes = (strategy.output_array()[:, None] == tuples).all(axis=2) * 1.0
        self.passing = tuples.prod(axis=1)[None, :] == ineq.sign_array()[:, None]


def _play(tables: _Tables, rounds: int, rng: RandomnessSource):
    """Yield (first round, flat indices f = x_idx·2^n + a_idx, y bits) per
    block of ``rounds`` rounds, one ``draw_rounds`` call per block.

    Every row of the input CDF and of the outcome CDFs is non-decreasing
    and ends at 1.0 > u, so "entry <= u" holds on a prefix of the row and
    its length is the inverse-CDF index, as ``searchsorted(side="right")``
    gives it. A binary search of n halving steps finds that length: x in
    the input CDF, then a in the ravelled outcome CDFs from offset x·2^n.
    One-hot deterministic rows give their outcome at u = 0.
    """
    n = tables.n
    cdfs = (_cumulative(tables.weights), _cumulative(tables.outcomes).ravel())
    steps = [1 << k for k in range(n - 1, -1, -1)]
    for start in range(0, rounds, _BLOCK_ROUNDS):
        try:
            x_u, y_bits, a_u = rng.draw_rounds(min(_BLOCK_ROUNDS, rounds - start),
                                               n, tables.quantum)
        except RandomnessExhaustedError as exc:
            completed = start + exc.rounds_completed
            raise RandomnessExhaustedError(
                f"randomness exhausted after {completed} complete rounds",
                bits_consumed=exc.bits_consumed, rounds_completed=completed) from exc
        flat = np.zeros(x_u.shape[0], dtype=np.intp)
        for cdf, u in zip(cdfs, (x_u, 0.0 if a_u is None else a_u)):
            # A contiguous u makes each step's compare about twice as fast.
            u = np.ascontiguousarray(u)
            flat <<= n
            for step in steps:
                flat += (cdf[step - 1:][flat] <= u) * step
        yield start, flat, y_bits


def run_session(instance: CcpInstance, strategy, rounds: int, rng: RandomnessSource,
                keep_rounds: bool = True, config: dict | None = None) -> SessionLog:
    """Run independent rounds and aggregate the pass statistics.

    One round is ``run_session(instance, strategy, 1, rng).rounds[0]``: it
    makes the same draws and gives the same record as the first round of a
    longer session on the same source. Each block of rounds is sampled as
    flat indices f = x_idx·2^n + a_idx: successes count the ravelled pass
    mask at f, and a kept round's key splits f around its y index. Working
    memory is one block's draws and indices, whatever ``rounds`` is, and a
    kept session fills one preallocated key array of 4 bytes a round. Finite
    sources that run dry raise with the number of completed rounds
    attached. Only a kept session's config gains the header's ``rounds``,
    ``randomness`` and ``strategy_sha256``.
    """
    if isinstance(rounds, bool) or not isinstance(rounds, Integral) or rounds < 1:
        raise ValidationError(f"session needs a whole number of rounds >= 1, got {rounds!r}")
    rounds = int(rounds)
    tables = _Tables(instance, strategy)
    n = tables.n
    if keep_rounds:
        config = dict(config or {})
        config.setdefault("rounds", rounds)
        config.setdefault("randomness", rng.describe())
        config.setdefault("strategy_sha256", strategy_fingerprint(strategy)
                          if isinstance(strategy, QuantumStrategy) else "deterministic")

    keys = np.empty(rounds if keep_rounds else 0, dtype=np.uint32)
    successes = 0
    passing = tables.passing.ravel()
    for start, flat, y_bits in _play(tables, rounds, rng):
        successes += int(np.count_nonzero(passing[flat]))
        if keep_rounds:
            # Drawn bit 0 is y = +1, index bit 1; party 1 is the most significant bit.
            y_idx = (y_bits == 0) @ (1 << np.arange(n - 1, -1, -1))
            x_idx, a_idx = flat >> n, flat & (1 << n) - 1
            keys[start:start + flat.shape[0]] = (x_idx << n | y_idx) << n | a_idx
    kept = SessionRounds(read_only(keys), instance.inequality) if keep_rounds else ()
    return SessionLog(rounds=kept, num_rounds=rounds, successes=successes, config=config or {})


def exact_success(instance: CcpInstance, strategy) -> float:
    """Expected pass rate, summed exactly over the inputs.

    One masked sum over the outcome table P[x, a] that sessions sample:
    sum_x q*(x) sum_a P[x, a] [prod(a) = sign Q(x)]. Strategies of another
    type or scenario are rejected.
    """
    tables = _Tables(instance, strategy)
    return float(tables.weights @ (tables.outcomes * tables.passing).sum(axis=1))


def write_session_log(log: SessionLog, path) -> None:
    """JSON-lines file: one header object, then one round per line.

    A round's line is ``json.dumps(record.to_json_dict())`` of its record.
    It is assembled once per distinct round key from the JSON of each
    tuple and of each input's settings, and equal rounds share it.
    """
    rounds = log.rounds
    if not isinstance(rounds, SessionRounds):
        raise ValidationError("a session log is written from the rounds run_session kept")
    n, keys = rounds.inequality.n, rounds.keys
    rank, x_idx, y_idx, a_idx, f = rounds._distinct(keys)
    # m_i = y_i a_i is +1, bit 1, exactly where the y and a bits agree.
    m_idx = ((1 << n) - 1) ^ (y_idx ^ a_idx)
    parity = tuple_array(n).prod(axis=1)
    guess = parity[y_idx] * parity[a_idx]
    tuples = [json.dumps(list(t)) for t in input_tuples(n)]
    settings = [json.dumps(rounds._settings(x)) for x in input_tuples(n)]
    lines = np.array([
        f'{{"x": {tuples[x]}, "y": {tuples[y]}, "settings": {settings[x]}, "a": {tuples[a]}, '
        f'"m": {tuples[m]}, "guess": {g}, "f_value": {t}, '
        f'"pass": {"true" if g == t else "false"}}}\n'
        for x, y, a, m, g, t in zip(*(v.tolist() for v in (x_idx, y_idx, a_idx, m_idx, guess, f)))
    ], dtype=object)
    with open(path, "w") as handle:
        handle.write(json.dumps({"header": log.config}) + "\n")
        for start in range(0, keys.shape[0], _WRITE_ROUNDS):
            handle.write("".join(lines[rank[keys[start:start + _WRITE_ROUNDS]]].tolist()))
