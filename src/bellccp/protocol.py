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
sequence of ``uniform()``/``bit()`` calls would. The pass rule is
computed once per outcome table, as a mask over (input, outcome) index
pairs; session counts and exact success read it. Its sign of Q, with
sign(0) = +1, is ``BellInequality.sign_array()``. A ``RoundRecord`` keeps
x, y, settings, a and f = prod(y) sign Q(x) and derives m, guess and pass.

A kept session stores one uint32 key per round, (x_idx << n | y_idx) << n |
a_idx over canonical tuple indices, 18 bits at six parties. ``SessionLog.rounds``
reads the keys as records built on access, and ``write_session_log`` writes
each distinct key's line once, assembled from per-tuple JSON fragments.
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
from .scenarios import CcpInstance, input_tuples, read_only, tuple_array
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
    tuple indices, with y_idx bit 1 meaning +1. ``settings[x_idx]`` holds
    every party's visible setting at that input and ``signs`` is the
    inequality's ``sign_array()``; with the key they fix the record.
    ``len`` builds nothing. An index, a slice or an iteration builds one
    record per distinct key it reads and shares it among equal rounds.
    """

    def __init__(self, keys: np.ndarray, settings, signs: np.ndarray):
        self.keys = keys
        self.settings = settings
        self.signs = signs

    @property
    def n(self) -> int:
        return self.signs.shape[0].bit_length() - 1

    def _decode(self, keys: np.ndarray):
        """Input, y and outcome indices of each key, and its target
        f = prod(y) sign Q(x)."""
        n = self.n
        mask = (1 << n) - 1
        x_idx, y_idx, a_idx = keys >> 2 * n, keys >> n & mask, keys & mask
        return x_idx, y_idx, a_idx, tuple_array(n).prod(axis=1)[y_idx] * self.signs[x_idx]

    def _records(self, keys: np.ndarray) -> tuple:
        distinct, inverse = np.unique(keys, return_inverse=True)
        tuples = input_tuples(self.n)
        built = [RoundRecord(x=tuples[x], y=tuples[y], settings=self.settings[x], a=tuples[a],
                             f_value=f)
                 for x, y, a, f in zip(*(v.tolist() for v in self._decode(distinct)))]
        return tuple(map(built.__getitem__, inverse.tolist()))

    def __len__(self) -> int:
        return self.keys.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(self.keys[index])
        return self._records(self.keys[[operator.index(index)]])[0]

    def __iter__(self):
        return iter(self._records(self.keys))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"SessionRounds(<{len(self)} rounds, n={self.n}>)"


@dataclass(frozen=True)
class SessionLog:
    """Aggregate of a session; ``rounds`` is empty when not retained.

    Kept rounds are a ``SessionRounds`` view: one 4-byte key per round,
    read as ``RoundRecord``s in play order.
    """

    rounds: SessionRounds
    num_rounds: int
    successes: int
    config: dict = field(default_factory=dict)

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
    """A strategy's outcome table on an instance, with the CDFs that sample it
    and the pass rule that scores it.

    Rows and columns follow the canonical tuple order. ``weights[x]`` is
    q*(x) and ``outcomes[x, a]`` the probability of outcome tuple a at
    input x: the Born-rule distribution for quantum strategies,
    left at zero on inputs of zero weight, and one-hot at the row of
    ``output_array()`` for deterministic ones. ``passing[x, a]`` is the pass
    rule, prod(a) = sign Q(x), with the signs of ``sign_array()``.
    """

    def __init__(self, instance: CcpInstance, strategy):
        ineq = instance.inequality
        if not isinstance(strategy, (QuantumStrategy, DeterministicStrategy)):
            raise ValidationError(f"unsupported strategy type {type(strategy).__name__}")
        if strategy.scenario != ineq.scenario:
            raise ValidationError("strategy scenario does not match the instance")
        self.n = ineq.n
        self.scenario = ineq.scenario
        self.tuples = tuple_array(self.n)
        self.weights = instance.probability_vector()
        self.cum_inputs = _cumulative(self.weights)
        self.quantum = isinstance(strategy, QuantumStrategy)
        if self.quantum:
            tuples = input_tuples(self.n)
            self.outcomes = np.zeros((len(tuples), len(tuples)))
            for k in np.flatnonzero(self.weights):
                self.outcomes[k] = outcome_distribution(strategy, tuples[k])
        else:
            self.outcomes = (strategy.output_array()[:, None] == self.tuples).all(axis=2) * 1.0
        self.cum_outcomes = _cumulative(self.outcomes)
        self.signs = ineq.sign_array()
        self.passing = self.tuples.prod(axis=1)[None, :] == self.signs[:, None]


def _play(tables: _Tables, rounds: int, rng: RandomnessSource):
    """Yield (x indices, y, outcome indices) for ``rounds`` rounds, one
    ``draw_rounds`` call per block."""
    for start in range(0, rounds, _BLOCK_ROUNDS):
        try:
            x_u, y_bits, a_u = rng.draw_rounds(min(_BLOCK_ROUNDS, rounds - start),
                                               tables.n, tables.quantum)
        except RandomnessExhaustedError as exc:
            completed = start + exc.rounds_completed
            raise RandomnessExhaustedError(
                f"randomness exhausted after {completed} complete rounds",
                bits_consumed=exc.bits_consumed, rounds_completed=completed) from exc
        x_idx = np.searchsorted(tables.cum_inputs, x_u, side="right")
        # One-hot deterministic rows give their outcome at u = 0.
        u = 0.0 if a_u is None else a_u[:, None]
        yield x_idx, 1 - 2 * y_bits, (tables.cum_outcomes[x_idx] <= u).sum(axis=1)


def _round_keys(n: int, x_idx, y, a_idx) -> np.ndarray:
    """Each round's key ``(x_idx << n | y_idx) << n | a_idx`` as uint32, with
    y_idx the canonical index of y: +1 is bit 1, party 1 most significant."""
    y_idx = (y > 0) @ (1 << np.arange(n - 1, -1, -1))
    return ((x_idx << n | y_idx) << n | a_idx).astype(np.uint32)


def _visible_settings(scenario) -> list:
    """Per input index, each party's visible setting tuple."""
    return [tuple(scenario.visible_tuples(i)[k] for i, k in enumerate(column, start=1))
            for column in scenario.setting_index().T.tolist()]


def run_session(instance: CcpInstance, strategy, rounds: int, rng: RandomnessSource,
                keep_rounds: bool = True, config: dict | None = None) -> SessionLog:
    """Run independent rounds and aggregate the pass statistics.

    One round is ``run_session(instance, strategy, 1, rng).rounds[0]``: it
    makes the same draws and gives the same record as the first round of a
    longer session on the same source. Finite sources that run dry raise
    with the number of completed rounds attached.
    """
    if isinstance(rounds, bool) or not isinstance(rounds, Integral) or rounds < 1:
        raise ValidationError(f"session needs a whole number of rounds >= 1, got {rounds!r}")
    rounds = int(rounds)
    tables = _Tables(instance, strategy)
    echo = dict(config or {})
    echo.setdefault("rounds", rounds)
    echo.setdefault("randomness", rng.describe())
    echo.setdefault("strategy_sha256", strategy_fingerprint(strategy)
                    if isinstance(strategy, QuantumStrategy) else "deterministic")

    blocks = []
    successes = 0
    for x_idx, y, a_idx in _play(tables, rounds, rng):
        successes += int(tables.passing[x_idx, a_idx].sum())
        if keep_rounds:
            blocks.append(_round_keys(tables.n, x_idx, y, a_idx))
    if keep_rounds:
        kept = SessionRounds(read_only(np.concatenate(blocks)),
                             _visible_settings(tables.scenario), tables.signs)
    else:
        kept = SessionRounds(read_only(np.empty(0, dtype=np.uint32)), (), tables.signs)
    return SessionLog(rounds=kept, num_rounds=rounds, successes=successes, config=echo)


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
    n = rounds.n
    distinct, inverse = np.unique(rounds.keys, return_inverse=True)
    x_idx, y_idx, a_idx, f = rounds._decode(distinct)
    # m_i = y_i a_i is +1, bit 1, exactly where the y and a bits agree.
    m_idx = ((1 << n) - 1) ^ (y_idx ^ a_idx)
    parity = tuple_array(n).prod(axis=1)
    guess = parity[y_idx] * parity[a_idx]
    tuples = [json.dumps(list(t)) for t in input_tuples(n)]
    settings = [json.dumps([list(s) for s in row]) for row in rounds.settings]
    lines = np.array([
        f'{{"x": {tuples[x]}, "y": {tuples[y]}, "settings": {settings[x]}, "a": {tuples[a]}, '
        f'"m": {tuples[m]}, "guess": {g}, "f_value": {t}, '
        f'"pass": {"true" if g == t else "false"}}}\n'
        for x, y, a, m, g, t in zip(*(v.tolist() for v in (x_idx, y_idx, a_idx, m_idx, guess, f)))
    ], dtype=object)
    with open(path, "w") as handle:
        handle.write(json.dumps({"header": log.config}) + "\n")
        for start in range(0, inverse.shape[0], _WRITE_ROUNDS):
            handle.write("".join(lines[inverse[start:start + _WRITE_ROUNDS]].tolist()))
