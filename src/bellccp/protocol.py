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
pairs; session counts, exact success and round records all read it. Its
sign of Q, with sign(0) = +1, is ``BellInequality.sign_array()``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .classical import DeterministicStrategy
from .errors import RandomnessExhaustedError, ValidationError
from .quantum import QuantumStrategy, outcome_distribution
from .randomness import RandomnessSource
from .scenarios import CcpInstance, input_tuples, tuple_array
from .config import strategy_fingerprint


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round; invariants checked on construction."""

    x: tuple
    y: tuple
    settings: tuple
    a: tuple
    m: tuple
    guess: int
    f_value: int
    passed: bool

    def __post_init__(self):
        n = len(self.x)
        if any(len(v) != n for v in (self.y, self.settings, self.a, self.m)):
            raise ValidationError("round record fields have inconsistent lengths")
        if any(self.m[i] != self.y[i] * self.a[i] for i in range(n)):
            raise ValidationError("messages must equal y_i * a_i")
        product = 1
        for value in self.m:
            product *= value
        if self.guess != product:
            raise ValidationError("guess must be the product of all messages")
        if self.passed != (self.guess == self.f_value):
            raise ValidationError("pass flag contradicts guess and target")

    def to_json_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y),
                "settings": [list(s) for s in self.settings],
                "a": list(self.a), "m": list(self.m),
                "guess": self.guess, "f_value": self.f_value, "pass": self.passed}


@dataclass(frozen=True)
class SessionLog:
    """Aggregate of a session; ``rounds`` may be empty when not retained.

    Kept rounds are a tuple of ``RoundRecord``s in play order. Equal rounds
    of a block share one immutable record, so a kept round costs one
    reference.
    """

    rounds: tuple
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
                # outcome_distribution keys its dict in canonical order.
                self.outcomes[k] = list(outcome_distribution(strategy, tuples[k]).values())
        else:
            self.outcomes = (strategy.output_array()[:, None] == self.tuples).all(axis=2) * 1.0
        self.cum_outcomes = _cumulative(self.outcomes)
        self.passing = self.tuples.prod(axis=1)[None, :] == ineq.sign_array()[:, None]


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


def _records(tables: _Tables, x_idx, y, a_idx) -> list:
    """One block's rounds as records, every field taken from the block arrays.

    A round is fixed by its x, y and outcome indices, so a block holds at
    most 8^n distinct rounds. Each is built once, through the checked
    constructor, and equal rounds share that one immutable record: a kept
    round costs one reference.
    """
    scenario = tables.scenario
    n = tables.n
    # Canonical index of each y tuple: +1 is bit 1, party 1 most significant.
    y_idx = (y > 0) @ (1 << np.arange(n - 1, -1, -1))
    keys = (x_idx << n | y_idx) << n | a_idx
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    x_idx, y, a_idx = x_idx[first], y[first], a_idx[first]
    settings = [tuple(scenario.visible_tuples(i)[k] for i, k in enumerate(column, start=1))
                for column in scenario.setting_index().T.tolist()]
    tuples = input_tuples(n)
    m = y * tables.tuples[a_idx]
    guess = m.prod(axis=1)
    passed = tables.passing[x_idx, a_idx]
    # The guess is prod(y) prod(a) and the target prod(y) sign Q(x): they
    # agree exactly on passing rounds and are opposite on the rest.
    f_value = np.where(passed, guess, -guess)
    built = [RoundRecord(x=tuples[i], y=tuple(y_k), settings=settings[i], a=tuples[k],
                         m=tuple(m_k), guess=g, f_value=f, passed=p)
             for i, k, y_k, m_k, g, f, p in zip(x_idx.tolist(), a_idx.tolist(), y.tolist(),
                                                 m.tolist(), guess.tolist(), f_value.tolist(),
                                                 passed.tolist())]
    return [built[k] for k in inverse.tolist()]


def run_session(instance: CcpInstance, strategy, rounds: int, rng: RandomnessSource,
                keep_rounds: bool = True, config: dict | None = None) -> SessionLog:
    """Run independent rounds and aggregate the pass statistics.

    One round is ``run_session(instance, strategy, 1, rng).rounds[0]``: it
    makes the same draws and gives the same record as the first round of a
    longer session on the same source. Finite sources that run dry raise
    with the number of completed rounds attached.
    """
    if not isinstance(rounds, Integral) or rounds < 1:
        raise ValidationError(f"session needs a whole number of rounds >= 1, got {rounds!r}")
    rounds = int(rounds)
    tables = _Tables(instance, strategy)
    echo = dict(config or {})
    echo.setdefault("rounds", rounds)
    echo.setdefault("randomness", rng.describe())
    echo.setdefault("strategy_sha256", strategy_fingerprint(strategy)
                    if isinstance(strategy, QuantumStrategy) else "deterministic")

    records = []
    successes = 0
    for x_idx, y, a_idx in _play(tables, rounds, rng):
        successes += int(tables.passing[x_idx, a_idx].sum())
        if keep_rounds:
            records += _records(tables, x_idx, y, a_idx)
    return SessionLog(rounds=tuple(records), num_rounds=rounds,
                      successes=successes, config=echo)


def exact_success(instance: CcpInstance, strategy) -> float:
    """Expected pass rate, summed exactly over the inputs.

    One masked sum over the outcome table P[x, a] that sessions sample:
    sum_x q*(x) sum_a P[x, a] [prod(a) = sign Q(x)]. Strategies of another
    type or scenario are rejected.
    """
    tables = _Tables(instance, strategy)
    return float(tables.weights @ (tables.outcomes * tables.passing).sum(axis=1))


def write_session_log(log: SessionLog, path) -> None:
    """JSON-lines file: one header object, then one round record per line.

    Each distinct record object is serialised once; rounds that share a
    record share its line.
    """
    lines = {}
    with open(path, "w") as handle:
        handle.write(json.dumps({"header": log.config}) + "\n")
        for start in range(0, len(log.rounds), _WRITE_ROUNDS):
            chunk = []
            for record in log.rounds[start:start + _WRITE_ROUNDS]:
                # Keyed by identity: the log keeps every record alive for the
                # whole call, and equal values may still print differently.
                line = lines.get(id(record))
                if line is None:
                    line = lines[id(record)] = json.dumps(record.to_json_dict()) + "\n"
                chunk.append(line)
            handle.write("".join(chunk))
