"""Quantum strategies and their correlations.

A quantum strategy is a shared n-qubit state plus, for every party, one
binary observable per visible-input setting. Correlators come from the
state's Pauli correlation tensor T (see :func:`qubits.pauli_tensor`): with
observables r . sigma, E(x) is the contraction of T's traceless block with
the parties' Bloch vectors at x, done for all input tuples at once by
:func:`correlations`. The joint outcome distribution stays on the Born rule
with the projectors (I + a A) / 2, outcome by outcome, so it checks the
correlators independently.

The canonical presets are the optimal GHZ-state strategies for the ring
(guess-your-neighbour) and Svetlichny structures, attaining 8 cos(pi/8)
and 4 sqrt(2) respectively.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import NumericError, ValidationError
from .qubits import (
    ATOL,
    MixedState,
    Observable2,
    PureState,
    bloch_to_observable,
    depolarize,
    expectation,
    ghz_state,
    pauli_tensor,
    tensor_product,
)
from .scenarios import (
    BellInequality,
    CausalScenario,
    gyni_scenario,
    input_tuples,
    svetlichny_scenario,
)

# Mixing weight at which the ideal ring value 7.3909 degrades to 7.023.
EXPERIMENT_VISIBILITY = 0.9502


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared state plus per-party, per-setting observables.

    ``observables`` maps (party, visible tuple) to an :class:`Observable2`
    and must be complete: 2^(arity) settings for every party. It is stored
    read-only, in canonical order (party, then setting index).
    """

    scenario: CausalScenario
    state: PureState | MixedState
    observables: Mapping

    def __post_init__(self):
        obs = dict(self.observables)
        keys = [(i, t)
                for i in range(1, self.scenario.n + 1)
                for t in self.scenario.visible_tuples(i)]
        if set(obs) != set(keys):
            missing = set(keys) - set(obs)
            extra = set(obs) - set(keys)
            raise ValidationError(
                f"observable map incomplete or mismatched (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})")
        for key, value in obs.items():
            if not isinstance(value, Observable2):
                raise ValidationError(f"observable for {key} must be an Observable2")
        if self.state.dim != 2**self.scenario.n:
            raise ValidationError(
                f"state dimension {self.state.dim} does not match {self.scenario.n} parties")
        object.__setattr__(self, "observables", MappingProxyType({k: obs[k] for k in keys}))

    def __hash__(self) -> int:
        return hash((self.scenario, self.state, tuple(self.observables.items())))

    def observable_for(self, party: int, x) -> Observable2:
        return self.observables[(party, self.scenario.visible_tuple(x, party))]

    def bloch_tables(self) -> list[np.ndarray]:
        """Party i's Bloch vectors by setting index: shape (2^arity, 3)."""
        return [np.array([self.observables[(i, t)].bloch for t in self.scenario.visible_tuples(i)])
                for i in range(1, self.scenario.n + 1)]


def correlations(tensor: np.ndarray, tables: list[np.ndarray], index: np.ndarray,
                 leave_out: int | None = None) -> np.ndarray:
    """E(x) at every input tuple, or one party's leave-one-out gradients.

    ``tensor`` is a state's Pauli tensor, ``tables[i]`` party i+1's Bloch
    vectors by setting index and ``index`` the scenario's setting index.
    Returns shape (2^n,), or with ``leave_out=i`` (0-based) shape (2^n, 3):
    E(x) with sigma_x, sigma_y, sigma_z in party i+1's place, so that
    E(x) = r . gradient for that party's Bloch vector r at x.
    """
    n = len(tables)
    block = tensor[(slice(1, None),) * n]
    if leave_out is not None:
        block = np.moveaxis(block, leave_out, -1)
    rows = [tables[i][index[i]] for i in range(n) if i != leave_out]
    out = rows[0] @ block.reshape(3, -1)
    for row in rows[1:]:
        out = np.einsum("xa,xab->xb", row, out.reshape(out.shape[0], 3, -1))
    return out[:, 0] if leave_out is None else out


def correlator_table(strategy: QuantumStrategy) -> dict[tuple[int, ...], float]:
    """Full correlator E(x) for every input tuple.

    E(x) is the expectation of the tensor product of the parties' chosen
    observables, equal to the +/-1-weighted sum of joint outcome
    probabilities. Values a hair outside [-1, 1] from roundoff are clamped;
    larger excursions raise.
    """
    scenario = strategy.scenario
    values = correlations(pauli_tensor(strategy.state), strategy.bloch_tables(),
                          scenario.setting_index())
    table = {}
    for x, value in zip(input_tuples(scenario.n), values.tolist()):
        if abs(value) > 1.0 + ATOL:
            raise NumericError(f"correlator at {x} is {value}, outside [-1, 1]")
        table[x] = min(1.0, max(-1.0, value))
    return table


def bell_value(table: dict, ineq: BellInequality) -> float:
    """Weighted sum of correlators: sum_x Q(x) E(x)."""
    total = 0.0
    for x, q in ineq.coeffs.items():
        if x not in table:
            raise ValidationError(f"correlator table is missing tuple {x}")
        total += q * table[x]
    return float(total)


def evaluate_strategy(strategy: QuantumStrategy, ineq: BellInequality) -> float:
    """Bell value of a quantum strategy: its correlators weighted by Q."""
    if strategy.scenario != ineq.scenario:
        raise ValidationError("strategy scenario does not match the inequality")
    return bell_value(correlator_table(strategy), ineq)


def success_probability(bell_value: float, gamma: float) -> float:
    """Game success implied by an inequality value: 1/2 + B / (2 Gamma)."""
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    p = 0.5 + bell_value / (2.0 * gamma)
    if p < -ATOL or p > 1.0 + ATOL:
        raise NumericError(f"success probability {p} is inconsistent with |B| <= Gamma")
    return min(1.0, max(0.0, p))


def outcome_distribution(strategy: QuantumStrategy, x) -> dict[tuple[int, ...], float]:
    """Joint probability of every +/-1 outcome tuple at input x.

    Probabilities are Born-rule expectations of tensor products of the
    outcome projectors; tiny negative values from roundoff are zeroed.
    Keys come in the canonical tuple order. Results are memoized per input
    tuple (the strategy is immutable).
    """
    n = strategy.scenario.n
    x = tuple(x)
    cache = getattr(strategy, "_outcome_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(strategy, "_outcome_cache", cache)
    if x in cache:
        return dict(cache[x])
    observables = [strategy.observable_for(i, x) for i in range(1, n + 1)]
    dist = {}
    total = 0.0
    for a in input_tuples(n):
        op = tensor_product([obs.projector(a_i) for obs, a_i in zip(observables, a)])
        p = expectation(strategy.state, op)
        if p < -ATOL:
            raise NumericError(f"outcome probability {p} at {x=}, {a=} is negative")
        p = max(0.0, p)
        dist[a] = p
        total += p
    if abs(total - 1.0) > ATOL:
        raise NumericError(f"outcome probabilities at {x} sum to {total}")
    cache[x] = dist
    return dict(dist)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Ring-structure optimum on GHZ(3). Keys are visible tuples (own input
# first, neighbour's second). Party 1's (+1, -1) entry must be -sigma_y;
# the +sigma_y variant drops the value from 8 cos(pi/8) to ~3.69.
_GYNI_BLOCH = {
    (1, (1, 1)): (0.0, 1.0, 0.0),
    (1, (1, -1)): (0.0, -1.0, 0.0),
    (1, (-1, 1)): (1.0, 0.0, 0.0),
    (1, (-1, -1)): (0.0, 1.0, 0.0),
    (2, (1, 1)): (1.0, 0.0, 0.0),
    (2, (1, -1)): (-_INV_SQRT2, _INV_SQRT2, 0.0),
    (2, (-1, 1)): (0.0, 1.0, 0.0),
    (2, (-1, -1)): (-_INV_SQRT2, _INV_SQRT2, 0.0),
    (3, (1, 1)): (-0.38, -0.92, 0.0),
    (3, (1, -1)): (-0.92, -0.38, 0.0),
    (3, (-1, 1)): (-0.38, 0.92, 0.0),
    (3, (-1, -1)): (0.92, -0.38, 0.0),
}

# Svetlichny optimum on GHZ(3), by own input only: the communicated input
# is ignored because the optimum needs no communication. Swapping party 1's
# two entries against each other collapses the value from 4 sqrt(2) to 0.
_SVETLICHNY_BLOCH = {
    (1, 1): (-_INV_SQRT2, _INV_SQRT2, 0.0),
    (1, -1): (-_INV_SQRT2, -_INV_SQRT2, 0.0),
    (2, 1): (0.0, 1.0, 0.0),
    (2, -1): (-1.0, 0.0, 0.0),
    (3, 1): (1.0, 0.0, 0.0),
    (3, -1): (0.0, 1.0, 0.0),
}


def _gyni_observables() -> dict:
    scenario = gyni_scenario()
    obs = {}
    for i in range(1, 4):
        for t in scenario.visible_tuples(i):
            obs[(i, t)] = bloch_to_observable(_GYNI_BLOCH[(i, t)])
    return obs


def _svetlichny_observables() -> dict:
    scenario = svetlichny_scenario()
    obs = {}
    for i in range(1, 4):
        for t in scenario.visible_tuples(i):
            obs[(i, t)] = bloch_to_observable(_SVETLICHNY_BLOCH[(i, t[0])])
    return obs


CANONICAL_STRATEGY_NAMES = ("gyni-paper", "svetlichny-paper", "experiment-like")


def canonical_strategy(name: str) -> QuantumStrategy:
    """Named preset strategies.

    ``gyni-paper`` and ``svetlichny-paper`` are the ideal GHZ(3) optima;
    ``experiment-like`` is the ring strategy on a GHZ state mixed with
    white noise at visibility ``EXPERIMENT_VISIBILITY``.
    """
    if name == "gyni-paper":
        return QuantumStrategy(scenario=gyni_scenario(), state=ghz_state(3),
                               observables=_gyni_observables())
    if name == "svetlichny-paper":
        return QuantumStrategy(scenario=svetlichny_scenario(), state=ghz_state(3),
                               observables=_svetlichny_observables())
    if name == "experiment-like":
        return QuantumStrategy(scenario=gyni_scenario(),
                               state=depolarize(ghz_state(3), EXPERIMENT_VISIBILITY),
                               observables=_gyni_observables())
    raise ValidationError(
        f"unknown strategy {name!r}; known names: {CANONICAL_STRATEGY_NAMES}")


def with_visibility(strategy: QuantumStrategy, v: float) -> QuantumStrategy:
    """Same observables on the state mixed with white noise at weight v."""
    state = strategy.state
    if not isinstance(state, PureState):
        raise ValidationError("visibility mixing starts from a pure state")
    return QuantumStrategy(scenario=strategy.scenario, state=depolarize(state, v),
                           observables=strategy.observables)


def random_strategy(scenario: CausalScenario, rng: np.random.Generator,
                    mixed: bool = False) -> QuantumStrategy:
    """Haar-ish random pure state and uniform random Bloch observables.

    With ``mixed`` the state is additionally depolarized by a uniform
    visibility, exercising the density-matrix code path.
    """
    dim = 2**scenario.n
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amplitudes /= np.linalg.norm(amplitudes)
    state: PureState | MixedState = PureState(amplitudes)
    if mixed:
        state = depolarize(state, float(rng.uniform(0.0, 1.0)))
    observables = {(i, t): Observable2(bloch=r)
                   for i, table in enumerate(random_bloch_tables(scenario, rng), start=1)
                   for t, r in zip(scenario.visible_tuples(i), table)}
    return QuantumStrategy(scenario=scenario, state=state, observables=observables)


def random_bloch_tables(scenario: CausalScenario, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform random unit Bloch vectors, one (2^arity, 3) table per party.

    Draws a normal 3-vector per setting, party by party in setting order,
    redrawing any shorter than 1e-12 before normalizing it.
    """
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
