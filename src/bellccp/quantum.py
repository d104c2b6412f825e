"""Quantum strategies and their correlations.

A quantum strategy is a shared n-qubit state plus, for every party, one
binary observable r . sigma per visible-input setting, stored as that
party's Bloch table: its unit vectors r by setting index. Correlators come
from the state's Pauli correlation tensor T (see :func:`qubits.pauli_tensor`):
E(x) is the contraction of T's traceless block with the parties' Bloch
vectors at x, done for all input tuples, and for a batch of strategies, at
once by :func:`correlations`. The joint outcome distribution stays on the
Born rule, so it checks the correlators independently: each row is the
state read against the projectors onto the parties' product eigenbasis,
all 2^n outcomes in one stacked :func:`qubits.expectation` call.

The canonical presets are the optimal GHZ-state strategies for the ring
(guess-your-neighbour) and Svetlichny structures, attaining 8 cos(pi/8)
and 4 sqrt(2) respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .errors import NumericError, ValidationError
from .qubits import (
    ATOL,
    PAULI_ROWS,
    MixedState,
    Observable2,
    PureState,
    depolarize,
    expectation,
    ghz_state,
    pauli_tensor,
    tensor_product,
    unit_bloch,
)
from .scenarios import (
    BellInequality,
    CausalScenario,
    _ArrayValue,
    canonical_values,
    gyni_scenario,
    input_tuples,
    read_only,
    svetlichny_scenario,
    tuple_index,
)

# Mixing weight at which the ideal ring value 7.3909 degrades to 7.023.
EXPERIMENT_VISIBILITY = 0.9502


@dataclass(frozen=True, eq=False)
class QuantumStrategy(_ArrayValue):
    """Shared state plus per-party, per-setting observables, as Bloch tables.

    ``bloch_tables[i - 1]`` holds party i's unit Bloch vectors by setting
    index, shape (2^arity, 3): row s is the observable r . sigma at the
    party's s-th visible tuple in canonical order. The tables are copied
    and stored read-only; every row must be a unit vector within ``ATOL``
    (:func:`qubits.unit_bloch` renormalizes rounded input). Strategies
    compare and hash by value.
    """

    scenario: CausalScenario
    state: PureState | MixedState
    bloch_tables: tuple

    def __post_init__(self):
        scenario = self.scenario
        if not isinstance(scenario, CausalScenario):
            raise ValidationError(f"a strategy needs a CausalScenario, got {scenario!r}")
        if not isinstance(self.state, (PureState, MixedState)):
            raise ValidationError(f"a strategy state must be a PureState or MixedState, "
                                  f"got {self.state!r}")
        if self.state.dim != 2**scenario.n:
            raise ValidationError(
                f"state dimension {self.state.dim} does not match {scenario.n} parties")
        try:
            tables = tuple(np.array(table, dtype=float) for table in self.bloch_tables)
        except (TypeError, ValueError):
            raise ValidationError("Bloch tables must be one numeric array per party") from None
        shapes = [(2 ** scenario.arity(i), 3) for i in range(1, scenario.n + 1)]
        if [table.shape for table in tables] != shapes:
            raise ValidationError(f"Bloch tables must have shapes {shapes}, "
                                  f"got {[table.shape for table in tables]}")
        for i, table in enumerate(tables, start=1):
            if not np.all(np.isfinite(table)):
                raise ValidationError(f"party {i}'s Bloch vectors must be finite")
            if np.any(np.abs(np.linalg.norm(table, axis=1) - 1.0) > ATOL):
                raise ValidationError(f"party {i}'s Bloch vectors must be unit within {ATOL}; "
                                      "use unit_bloch to renormalize")
        object.__setattr__(self, "bloch_tables", tuple(read_only(table) for table in tables))

    def _value(self) -> tuple:
        return (self.scenario, self.state,
                tuple(tuple(table.ravel().tolist()) for table in self.bloch_tables))

    @cached_property
    def observables(self) -> MappingProxyType:
        """Read-only (party, visible tuple) -> :class:`Observable2` view of
        the tables, in canonical order (party, then setting index). Built on
        first read."""
        return MappingProxyType({(i, t): Observable2(bloch=r)
                                 for i, table in enumerate(self.bloch_tables, start=1)
                                 for t, r in zip(self.scenario.visible_tuples(i), table)})


def correlations(tensor: np.ndarray, tables: list[np.ndarray], index: np.ndarray,
                 leave_out: int | None = None) -> np.ndarray:
    """E(x) at every input tuple, or one party's leave-one-out gradients, for
    R strategies at once.

    ``tensor`` holds R Pauli tensors, shape (R, 4, ..., 4); ``tables[i]`` is
    party i+1's Bloch vectors by setting index, shape (R, settings, 3); and
    ``index`` is the scenario's setting index. Returns shape (R, 2^n), or
    with ``leave_out=i`` (0-based) shape (R, 2^n, 3): E(x) with sigma_x,
    sigma_y, sigma_z in party i+1's place, so that E(x) = r . gradient for
    that party's Bloch vector r at x.
    """
    n = len(tables)
    block = tensor[(slice(None),) + (slice(1, None),) * n]
    if leave_out is not None:
        block = np.moveaxis(block, 1 + leave_out, -1)
    rows = [tables[i][:, index[i]] for i in range(n) if i != leave_out]
    batch, num_x = rows[0].shape[:2]
    out = rows[0] @ block.reshape(batch, 3, -1)
    for row in rows[1:]:
        out = np.einsum("rxa,rxab->rxb", row, out.reshape(batch, num_x, 3, -1))
    return out[:, :, 0] if leave_out is None else out


def correlator_table(strategy: QuantumStrategy) -> dict[tuple[int, ...], float]:
    """Full correlator E(x) for every input tuple.

    E(x) is the expectation of the tensor product of the parties' chosen
    observables, equal to the +/-1-weighted sum of joint outcome
    probabilities. Values a hair outside [-1, 1] from roundoff are clamped;
    larger excursions raise.
    """
    scenario = strategy.scenario
    tables = [table[None] for table in strategy.bloch_tables]
    values = correlations(pauli_tensor(strategy.state)[None], tables,
                          scenario.setting_index())[0]
    table = {}
    for x, value in zip(input_tuples(scenario.n), values.tolist()):
        if abs(value) > 1.0 + ATOL:
            raise NumericError(f"correlator at {x} is {value}, outside [-1, 1]")
        table[x] = min(1.0, max(-1.0, value))
    return table


def bell_value(table: dict, ineq: BellInequality) -> float:
    """Weighted sum of correlators: sum_x Q(x) E(x), over every input tuple."""
    total = 0.0
    for q, value in zip(ineq.coeffs.values(), canonical_values(table, ineq.n, "correlator tuple")):
        total += q * value
    return float(total)


def evaluate_strategy(strategy: QuantumStrategy, ineq: BellInequality) -> float:
    """Bell value of a quantum strategy: its correlators weighted by Q."""
    if strategy.scenario != ineq.scenario:
        raise ValidationError("strategy scenario does not match the inequality")
    return bell_value(correlator_table(strategy), ineq)


def success_probability(bell_value: float, gamma: float) -> float:
    """Game success implied by an inequality value: 1/2 + B / (2 Gamma);
    exact, then rounded once, when B and Gamma are both integral."""
    try:
        finite = math.isfinite(bell_value) and math.isfinite(gamma)
    except OverflowError:
        raise ValidationError("B and gamma must lie within the float range") from None
    if not finite:
        raise ValidationError(f"B and gamma must be finite, got {bell_value} and {gamma}")
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if isinstance(bell_value, Integral) and isinstance(gamma, Integral):
        p = float(Fraction(1, 2) + Fraction(int(bell_value), 2 * int(gamma)))
    else:
        p = 0.5 + bell_value / (2.0 * gamma)
    if p < -ATOL or p > 1.0 + ATOL:
        raise NumericError(f"success probability {p} is inconsistent with |B| <= Gamma")
    return min(1.0, max(0.0, p))


def outcome_distribution(strategy: QuantumStrategy, x) -> dict[tuple[int, ...], float]:
    """Joint probability of every +/-1 outcome tuple at input x.

    One Born rule for the whole row. ``eigh`` of the parties' r . sigma at x
    gives each party's outcome basis, eigenvalue -1 first as in the
    canonical order. Column a of their :func:`qubits.tensor_product` is the
    product basis vector |e_a>, and one :func:`qubits.expectation` call
    reads all 2^n probabilities off the stack of projectors |e_a><e_a|.
    Tiny negative values from roundoff are zeroed. Keys come in the
    canonical tuple order.
    """
    scenario = strategy.scenario
    n = scenario.n
    rows = scenario.setting_index()[:, tuple_index(x, n, "input tuple")]
    bloch = np.array([table[row] for table, row in zip(strategy.bloch_tables, rows)])
    _, bases = np.linalg.eigh((bloch @ PAULI_ROWS).reshape(n, 2, 2))
    # Row a is |e_a>, contiguous so that the projector stack is too.
    vectors = np.ascontiguousarray(tensor_product(bases).T)
    projectors = vectors[:, :, None] * vectors.conj()[:, None, :]
    probabilities = expectation(strategy.state, projectors)
    outcomes = input_tuples(n)
    if probabilities.min() < -ATOL:
        k = int(np.argmin(probabilities))
        raise NumericError(f"outcome probability {probabilities[k]} at {x=}, "
                           f"a={outcomes[k]} is negative")
    probabilities = np.maximum(probabilities, 0.0)
    total = float(probabilities.sum())
    if abs(total - 1.0) > ATOL:
        raise NumericError(f"outcome probabilities at {x} sum to {total}")
    return dict(zip(outcomes, probabilities.tolist()))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Ring-structure optimum on GHZ(3): one row per party and setting, settings
# (own input, left neighbour's input) in the order (-,-), (-,+), (+,-), (+,+).
# Party 1's (+,-) row must be -sigma_y; the +sigma_y variant drops the value
# from 8 cos(pi/8) to ~3.69.
_GYNI_BLOCH = (
    ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 0.0)),
    ((-_INV_SQRT2, _INV_SQRT2, 0.0), (0.0, 1.0, 0.0), (-_INV_SQRT2, _INV_SQRT2, 0.0),
     (1.0, 0.0, 0.0)),
    ((0.92, -0.38, 0.0), (-0.38, 0.92, 0.0), (-0.92, -0.38, 0.0), (-0.38, -0.92, 0.0)),
)

# Svetlichny optimum on GHZ(3), in the same setting order. Each row depends
# on the party's own input only: the communicated input is ignored because
# the optimum needs no communication. Swapping party 1's two vectors against
# each other collapses the value from 4 sqrt(2) to 0.
_SVETLICHNY_BLOCH = (
    ((-_INV_SQRT2, -_INV_SQRT2, 0.0), (-_INV_SQRT2, -_INV_SQRT2, 0.0),
     (-_INV_SQRT2, _INV_SQRT2, 0.0), (-_INV_SQRT2, _INV_SQRT2, 0.0)),
    ((-1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
)


CANONICAL_STRATEGY_NAMES = ("gyni-paper", "svetlichny-paper", "experiment-like")


def canonical_strategy(name: str) -> QuantumStrategy:
    """Named preset strategies.

    ``gyni-paper`` and ``svetlichny-paper`` are the ideal GHZ(3) optima;
    ``experiment-like`` is the ring strategy on a GHZ state mixed with
    white noise at visibility ``EXPERIMENT_VISIBILITY``. Each preset row is
    renormalized by :func:`qubits.unit_bloch`.
    """
    if name not in CANONICAL_STRATEGY_NAMES:
        raise ValidationError(
            f"unknown strategy {name!r}; known names: {CANONICAL_STRATEGY_NAMES}")
    if name == "svetlichny-paper":
        scenario, rows = svetlichny_scenario(), _SVETLICHNY_BLOCH
    else:
        scenario, rows = gyni_scenario(), _GYNI_BLOCH
    state = ghz_state(3)
    if name == "experiment-like":
        state = depolarize(state, EXPERIMENT_VISIBILITY)
    return QuantumStrategy(scenario=scenario, state=state,
                           bloch_tables=[np.array([unit_bloch(r) for r in party])
                                         for party in rows])


def with_visibility(strategy: QuantumStrategy, v: float) -> QuantumStrategy:
    """Same observables on the state mixed with white noise at weight v."""
    state = strategy.state
    if not isinstance(state, PureState):
        raise ValidationError("visibility mixing starts from a pure state")
    return QuantumStrategy(scenario=strategy.scenario, state=depolarize(state, v),
                           bloch_tables=strategy.bloch_tables)


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
    return QuantumStrategy(scenario=scenario, state=state,
                           bloch_tables=random_bloch_tables(scenario, rng))


def random_bloch_tables(scenario: CausalScenario, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform random unit Bloch vectors, one (2^arity, 3) table per party.

    Draws one block of normal 3-vectors per party, party by party, rows in
    setting order, and normalizes each row. A row shorter than 1e-12 is
    redrawn, row by row, after its party's block.
    """
    tables = []
    for i in range(1, scenario.n + 1):
        table = rng.standard_normal((2 ** scenario.arity(i), 3))
        # Bit for bit np.linalg.norm of each row, unlike norm(axis=1).
        norms = np.sqrt((table[:, None, :] @ table[:, :, None])[:, 0, 0])
        for k in np.flatnonzero(norms < 1e-12):
            while norms[k] < 1e-12:
                table[k] = rng.standard_normal(3)
                norms[k] = np.linalg.norm(table[k])
        tables.append(table / norms[:, None])
    return tables
