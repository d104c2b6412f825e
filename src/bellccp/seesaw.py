"""Variational maximization of inequality values over qubit strategies.

The inequality value is linear in each observable's Bloch vector while all
other observables and the state are held fixed: substituting sigma_x,
sigma_y, sigma_z at one slot gives a gradient vector g with B = const + r . g,
so r = g / |g| is that slot's exact optimum. Every gradient is a
contraction of the state's Pauli tensor T with the other parties' Bloch
vectors (:func:`quantum.correlations`). A slot's gradient does not depend on
its own party's observables and one party's slots touch disjoint input
tuples, so a sweep updates a whole party from one batched contraction: the
same coordinate ascent as slot by slot, with a closed-form, provably
non-decreasing update. State optimization, when enabled, replaces the state
by the top eigenvector of the fixed-observable operator
sum_x Q(x) A_1 x ... x A_n, from one Hermitian eigendecomposition.

Restarts draw independent initial Bloch vectors from spawned generator
streams, so results are reproducible given (seed, options).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qubits import Observable2, PureState, MixedState, ghz_state, pauli_tensor, tensor_product
from .quantum import QuantumStrategy, correlations, random_bloch_tables
from .scenarios import BellInequality

# Gradients shorter than this leave the slot's Bloch vector unchanged.
DEGENERATE_GRADIENT = 1e-14

# Cap on observable/state alternations when state optimization is enabled.
_MAX_ALTERNATIONS = 100


@dataclass(frozen=True, kw_only=True)
class OptimizerOptions:
    seed: int
    restarts: int = 32
    max_sweeps: int = 500
    tol: float = 1e-12
    optimize_state: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.tol <= 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    strategy: QuantumStrategy
    sweeps_used: int
    value_trace: tuple[float, ...]
    degenerate_updates: int = 0


class _Sweeper:
    """Coordinate-ascent state for one inequality; holds the state's Pauli
    tensor and one (settings, 3) Bloch table per party."""

    def __init__(self, ineq: BellInequality, state: PureState | MixedState):
        scenario = ineq.scenario
        if state.dim != 2**scenario.n:
            raise ValidationError(
                f"state dimension {state.dim} does not match {scenario.n} parties")
        self.ineq = ineq
        self.scenario = scenario
        self.q = ineq.coefficient_array().astype(float)
        self.index = scenario.setting_index()
        # weights[i][s, x] = Q(x) where party i+1 has setting s at x, else 0.
        self.weights = [(np.arange(2 ** scenario.arity(i + 1))[:, None] == row) * self.q
                        for i, row in enumerate(self.index)]
        self.bloch: list[np.ndarray] = []
        self.trace: list[float] = []
        self.sweeps = self.degenerate = 0
        self.state = state
        self.tensor = pauli_tensor(state)

    def set_observables(self, tables: list[np.ndarray]):
        self.bloch = [np.array(table, dtype=float) for table in tables]
        self.correlators = correlations(self.tensor, self.bloch, self.index)

    def set_state(self, state: PureState | MixedState):
        self.state = state
        self.tensor = pauli_tensor(state)
        self.correlators = correlations(self.tensor, self.bloch, self.index)

    def value(self) -> float:
        return float(self.q @ self.correlators)

    def sweep(self) -> int:
        """Update every slot to its per-slot optimum, party by party; count
        degenerate slots."""
        degenerate = 0
        for i, table in enumerate(self.bloch):
            gradients = correlations(self.tensor, self.bloch, self.index, leave_out=i)
            totals = self.weights[i] @ gradients
            norms = np.linalg.norm(totals, axis=1)
            live = norms >= DEGENERATE_GRADIENT
            degenerate += int(np.count_nonzero(~live))
            table[live] = totals[live] / norms[live, None]
            self.correlators = np.einsum("xa,xa->x", table[self.index[i]], gradients)
        return degenerate

    def run(self, max_sweeps: int, tol: float):
        """Sweep until the per-sweep improvement drops below tol."""
        previous = self.value()
        for _ in range(max_sweeps):
            self.degenerate += self.sweep()
            self.sweeps += 1
            current = self.value()
            self.trace.append(current)
            if current - previous < tol:
                break
            previous = current

    def observables(self) -> dict:
        return {(i, t): Observable2(bloch=r / np.linalg.norm(r))
                for i, table in enumerate(self.bloch, start=1)
                for t, r in zip(self.scenario.visible_tuples(i), table)}

    def result(self) -> OptimizationResult:
        strategy = QuantumStrategy(scenario=self.scenario, state=self.state,
                                   observables=self.observables())
        return OptimizationResult(best_value=self.trace[-1], strategy=strategy,
                                  sweeps_used=self.sweeps, value_trace=tuple(self.trace),
                                  degenerate_updates=self.degenerate)


def _restart_streams(seed: int, restarts: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(seed).spawn(restarts)]


def _alternate(sweeper: _Sweeper, opts: OptimizerOptions):
    """Observable sweeps alternated with state updates until neither helps."""
    previous = sweeper.value()
    for _ in range(_MAX_ALTERNATIONS):
        sweeper.run(opts.max_sweeps, opts.tol)
        before_state_update = sweeper.trace[-1]
        old_state = sweeper.state
        new_state, _ = optimal_state(sweeper.ineq, sweeper.observables())
        sweeper.set_state(new_state)
        # The exact top eigenvalue cannot be below the current value; a
        # numerical non-improvement means the alternation has converged.
        if sweeper.value() < before_state_update:
            sweeper.set_state(old_state)
            return
        sweeper.trace.append(sweeper.value())
        if sweeper.trace[-1] - previous < opts.tol:
            return
        previous = sweeper.trace[-1]


def _best_of_restarts(ineq: BellInequality, state: PureState | MixedState,
                      opts: OptimizerOptions, optimize_state: bool) -> OptimizationResult:
    """Best of seeded restarts; the first within 1e-12 of the maximum wins."""
    sweepers = []
    for rng in _restart_streams(opts.seed, opts.restarts):
        sweeper = _Sweeper(ineq, state)
        sweeper.set_observables(random_bloch_tables(ineq.scenario, rng))
        if optimize_state:
            _alternate(sweeper, opts)
        else:
            sweeper.run(opts.max_sweeps, opts.tol)
        sweepers.append(sweeper)
    best_value = max(s.trace[-1] for s in sweepers)
    return next(s for s in sweepers if s.trace[-1] >= best_value - 1e-12).result()


def seesaw_measurements(ineq: BellInequality, state: PureState | MixedState,
                        opts: OptimizerOptions) -> OptimizationResult:
    """Maximize over observables on a fixed state, best of seeded restarts."""
    return _best_of_restarts(ineq, state, opts, optimize_state=False)


def bell_operator(ineq: BellInequality, observables: dict) -> np.ndarray:
    """sum_x Q(x) A_1^(x) x ... x A_n^(x) for fixed observables."""
    scenario = ineq.scenario
    dim = 2**scenario.n
    op = np.zeros((dim, dim), dtype=complex)
    for x, q in ineq.coeffs.items():
        if q == 0:
            continue
        factors = [observables[(i, scenario.visible_tuple(x, i))].matrix
                   for i in range(1, scenario.n + 1)]
        op += float(q) * tensor_product(factors)
    return op


def optimal_state(ineq: BellInequality, observables: dict) -> tuple[PureState, float]:
    """Top eigenpair of the fixed-observable operator, by one Hermitian
    eigendecomposition (at most 64 x 64)."""
    values, vectors = np.linalg.eigh(bell_operator(ineq, observables))
    return PureState(vectors[:, -1]), float(values[-1])


def optimize(ineq: BellInequality, opts: OptimizerOptions,
             initial_state: PureState | MixedState | None = None) -> OptimizationResult:
    """Joint maximization: observable sweeps, optionally alternated with
    state updates, best over seeded restarts."""
    state = initial_state if initial_state is not None else ghz_state(ineq.scenario.n)
    return _best_of_restarts(ineq, state, opts, opts.optimize_state)
