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
sum_x Q(x) A_1 x ... x A_n, from one Hermitian eigendecomposition. That
operator is built in the Pauli basis: its coefficient on sigma_p1 x ... x
sigma_pn is sum_x Q(x) prod_i r_i(x)[p_i], expanded party by party, with no
Kronecker product.

Restarts draw independent initial Bloch vectors from spawned generator
streams, so results are reproducible given (seed, options). They run as one
batch on a leading restart axis: one sweep updates every restart still
running, and each restart stops, takes its state step and rejoins by the
same rule as it would alone. One fixed gain, ``MIN_GAIN``, ends a run of
sweeps, refuses a state step and ends the alternation; the first restart
within it of the best final value wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ValidationError
from .qubits import PAULI_ROWS, PureState, MixedState, ghz_state, pauli_tensor
from .quantum import QuantumStrategy, correlations, random_bloch_tables
from .scenarios import BellInequality

# Gradients shorter than this leave the slot's Bloch vector unchanged.
DEGENERATE_GRADIENT = 1e-14

# Gains below this count as converged, and final values within it tie.
MIN_GAIN = 1e-12

# Cap on observable/state alternations when state optimization is enabled.
_MAX_ALTERNATIONS = 100


@dataclass(frozen=True, kw_only=True)
class OptimizerOptions:
    seed: int
    restarts: int = 32
    max_sweeps: int = 500
    optimize_state: bool = False

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("restarts", "max_sweeps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class OptimizationResult:
    strategy: QuantumStrategy
    sweeps_used: int
    value_trace: tuple[float, ...]
    degenerate_updates: int = 0

    @property
    def best_value(self) -> float:
        """The winning restart's final value, the last entry of its trace."""
        return self.value_trace[-1]


class _Restarts:
    """Coordinate ascent for every restart at once, on a leading restart axis.

    Holds one (R, settings, 3) Bloch table per party (a copy of ``tables``),
    the restarts' Pauli tensors (R, 4, ..., 4), one writable copy of the
    initial state's tensor per restart, and their correlators (R, 2^n). Each
    restart follows the sequential rule on its own: it sweeps until its
    improvement drops below ``MIN_GAIN`` or it has used ``max_sweeps``; with
    state optimization it then takes a state step and rejoins the batch.
    """

    def __init__(self, ineq: BellInequality, state: PureState | MixedState,
                 tables: list[np.ndarray]):
        scenario = ineq.scenario
        if state.dim != 2**scenario.n:
            raise ValidationError(
                f"state dimension {state.dim} does not match {scenario.n} parties")
        self.ineq = ineq
        self.q = ineq.coefficient_array().astype(float)
        self.index = scenario.setting_index()
        # weights[i][s, x] = Q(x) where party i+1 has setting s at x, else 0.
        self.weights = [(np.arange(2 ** scenario.arity(i + 1))[:, None] == row) * self.q
                        for i, row in enumerate(self.index)]
        self.bloch = [np.array(table, dtype=float) for table in tables]
        restarts = len(self.bloch[0])
        self.states = [state] * restarts
        tensor = pauli_tensor(state)
        self.tensors = np.repeat(tensor[None], restarts, axis=0)
        self.correlators = correlations(self.tensors, self.bloch, self.index)
        self.traces: list[list[float]] = [[] for _ in range(restarts)]
        self.sweeps = np.zeros(restarts, dtype=int)
        self.degenerate = np.zeros(restarts, dtype=int)

    def sweep(self, rows: np.ndarray):
        """Update every slot of the given restarts to its per-slot optimum,
        party by party; count each restart's degenerate slots."""
        tensors = self.tensors[rows]
        tables = [table[rows] for table in self.bloch]
        for i, table in enumerate(tables):
            gradients = correlations(tensors, tables, self.index, leave_out=i)
            totals = self.weights[i] @ gradients
            norms = np.linalg.norm(totals, axis=2)
            live = norms >= DEGENERATE_GRADIENT
            self.degenerate[rows] += np.count_nonzero(~live, axis=1)
            table[live] = totals[live] / norms[live][:, None]
            correlators = np.einsum("rxa,rxa->rx", table[:, self.index[i]], gradients)
        for table, updated in zip(self.bloch, tables):
            table[rows] = updated
        self.correlators[rows] = correlators
        self.sweeps[rows] += 1

    def run(self, opts: OptimizerOptions):
        """Sweep every running restart until its improvement drops below
        ``MIN_GAIN`` or it has used max_sweeps; with state optimization,
        alternate until a state step or a whole alternation gains less."""
        restarts = len(self.states)
        rows = np.arange(restarts)
        previous = self.correlators @ self.q        # what the next sweep must beat
        run_sweeps = np.zeros(restarts, dtype=int)
        run_start = previous.copy()                 # what the next state step must beat
        alternations = np.zeros(restarts, dtype=int)
        while rows.size:
            self.sweep(rows)
            current = self.correlators[rows] @ self.q
            for r, value in zip(rows.tolist(), current.tolist()):
                self.traces[r].append(value)
            run_sweeps[rows] += 1
            ended = (current - previous[rows] < MIN_GAIN) | (run_sweeps[rows] >= opts.max_sweeps)
            previous[rows] = current
            if opts.optimize_state:
                rejoin = []
                for r in rows[ended].tolist():
                    alternations[r] += 1
                    if (self.state_step(r)
                            and self.traces[r][-1] - run_start[r] >= MIN_GAIN
                            and alternations[r] < _MAX_ALTERNATIONS):
                        run_start[r] = previous[r] = self.traces[r][-1]
                        run_sweeps[r] = 0
                        rejoin.append(r)
                rows = np.sort(np.concatenate([rows[~ended], np.array(rejoin, dtype=int)]))
            else:
                rows = rows[~ended]

    def state_step(self, r: int) -> bool:
        """Replace restart r's state by the top eigenvector of its operator,
        unless the eigenvalue gains less than ``MIN_GAIN`` over the current
        value; the exact top eigenvalue cannot fall below it, so a smaller
        gain means the state has converged."""
        state, value = optimal_state(self.ineq, [table[r] for table in self.bloch])
        if value - self.traces[r][-1] < MIN_GAIN:
            return False
        self.states[r] = state
        self.tensors[r] = pauli_tensor(state)
        self.traces[r].append(value)
        return True

    def best(self) -> OptimizationResult:
        """The first restart within ``MIN_GAIN`` of the best final value."""
        finals = [trace[-1] for trace in self.traces]
        top = max(finals)
        r = next(r for r, value in enumerate(finals) if value >= top - MIN_GAIN)
        # Every row is a unit vector: drawn normalized or set to g / |g|.
        strategy = QuantumStrategy(scenario=self.ineq.scenario, state=self.states[r],
                                   bloch_tables=[table[r] for table in self.bloch])
        return OptimizationResult(strategy=strategy, sweeps_used=int(self.sweeps[r]),
                                  value_trace=tuple(self.traces[r]),
                                  degenerate_updates=int(self.degenerate[r]))


def _restart_streams(seed: int, restarts: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(seed).spawn(restarts)]


def seesaw_measurements(ineq: BellInequality, state: PureState | MixedState,
                        opts: OptimizerOptions) -> OptimizationResult:
    """Maximize over observables on a fixed state, best of seeded restarts:
    ``optimize`` from ``state`` with state optimization off."""
    if opts.optimize_state:
        raise ValidationError("seesaw_measurements keeps the state fixed; use optimize")
    return optimize(ineq, opts, initial_state=state)


def bell_operator(ineq: BellInequality, bloch_tables) -> np.ndarray:
    """sum_x Q(x) A_1^(x) x ... x A_n^(x) for fixed observables, given as
    one (2^arity, 3) Bloch table per party (``QuantumStrategy.bloch_tables``).

    Built in the Pauli basis: with A = r . sigma it is sum_p C[p] sigma_p1 x
    ... x sigma_pn over p in {x, y, z}^n, where C[p] = sum_x Q(x) prod_i
    r_i(x)[p_i]; one product with the three Pauli matrices per party then
    expands C. No Kronecker product is formed."""
    scenario = ineq.scenario
    n = scenario.n
    rows = [np.asarray(table, dtype=float)[row]
            for table, row in zip(bloch_tables, scenario.setting_index())]
    products = rows[0]
    for row in rows[1:]:
        products = (products[:, :, None] * row[:, None, :]).reshape(len(row), -1)
    op = ineq.coefficient_array() @ products
    for _ in range(n):
        # Takes the leading party's Pauli axis, appends its row and column.
        op = op.reshape(3, -1).T @ PAULI_ROWS
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return op.reshape((2,) * (2 * n)).transpose(order).reshape(2**n, 2**n)


def optimal_state(ineq: BellInequality, bloch_tables) -> tuple[PureState, float]:
    """Top eigenpair of the fixed-observable operator for the given Bloch
    tables, by one Hermitian eigendecomposition (at most 64 x 64)."""
    values, vectors = np.linalg.eigh(bell_operator(ineq, bloch_tables))
    return PureState(vectors[:, -1]), float(values[-1])


def optimize(ineq: BellInequality, opts: OptimizerOptions,
             initial_state: PureState | MixedState | None = None) -> OptimizationResult:
    """Joint maximization: observable sweeps, optionally alternated with
    state updates, best over seeded restarts. A state update returns a pure
    state, so ``optimize_state`` rejects a mixed initial state."""
    state = initial_state if initial_state is not None else ghz_state(ineq.scenario.n)
    if opts.optimize_state and isinstance(state, MixedState):
        raise ValidationError("optimize_state would replace the mixed initial state by a pure one")
    draws = [random_bloch_tables(ineq.scenario, rng)
             for rng in _restart_streams(opts.seed, opts.restarts)]
    restarts = _Restarts(ineq, state, [np.stack(party) for party in zip(*draws)])
    restarts.run(opts)
    return restarts.best()
