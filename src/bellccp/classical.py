"""Exact classical bounds by exhaustive search.

Two distinct searches live here and deliberately stay independent of each
other:

* ``classical_bound`` maximizes the inequality value over deterministic
  response strategies (one +/-1 output table per party over its visible
  inputs). The expression is linear in each party's response probabilities,
  so the maximum over all hidden-variable models is attained at one of these
  deterministic points.

* ``ccp_exhaustive_bound`` maximizes the success probability of the derived
  guessing game over one-bit broadcast protocols: every party sends an
  arbitrary +/-1 message computed from its visible inputs and its own y bit,
  and each party then guesses pointwise-optimally from everything it knows.
  No inequality machinery enters this search, which makes it a usable
  cross-check of the success-bound formula.

Both searches are exact, exhaustive, vectorized and never pruned by value.
Each scores one member of every class of strategies that differ only by
negating whole party tables, which provably score alike; each derives that
reduction in its own terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EnumerationGuardError, ValidationError
from .quantum import success_probability
from .scenarios import (
    BellInequality,
    CausalScenario,
    CcpInstance,
    _ArrayValue,
    read_only,
    tuple_array,
)

# Upper bound on the work of classical_bound: swept combinations times the
# 2^n input tuples each one is evaluated on.
SWEEP_WORK_GUARD = 2**32

# Combination-tuple evaluations of the reduced sweep per second; the guard's
# error message estimates the run time from it. Medians of five calls with
# one BLAS thread on a 2-core x86-64 host: a random n = 5 ring (2^17
# evaluations) ran at 3.2e8, 0.42 ms a call, and an n = 6 ring (2^21) at
# 1.5e9, 1.36 ms, both mostly per-call overhead; an n = 6 scenario with
# three parties seeing three inputs (2^29) ran at 4.0e9, 0.13 s. The message
# only appears above 2^32 evaluations, so the rate is the large sweep's.
_SWEEP_RATE = 4e9

# Combinations per block of the classical_bound sweep, and the cap on its
# tail, so that no product array of the sweep holds more than this many
# times 2^n entries; also the cap on every block array of the message search.
_CHUNK = 1 << 14

# Upper bound on the message-function combinations ccp_exhaustive_bound scores.
MESSAGE_WORK_GUARD = 2**20


@dataclass(frozen=True, eq=False)
class DeterministicStrategy(_ArrayValue):
    """One deterministic output table per party, consistent with a scenario.

    ``tables[i - 1]`` holds party i's +/-1 outputs by setting index, shape
    (2^arity,): entry s is the output at the party's s-th visible tuple in
    canonical order. The tables are copied and stored read-only as int8;
    every entry must equal +1 or -1 (1.0 passes; 0, 1.5 and NaN do not).
    Strategies compare and hash by value."""

    scenario: CausalScenario
    tables: tuple

    def __post_init__(self):
        what = type(self).__name__
        if not isinstance(self.scenario, CausalScenario):
            raise ValidationError(f"a {what} needs a CausalScenario, got {self.scenario!r}")
        shapes = [(2 ** len(group),) for group in self.scenario.visibility]
        try:
            tables = [np.asarray(table) for table in self.tables]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{what} tables must be arrays: {exc}") from None
        if [table.shape for table in tables] != shapes:
            raise ValidationError(f"{what} tables must have shapes {shapes}, "
                                  f"got {[table.shape for table in tables]}")
        # One check of every party's entries at once.
        flat = np.concatenate(tables)
        if flat.dtype.kind not in "iuf" or not (np.abs(flat) == 1).all():
            raise ValidationError(f"every entry of the {what} tables must be +1 or -1")
        object.__setattr__(self, "tables", tuple(read_only(t.astype(np.int8)) for t in tables))

    def _value(self) -> tuple:
        return self.scenario, tuple(tuple(table.tolist()) for table in self.tables)

    def output_array(self) -> np.ndarray:
        """Party i's output at every input tuple in column i-1, shape (2^n, n),
        in canonical tuple order. Computed once, on first call; read-only."""
        return self._output_array

    # Built on first use: the witness of a search is often never tabulated.
    @cached_property
    def _output_array(self) -> np.ndarray:
        return read_only(np.concatenate(self.tables)[_output_index(self.scenario)])


@lru_cache(maxsize=256)
def _output_index(scenario: CausalScenario) -> np.ndarray:
    """Where party i's output at x sits in the concatenated tables, at [x, i - 1]."""
    starts = np.cumsum([0] + [2 ** scenario.arity(i) for i in range(1, scenario.n)])
    return read_only((scenario.setting_index() + starts[:, None]).T.copy())


def _response_matrix(arity: int) -> np.ndarray:
    """Outputs of all 2^(2^arity) response functions, one row per function.

    Bit k of the function id encodes the output at visible-setting index k:
    bit 0 means +1. Ascending id is the enumeration (and tie-break) order.
    """
    size = 2 ** (2**arity)
    # The low 2^arity bits of each id, unpacked from its little-endian bytes
    # into one uint8 per slot, so that no wider array of the table's shape
    # is ever held.
    fids = np.arange(size, dtype="<u8").view(np.uint8).reshape(size, 8)
    bits = np.unpackbits(fids, axis=1, count=2**arity, bitorder="little")
    return 1 - 2 * bits.view(np.int8)


def _odometer_products(rows, start: int, stop: int, num_x: int) -> np.ndarray:
    """Products of the parties' output rows for combinations start..stop-1,
    in odometer order with the first party most significant. ``rows`` holds
    one (functions, 2^n) array per party. Shape (stop - start, 2^n)."""
    combos = np.arange(start, stop, dtype=np.int64)
    prod = np.ones((stop - start, num_x), dtype=np.int8)
    stride = 1
    for outputs in reversed(rows):
        prod *= outputs[(combos // stride) % outputs.shape[0]]
        stride *= outputs.shape[0]
    return prod


def classical_bound(ineq: BellInequality):
    """Exact maximum of the inequality over deterministic strategies.

    Returns ``(value, witness)``; the value is an int when Q is integral.
    The party with the largest table is not enumerated: once the other
    parties' outputs are fixed the value is linear in each of its table
    entries, so its optimal table is the sign of the accumulated
    coefficient at each of its settings, and the combination's value is
    sum_g |sum_{x in g} Q(x) prod_i a_i(x)| over that party's setting
    groups g.

    Negating one swept party's whole table negates every product, which
    the |group sum| absorbs, so a combination and its negations in any
    subset of the swept parties all score alike. The negated table of
    function id sits at id ^ (size - 1), so each such class is the product
    of one pair {id, id ^ (size - 1)} per swept party, and its first member
    in odometer order takes every party's id below size / 2 (last output
    +1). Each swept party therefore runs over the lower half of its
    functions only: the value is unchanged, and so is the odometer's first
    maximizer, the first member of the first maximizing class.

    The swept parties are enumerated exhaustively, meet in the middle. Their
    odometer (first party most significant, function ids ascending) is
    split into head and tail parties, the tail with at most ``_CHUNK``
    combinations and no more than the head. With H the head products times
    Q and T the tail products, one matrix product per group g,
    H[:, g] @ T[:, g]^T, gives the partial sums of every (head, tail) pair;
    the head is swept in blocks of at most ``_CHUNK`` combinations.
    Since head * tails + tail is the odometer index, the first maximum of a
    block in row-major order, replacing the best so far only when strictly
    larger, is the odometer's first maximizer: the sweep is not pruned by
    value and breaks ties exactly as a plain odometer does. Integral
    coefficients are summed in float64 while Gamma < 2^53, where every
    partial sum is an exact integer, and in int64 above.
    """
    scenario = ineq.scenario
    n = scenario.n
    num_x = 2**n
    parties = list(range(1, n + 1))
    eliminated = max(parties, key=lambda i: scenario.arity(i))
    rest = [i for i in parties if i != eliminated]
    # The lower half of each swept party's functions, one per +/- pair.
    sizes = [2 ** 2 ** scenario.arity(i) // 2 for i in rest]
    total = math.prod(sizes)
    if total * num_x > SWEEP_WORK_GUARD:
        raise EnumerationGuardError(
            f"sweeping {total} combinations over {num_x} input tuples exceeds the guard "
            f"{SWEEP_WORK_GUARD} (an estimated {total * num_x / _SWEEP_RATE:.3g} s); "
            "reduce the scenario's party count or visibility")

    q = ineq.coefficient_array()
    exact_ints = q.dtype == np.int64
    dtype = np.int64 if exact_ints and ineq.gamma >= 2**53 else np.float64
    vis_idx = scenario.setting_index()
    # Input tuples sorted by the eliminated party's setting: group g is
    # columns g * width .. (g + 1) * width - 1.
    group_count = 2 ** scenario.arity(eliminated)
    width = num_x // group_count
    order = np.argsort(vis_idx[eliminated - 1], kind="stable")

    # Every candidate function of each swept party, by setting and in x-space.
    matrices = [_response_matrix(scenario.arity(i))[:size] for i, size in zip(rest, sizes)]
    rows = [matrix[:, vis_idx[i - 1]] for i, matrix in zip(rest, matrices)]
    # The tail takes the last parties while it stays within _CHUNK
    # combinations and no larger than the head.
    split = len(rest)
    tails = 1
    while split > 0:
        grown = tails * sizes[split - 1]
        if grown > _CHUNK or grown * grown > total:
            break
        split -= 1
        tails = grown
    heads = total // tails
    tail = _odometer_products(rows[split:], 0, tails, num_x)[:, order].astype(dtype)
    tail = tail.reshape(tails, group_count, width).transpose(1, 2, 0).copy()
    q_sorted = q[order].astype(dtype)

    best_value = None
    best_combo = 0
    block = max(1, _CHUNK // tails)
    for start in range(0, heads, block):
        stop = min(start + block, heads)
        head = _odometer_products(rows[:split], start, stop, num_x)[:, order] * q_sorted
        head = head.reshape(stop - start, group_count, width)
        values = np.zeros((stop - start, tails), dtype=dtype)
        for g in range(group_count):
            partial = head[:, g] @ tail[g]
            values += np.abs(partial, out=partial)
        idx = int(np.argmax(values))
        value = (int if exact_ints else float)(values.flat[idx])
        if best_value is None or value > best_value:
            best_value = value
            best_combo = start * tails + idx

    # Reconstruct the witness from the first maximizing combination.
    fids = np.unravel_index(best_combo, sizes)
    tables = {party: matrix[fid] for party, matrix, fid in zip(rest, matrices, fids)}
    prod = np.prod([outputs[fid] for outputs, fid in zip(rows, fids)], axis=0)
    grouped = (prod * q)[order].reshape(group_count, width).sum(axis=1)
    tables[eliminated] = np.where(grouped >= 0, 1, -1)
    witness = DeterministicStrategy(scenario=scenario, tables=tuple(tables[i] for i in parties))

    return best_value, witness


def classical_success_bound(ineq: BellInequality) -> float:
    """Best classical success of the derived game: 1/2 + bound / (2 Gamma)."""
    return success_probability(classical_bound(ineq)[0], ineq.gamma)


def _message_table(arity: int, family: str) -> np.ndarray:
    """+/-1 messages of every function of a message family, one row per
    function over the party's slots setting * 2 + y bit (bit 1 for y = +1).

    Family "all" holds arbitrary functions of (setting, y); family "y-odd"
    holds m = y * h(setting), one row per response function h.
    """
    if family == "all":
        return _response_matrix(arity + 1)
    y_sign = np.tile(np.array([-1, 1], dtype=np.int8), 2**arity)
    return np.repeat(_response_matrix(arity), 2, axis=1) * y_sign


def ccp_exhaustive_bound(instance: CcpInstance, message_family: str = "all") -> float:
    """Best classical success of the game over one-bit broadcast protocols.

    Exhausts the message strategies of the chosen family, one of each +/-
    class (see below), with every party's guess chosen pointwise-optimally.
    A party's own broadcast tells it nothing it does not already know, so
    its success depends only on the other parties' message functions; each
    party is therefore maximized over the product of the others' function
    spaces, and the returned value is the best success any single party
    can reach.

    For party p the other party with the largest family is the tail and
    the rest are the head. With signed weights w(x, y) = p(x) / 2^n times
    the target f(x, y) = sign Q(x) prod y, one ``bincount`` per block of head
    combinations gives the signed masses C[h, b, s], where the key b is p's
    slot (visible setting, y bit) together with the head's messages and s is
    the tail's slot. The tail's message splits key b into (b, +1) and
    (b, -1) with signed masses m+ and m-, and the pointwise-best guess
    scores max(mass of f = +1, mass of f = -1) = (unsigned + |signed|) / 2
    on each. The tail's y bit flips f but does not enter b, so
    m+ + m- = 0 and |m+| + |m-| = |m+ - m-| = |M[h, b, f]| with
    M = C @ F^T over the tail's +/-1 table F. The success is therefore

        1/2 sum |w| + 1/2 sum_b |M[h, b, f]|

    for every head combination h and tail function f at once. Head
    combinations and tail functions are taken in blocks so that no array of
    the search holds more than ``_CHUNK`` entries.

    The search is exhaustive and not pruned by value, but it scores one
    member of each +/- class. Negating the tail's messages flips the sign
    of M[h, b, f], which |M| absorbs; negating a head party's messages
    flips its bit in every key b, which only relabels the keys summed over.
    In both families the negated row of function id sits at
    id ^ (functions - 1), so each other party runs over the first half of
    its family table only, the functions whose last slot is +1, and the
    success is unchanged. The guard counts these halved tables.
    """
    if message_family not in ("all", "y-odd"):
        raise ValidationError(
            f"unknown message family {message_family!r}; use 'all' or 'y-odd'")
    ineq = instance.inequality
    scenario = ineq.scenario
    n = scenario.n
    num_x = 2**n

    # The first half of each family table, one function per +/- pair.
    slot_bits = 1 if message_family == "all" else 0
    family_sizes = [2 ** (2 ** (scenario.arity(i) + slot_bits)) // 2 for i in range(1, n + 1)]
    # Each party is maximized over the product of the others' families.
    work = sum(math.prod(family_sizes) // size for size in family_sizes)
    if work > MESSAGE_WORK_GUARD:
        raise EnumerationGuardError(
            f"message search needs {work} combinations, above the guard "
            f"{MESSAGE_WORK_GUARD}; restrict the message family")

    # The (x, y) grid, flattened with x major.
    grid = num_x * num_x
    ys = tuple_array(n)
    f_plus = ineq.sign_array()[:, None] == ys.prod(axis=1)[None, :]
    weights = instance.probability_vector()[:, None] / 2**n
    signed = np.where(f_plus, weights, -weights).ravel()
    total = float(np.abs(signed).sum())

    # Every party's slot at each (x, y), and its family's message table.
    slots = (scenario.setting_index()[:, :, None] * 2 + (ys.T > 0)[:, None, :]).reshape(n, grid)
    tables = [_message_table(scenario.arity(i), message_family)[:size]
              for i, size in enumerate(family_sizes, start=1)]

    best = 0.0
    for party in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != party]
        tail = max(others, key=lambda j: tables[j - 1].shape[0])
        head = [j for j in others if j != tail]
        heads = math.prod(tables[j - 1].shape[0] for j in head)
        keys = 2 ** (scenario.arity(party) + 1 + len(head))
        tail_table = tables[tail - 1]
        tails, width = tail_table.shape

        block = min(heads, max(1, _CHUNK // max(grid, keys * width)))
        tail_block = max(1, _CHUNK // max(block * keys, width))
        for start in range(0, heads, block):
            count = min(block, heads - start)
            combos = np.arange(start, start + count, dtype=np.int64)
            key = np.broadcast_to(slots[party - 1], (count, grid))
            stride = heads
            for j in head:
                size = tables[j - 1].shape[0]
                stride //= size
                fids = (combos // stride) % size
                key = key * 2 + (tables[j - 1][fids[:, None], slots[j - 1][None, :]] == -1)
            # Masses run key-major, (b, h), so that the sum over keys adds
            # contiguous runs of head combinations.
            index = (key * count + np.arange(count)[:, None]) * width + slots[tail - 1]
            masses = np.bincount(index.ravel(), weights=np.tile(signed, count),
                                 minlength=keys * count * width)
            masses = masses.reshape(keys * count, width)
            for first in range(0, tails, tail_block):
                split = tail_table[first:first + tail_block].astype(np.float64) @ masses.T
                score = np.abs(split, out=split).reshape(-1, keys, count).sum(axis=1)
                best = max(best, float(score.max()))
    return 0.5 * total + 0.5 * best
