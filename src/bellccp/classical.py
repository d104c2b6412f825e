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
from functools import cached_property

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
# times 2^n entries. In the message search it caps the entries of every
# block array: the binned masses, their product with a block of tail
# functions, and that product's fold with a block of folded functions;
# only the (x, y) points of one keyed head combination may exceed it.
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
        return read_only(np.stack([table[row] for table, row in
                                   zip(self.tables, self.scenario.setting_index())], axis=1))


def _response_matrix(arity: int, size: int) -> np.ndarray:
    """Outputs of the first ``size`` of the 2^(2^arity) response functions,
    one row per function id below ``size``.

    Bit k of the function id encodes the output at visible-setting index k:
    bit 0 means +1. Ascending id is the enumeration (and tie-break) order.
    """
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
    if not isinstance(ineq, BellInequality):
        raise ValidationError(
            f"classical_bound needs a BellInequality, got a {type(ineq).__name__}")
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
    matrices = [_response_matrix(scenario.arity(i), size) for i, size in zip(rest, sizes)]
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


def _message_table(arity: int, family: str, size: int) -> np.ndarray:
    """+/-1 messages of the first ``size`` functions of a message family, one
    row per function over the party's slots setting * 2 + y bit (bit 1 for
    y = +1).

    Family "all" holds arbitrary functions of (setting, y); family "y-odd"
    holds m = y * h(setting), one row per response function h. Only the
    rows asked for are built.
    """
    if family == "all":
        return _response_matrix(arity + 1, size)
    y_sign = np.tile(np.array([-1, 1], dtype=np.int8), 2**arity)
    return np.repeat(_response_matrix(arity, size), 2, axis=1) * y_sign


def ccp_exhaustive_bound(instance: CcpInstance, message_family: str = "all") -> float:
    """Best classical success of the game over one-bit broadcast protocols.

    Exhausts the message strategies of the chosen family, one of each +/-
    class (see below), with every party's guess chosen pointwise-optimally.
    A party's own broadcast tells it nothing it does not already know, so
    its success depends only on the other parties' message functions; each
    party is therefore maximized over the product of the others' function
    spaces, and the returned value is the best success any single party
    can reach.

    With signed weights w(x, y) = |Q(x)| times the target
    f(x, y) = sign Q(x) prod y, unnormalised so that sum |w| = Gamma 2^n,
    party p guesses at each key: its slot (visible setting, y bit)
    together with the other parties' messages. The pointwise-best guess
    scores max(mass of f = +1, mass of f = -1) = (unsigned + |signed|) / 2
    at a key, so the success is 1/2 sum |w| plus half the sum over keys of
    |signed mass|, divided by sum |w|. Two identities, not bounds, shrink
    that sum, so the search stays exact:

    * Only p's y = +1 keys are scored, and their sum is doubled. Flipping
      y_p negates f, and so every signed mass at the key, while no other
      party's slot or message changes.

    * Of the other parties, the one with the largest family is the tail,
      the next largest is folded, and the rest, the keyed head, enter the
      key b' (p's setting and the keyed messages). Let C[b', s, t] be the
      signed mass at key b', folded slot s and tail slot t. A party's y bit
      flips f but enters neither b' nor another party's slot, so the two
      masses that its message splits a key into sum to zero, m+ + m- = 0,
      and |m+| + |m-| = |m+ - m-|. For the tail this gives
      G = C @ F^T over its +/-1 table F; for the folded party, applied to
      the tail-signed masses G, it gives |sum_s T[c, s] G[b', s, f]| over
      its +/-1 table T. The success is therefore

          (1/2 sum |w| + sum_b' |(T G)[c, b', f]|) / sum |w|

      for every keyed head combination, folded function c and tail
      function f at once, and C is binned by one ``bincount`` per block of
      keyed head combinations (once per party when n <= 3). With n = 2
      there is no head: the one-slot table T = [[1]] leaves sum_b' |G|.

    Keyed head combinations, tail functions and folded functions are taken
    in blocks, so that no block array holds more than ``_CHUNK`` entries,
    bar the (x, y) points of one keyed combination.

    The search is exhaustive and not pruned by value, but it scores one
    member of each +/- class. Negating the tail's or the folded party's
    messages negates (T G)[c, b', f], which |.| absorbs; negating a keyed
    party's messages flips its bit in every key, which only relabels the
    keys summed over. In both families the negated row of function id sits
    at id ^ (functions - 1), so each other party runs over the first half
    of its family table only, the functions whose last slot is +1, and the
    success is unchanged. The guard counts the (keyed combination, folded
    function, tail function) triples scored: the product of the other
    parties' halved tables, summed over p.

    For integral Q with Gamma 2^n < 2^53, every mass, ``bincount`` and
    +/-1-table product is an exact integer in float64, so the one division
    at the end is the correctly rounded value of an exact fraction: it
    equals ``classical_success_bound`` bit for bit. Other tables round as
    any float sum does.
    """
    if not isinstance(instance, CcpInstance):
        raise ValidationError(
            f"ccp_exhaustive_bound needs a CcpInstance, got a {type(instance).__name__}")
    if message_family not in ("all", "y-odd"):
        raise ValidationError(
            f"unknown message family {message_family!r}; use 'all' or 'y-odd'")
    ineq = instance.inequality
    scenario = ineq.scenario
    n = scenario.n

    # The first half of each family table, one function per +/- pair.
    slot_bits = 1 if message_family == "all" else 0
    family_sizes = [2 ** (2 ** (scenario.arity(i) + slot_bits)) // 2 for i in range(1, n + 1)]
    # Each party is maximized over the product of the others' families.
    work = sum(math.prod(family_sizes) // size for size in family_sizes)
    if work > MESSAGE_WORK_GUARD:
        advice = ("restrict the message family to 'y-odd'" if message_family == "all"
                  else "reduce the scenario's party count or visibility")
        raise EnumerationGuardError(
            f"message search needs {work} combinations, above the guard "
            f"{MESSAGE_WORK_GUARD}; {advice}")

    # The (x, y) grid, flattened with x major.
    ys = tuple_array(n)
    f_plus = ineq.sign_array()[:, None] == ys.prod(axis=1)[None, :]
    weights = np.abs(ineq.coefficient_array())[:, None]
    signed = np.where(f_plus, weights, -weights).ravel()
    total = float(np.abs(signed).sum())

    # Every party's slot at each (x, y), and its family's message table.
    slots = (scenario.setting_index()[:, :, None] * 2 + (ys.T > 0)[:, None, :]).reshape(n, -1)
    tables = [_message_table(scenario.arity(i), message_family, size)
              for i, size in enumerate(family_sizes, start=1)]

    best = 0.0
    for party in range(1, n + 1):
        # The (x, y) points with y_p = +1, where p's slot is 2 * setting + 1.
        own = (slots[party - 1] % 2).nonzero()[0]
        points = own.size
        setting = slots[party - 1, own] // 2
        # The other parties by family size: the tail takes the largest, the
        # folded party the next, and the keyed head the rest.
        keyed = sorted((j for j in range(1, n + 1) if j != party),
                       key=lambda j: tables[j - 1].shape[0])
        tail = keyed.pop()
        if keyed:
            folded = keyed.pop()
            fold_table, fold_slot = tables[folded - 1], slots[folded - 1, own]
        else:
            fold_table, fold_slot = np.ones((1, 1), dtype=np.int8), 0
        tail_table, tail_slot = tables[tail - 1], slots[tail - 1, own]
        folds, fold_width = fold_table.shape
        tails, width = tail_table.shape
        heads = math.prod(tables[j - 1].shape[0] for j in keyed)
        keys = 2 ** (scenario.arity(party) + len(keyed))
        block = min(heads, max(1, _CHUNK // max(points, fold_width * keys * width)))
        tail_block = min(tails, max(1, _CHUNK // max(fold_width * keys * block, width)))
        fold_block = max(1, _CHUNK // max(keys * block * tail_block, fold_width))
        for start in range(0, heads, block):
            count = min(block, heads - start)
            combos = np.arange(start, start + count, dtype=np.int64)
            key = setting
            stride = heads
            for j in keyed:
                size = tables[j - 1].shape[0]
                stride //= size
                fids = (combos // stride) % size
                key = key * 2 + (tables[j - 1][fids[:, None], slots[j - 1, own]] == -1)
            # Masses run (folded slot, key, head combination, tail slot), so
            # that T @ G contracts the leading axis and the sum over keys
            # adds contiguous runs of (head combination, tail function) scores.
            index = ((fold_slot * keys + key) * count + np.arange(count)[:, None]) * width + tail_slot
            masses = np.bincount(index.ravel(), weights=np.tile(signed[own], count),
                                 minlength=fold_width * keys * count * width)
            masses = masses.reshape(-1, width)
            for first in range(0, tails, tail_block):
                split = masses @ tail_table[first:first + tail_block].T.astype(np.float64)
                split = split.reshape(fold_width, -1)
                for low in range(0, folds, fold_block):
                    score = fold_table[low:low + fold_block].astype(np.float64) @ split
                    score = np.abs(score, out=score).reshape(len(score), keys, -1)
                    best = max(best, float(score.sum(axis=1).max()))
    return (0.5 * total + best) / total
