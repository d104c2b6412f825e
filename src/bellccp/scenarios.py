"""Causal structures, full-correlator inequalities, and the derived game.

A causal scenario records which inputs each party's output may depend on.
Parties are numbered 1..n and each party always sees its own input first.
Input tuples are vectors in {-1, +1}^n, enumerated lexicographically with
x_1 most significant and -1 ordered before +1; that order fixes table
indexing everywhere (files, enumeration, sampling). Every +/-1-keyed table
enters it through :func:`tuple_index`: length n, each entry equal to +1 or
-1 (1.0 and NumPy integers pass; 1.5 and "1" do not).

An inequality is a coefficient table Q over all input tuples together with
its normalizer Gamma = sum |Q|. The associated distributed game asks every
party to output the value of

    f(x, y) = y_1 ... y_n * sign(Q(x))

after a single broadcast bit each, with x drawn from q*(x) = |Q(x)| / Gamma
and each y_i a fair coin.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import ValidationError

MAX_PARTIES = 6


class FrozenTable(Mapping):
    """Read-only mapping that keeps its insertion order.

    Item assignment raises ``TypeError``. It equals any mapping with the
    same items, hashes over its items, and pickles by value.
    """

    __slots__ = ("_items",)

    def __init__(self, items=()):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    # The stored dict's own views: they read without one lookup per key,
    # and cannot write (their ``.mapping`` is a read-only proxy).
    def keys(self):
        return self._items.keys()

    def values(self):
        return self._items.values()

    def items(self):
        return self._items.items()

    def __eq__(self, other):
        return self._items == (other._items if isinstance(other, FrozenTable) else other)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"

    def __reduce__(self):
        return type(self), (self._items,)


class FrozenValue:
    """Base of the frozen value types: copies and pickles rebuild the value
    through its constructor, so validation and read-only storage hold for
    them too."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def read_only(array: np.ndarray) -> np.ndarray:
    """The array itself, made read-only."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def input_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n +/-1 tuples of length n in the canonical lexicographic order."""
    return tuple(itertools.product((-1, 1), repeat=n))


@lru_cache(maxsize=None)
def tuple_array(n: int) -> np.ndarray:
    """:func:`input_tuples` as one read-only int8 array of shape (2^n, n)."""
    return read_only(np.array(input_tuples(n), dtype=np.int8).reshape(2**n, n))


def tuple_index(x, n: int, what: str) -> int:
    """Canonical position of x; ``ValidationError`` unless x is a +/-1 tuple of length n."""
    try:
        length = len(x)
    except TypeError:
        raise ValidationError(f"{what} must be a tuple of +1/-1 entries, got {x!r}") from None
    if length != n:
        raise ValidationError(f"{what} must have length {n}, got {length}")
    index = 0
    for value in x:
        if value != 1 and value != -1:
            raise ValidationError(f"{what} entries must be +1 or -1, got {tuple(x)}")
        index = 2 * index + (1 if value == 1 else 0)
    return index


def canonical_values(table: Mapping, n: int, what: str, fill=None) -> list:
    """Values of a table keyed by +/-1 tuples of length n, in canonical order.
    An absent tuple takes ``fill``; with ``fill=None`` none may be absent."""
    values = [fill] * 2**n
    for x, value in table.items():
        values[tuple_index(x, n, what)] = value
    missing = [x for x, v in zip(input_tuples(n), values) if v is None] if fill is None else []
    if missing:
        raise ValidationError(f"{what} table is missing {missing}")
    return values


@lru_cache(maxsize=256)
def _setting_index(n: int, visibility: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only :meth:`CausalScenario.setting_index`, shared by equal scenarios."""
    # A setting index reads the visible inputs as binary digits, the first
    # most significant, with 1 for +1.
    bits = tuple_array(n).T > 0
    index = np.zeros((n, 2**n), dtype=np.int64)
    for row, group in zip(index, visibility):
        for j in group:
            row[:] = 2 * row + bits[j - 1]
    return read_only(index)


@dataclass(frozen=True)
class CausalScenario(FrozenValue):
    """Party count plus per-party ordered input-visibility lists (1-based)."""

    n: int
    visibility: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.n, Integral) or not 2 <= self.n <= MAX_PARTIES:
            raise ValidationError(f"party count must be an integer in [2, {MAX_PARTIES}], got {self.n}")
        vis = tuple(tuple(int(j) for j in group) for group in self.visibility)
        if len(vis) != self.n:
            raise ValidationError(f"need one visibility list per party, got {len(vis)} for n={self.n}")
        for i, group in enumerate(vis, start=1):
            if not group or group[0] != i:
                raise ValidationError(f"party {i} visibility must start with its own index, got {group}")
            if len(set(group)) != len(group):
                raise ValidationError(f"party {i} visibility has duplicates: {group}")
            if any(not 1 <= j <= self.n for j in group):
                raise ValidationError(f"party {i} visibility indices out of range 1..{self.n}: {group}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "visibility", vis)

    def arity(self, party: int) -> int:
        """Number of inputs visible to a party."""
        return len(self.visibility[party - 1])

    def visible_tuple(self, x, party: int) -> tuple[int, ...]:
        """Restriction of an input tuple to the party's visibility list."""
        return tuple(x[j - 1] for j in self.visibility[party - 1])

    def visible_tuples(self, party: int) -> tuple[tuple[int, ...], ...]:
        """All settings of a party, in canonical order."""
        return input_tuples(self.arity(party))

    def setting_index(self) -> np.ndarray:
        """Row i-1 holds party i's setting index at every input tuple, in
        canonical order: the position of ``visible_tuple(x, i)`` among
        ``visible_tuples(i)``. Shape (n, 2^n); computed once per distinct
        scenario, read-only."""
        return _setting_index(self.n, self.visibility)


def make_scenario(n: int, visibility) -> CausalScenario:
    """Validate and build a causal scenario from 1-based visibility lists."""
    return CausalScenario(n=n, visibility=tuple(tuple(group) for group in visibility))


@dataclass(frozen=True)
class BellInequality(FrozenValue):
    """Coefficient table Q over all input tuples, bound to a scenario.

    ``coeffs`` is stored read-only, with every input tuple in canonical
    order (absent tuples as 0). Integer coefficients are kept as Python
    ints so sums over them (the classical bound, Gamma) stay exact.
    ``gamma`` is derived, always sum |Q|, and is not a constructor argument.
    """

    scenario: CausalScenario
    coeffs: Mapping
    gamma: float = field(init=False, compare=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.scenario.n
        values = canonical_values(self.coeffs, n, "coefficient tuple", 0)
        for k, (x, q) in enumerate(zip(input_tuples(n), values)):
            if not isinstance(q, Real) or not math.isfinite(q):
                raise ValidationError(f"coefficient Q{x} must be a finite real, got {q!r}")
            values[k] = int(q) if isinstance(q, Integral) or float(q).is_integer() else float(q)
        gamma = sum(abs(q) for q in values)
        if gamma <= 0:
            raise ValidationError("all coefficients are zero; the inequality is empty")
        object.__setattr__(self, "coeffs", FrozenTable(zip(input_tuples(n), values)))
        object.__setattr__(self, "gamma", gamma)
        dtype = np.int64 if all(isinstance(q, Integral) for q in values) else float
        array = read_only(np.array(values, dtype=dtype))
        object.__setattr__(self, "_coefficient_array", array)
        # Zero coefficients carry no probability mass in the game, so their
        # sign is unobservable; +1 keeps it total.
        object.__setattr__(self, "_sign_array",
                           read_only(np.where(array < 0, -1, 1).astype(np.int8)))

    @property
    def n(self) -> int:
        return self.scenario.n

    def coefficient_array(self) -> np.ndarray:
        """Q in canonical tuple order; int64 when all entries are integral.
        Computed once, read-only."""
        return self._coefficient_array

    def sign_array(self) -> np.ndarray:
        """sign Q in canonical tuple order as int8, with sign(0) = +1.
        Computed once, read-only."""
        return self._sign_array


def input_distribution(ineq: BellInequality) -> Mapping:
    """q*(x) = |Q(x)| / Gamma by input tuple: the read-only table of the
    default :class:`CcpInstance`."""
    return CcpInstance(inequality=ineq).input_distribution


def target_function(ineq: BellInequality, x, y) -> int:
    """f(x, y) = prod(y) * sign(Q(x)), valued in {-1, +1}."""
    k = tuple_index(x, ineq.n, "x")
    tuple_index(y, ineq.n, "y")
    return int(np.prod(y) * ineq.sign_array()[k])


@dataclass(frozen=True)
class CcpInstance(FrozenValue):
    """An inequality plus the input distribution of the derived game (default
    q*), stored read-only over every input tuple in canonical order."""

    inequality: BellInequality
    input_distribution: Mapping | None = None

    def __post_init__(self):
        ineq, dist = self.inequality, self.input_distribution
        tuples = input_tuples(ineq.n)
        if dist is None:
            vector = np.abs(ineq.coefficient_array()) / ineq.gamma
        else:
            vector = np.array(canonical_values(dist, ineq.n, "input tuple", 0.0), dtype=float)
            total = 0.0
            for x, p in zip(tuples, vector.tolist()):
                if not p >= 0:
                    raise ValidationError(f"probability of {x} must be non-negative, got {p}")
                total += p
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"input distribution sums to {total}, not 1")
        object.__setattr__(self, "input_distribution", FrozenTable(zip(tuples, vector.tolist())))
        object.__setattr__(self, "_probability_vector", read_only(vector))

    def probability_vector(self) -> np.ndarray:
        """The input distribution in canonical tuple order. Computed once,
        read-only."""
        return self._probability_vector


def gyni_scenario() -> CausalScenario:
    """Three parties in a ring; each also sees its left neighbour's input."""
    return make_scenario(3, [(1, 3), (2, 1), (3, 2)])


def gyni_inequality() -> BellInequality:
    """Ring scenario inequality: Q = +1 everywhere except Q(-1,-1,-1) = -1.

    Classical bound 6 over the ring's response functions; Gamma = 8.
    """
    coeffs = {x: 1 for x in input_tuples(3)}
    coeffs[(-1, -1, -1)] = -1
    return BellInequality(scenario=gyni_scenario(), coeffs=coeffs, name="gyni")


def svetlichny_scenario() -> CausalScenario:
    """Parties 1 and 2 exchange inputs; party 3 sees only its own."""
    return make_scenario(3, [(1, 2), (2, 1), (3,)])


def svetlichny_inequality() -> BellInequality:
    """Q = +1 on mixed tuples, -1 on (+,+,+) and (-,-,-); Gamma = 8.

    Equals 1 - (1-x1)(1-x2)(1-x3)/4 - (1+x1)(1+x2)(1+x3)/4 tuple by tuple;
    the classical bound over the communication structure is 4.
    """
    coeffs = {}
    for x in input_tuples(3):
        q = 1
        if x == (1, 1, 1) or x == (-1, -1, -1):
            q = -1
        coeffs[x] = q
    return BellInequality(scenario=svetlichny_scenario(), coeffs=coeffs, name="svetlichny")


def chsh_inequality() -> BellInequality:
    """Two-party no-communication inequality with Q = (1, 1, 1, -1).

    Classical bound 2, Gamma = 4.
    """
    coeffs = {x: 1 for x in input_tuples(2)}
    coeffs[(1, 1)] = -1
    scenario = make_scenario(2, [(1,), (2,)])
    return BellInequality(scenario=scenario, coeffs=coeffs, name="chsh")


NAMED_INEQUALITIES = {
    "gyni": gyni_inequality,
    "svetlichny": svetlichny_inequality,
    "chsh": chsh_inequality,
}


def named_inequality(name: str) -> BellInequality:
    try:
        factory = NAMED_INEQUALITIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown inequality {name!r}; known names: {sorted(NAMED_INEQUALITIES)}") from None
    return factory()
