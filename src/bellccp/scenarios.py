"""Causal structures, full-correlator inequalities, and the derived game.

A causal scenario records which inputs each party's output may depend on.
Parties are numbered 1..n and each party always sees its own input first.
Input tuples are vectors in {-1, +1}^n, enumerated lexicographically with
x_1 most significant and -1 ordered before +1; that order fixes table
indexing everywhere (files, enumeration, sampling): a table over the
input tuples is an array of shape (2^n,) in that order. Every +/-1 tuple
enters it through :func:`tuple_index`: length n, each entry equal to +1 or
-1 (1.0 and NumPy integers pass; 1.5, "1" and True do not).

An inequality is a coefficient table Q over all input tuples together with
its normalizer Gamma = sum |Q|. The associated distributed game asks every
party to output the value of

    f(x, y) = y_1 ... y_n * sign(Q(x))

after a single broadcast bit each, with x drawn from q*(x) = |Q(x)| / Gamma
and each y_i a fair coin. The inequality states the whole game: a game
with input weights w(x) >= 0 is the game of Q'(x) = sign Q(x) * w(x).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from numbers import Integral, Real
from types import MappingProxyType

import numpy as np

from .errors import ValidationError

MAX_PARTIES = 6

# Bound on |Q(x)|: integer coefficients stay exact as floats, and a signed
# sum of 2^MAX_PARTIES of them cannot overflow int64.
COEFFICIENT_LIMIT = 2**53


class FrozenValue:
    """Base of the frozen value types: copies and pickles rebuild the value
    through its constructor, so validation and read-only storage hold for
    them too. A read-only mapping field goes to the constructor as a dict."""

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


class _ArrayValue(FrozenValue):
    """Value ``==`` and ``hash`` over ``_value()``: by default the entries of
    the read-only array named by ``_value_field``.

    Entries compare as Python numbers, so -0.0 and 0.0 agree."""

    def _value(self) -> tuple:
        return tuple(getattr(self, self._value_field).ravel().tolist())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())


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


_NP_TRUE = np.True_


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
        # False already fails the test; True and NumPy's True are singletons.
        if value is True or value is _NP_TRUE or (value != 1 and value != -1):
            raise ValidationError(f"{what} entries must be +1 or -1, got {tuple(x)}")
        index = 2 * index + (1 if value == 1 else 0)
    return index


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


def _party_indices(group) -> tuple[int, ...]:
    """One visibility list as ints; ``ValidationError`` unless every entry
    equals its int: an int, a NumPy integer or an integral float, not a bool."""
    group = tuple(group)
    try:
        indices = tuple(map(int, group))
    except (TypeError, ValueError, OverflowError):
        indices = None
    if indices != group or any(isinstance(j, (bool, np.bool_)) for j in group):
        raise ValidationError(f"visibility entries must be integer party indices, got {group!r}")
    return indices


@dataclass(frozen=True)
class CausalScenario(FrozenValue):
    """Party count plus per-party ordered input-visibility lists (1-based)."""

    n: int
    visibility: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.n, Integral) or not 2 <= self.n <= MAX_PARTIES:
            raise ValidationError(f"party count must be an integer in [2, {MAX_PARTIES}], "
                                  f"got {self.n!r}")
        try:
            # Only a visibility or a group that is not iterable raises TypeError.
            vis = tuple(_party_indices(group) for group in self.visibility)
        except TypeError:
            raise ValidationError(f"visibility must be a list of party lists, "
                                  f"got {self.visibility!r}") from None
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

    def visible_tuples(self, party: int) -> tuple[tuple[int, ...], ...]:
        """All settings of a party, in canonical order."""
        return input_tuples(self.arity(party))

    def setting_index(self) -> np.ndarray:
        """Row i-1 holds party i's setting index at every input tuple, in
        canonical order: the position among ``visible_tuples(i)`` of x
        restricted to party i's visibility list. Shape (n, 2^n); computed
        once per distinct scenario, read-only."""
        return _setting_index(self.n, self.visibility)


def make_scenario(n: int, visibility) -> CausalScenario:
    """Validate and build a causal scenario from 1-based visibility lists."""
    return CausalScenario(n=n, visibility=visibility)


@dataclass(frozen=True, eq=False)
class BellInequality(_ArrayValue):
    """Coefficient table Q over all input tuples, bound to a scenario.

    Each given entry is checked once, in the mapping's order; the first bad
    one raises. ``coeffs`` is stored as a read-only mapping with every input
    tuple in canonical order (absent tuples as 0); integral coefficients are
    Python ints, so sums over them stay exact, and each |Q(x)| must be below
    ``COEFFICIENT_LIMIT``, so they also fit int64. ``coefficient_array()`` is
    int64 unless some entry is a non-integral float, then float64. ``gamma``
    is derived, not a constructor argument: sum |Q| over Python numbers in
    canonical order, an int for integral tables. Inequalities compare and
    hash by scenario and coefficients; ``gamma`` and ``name`` do not enter.
    """

    scenario: CausalScenario
    coeffs: Mapping
    gamma: int | float = field(init=False)
    name: str | None = None

    def __post_init__(self):
        if not isinstance(self.scenario, CausalScenario):
            raise ValidationError(f"an inequality needs a CausalScenario, got {self.scenario!r}")
        n = self.scenario.n
        if not isinstance(self.coeffs, Mapping):
            raise ValidationError(f"coefficient table must be a mapping, "
                                  f"got {type(self.coeffs).__name__}")
        values, placed, dtype = [0] * 2**n, set(), np.int64
        for x, q in self.coeffs.items():
            k = tuple_index(x, n, "coefficient tuple")
            if k in placed:
                raise ValidationError(f"two coefficient entries for x = {input_tuples(n)[k]}")
            placed.add(k)
            if isinstance(q, bool) or not isinstance(q, Real) or not abs(q) < COEFFICIENT_LIMIT:
                raise ValidationError(f"coefficient Q{input_tuples(n)[k]} must be a finite real "
                                      f"below 2^53 in magnitude, got {q!r}")
            if isinstance(q, Integral) or float(q).is_integer():
                values[k] = int(q)
            else:
                values[k], dtype = float(q), float
        gamma = sum(map(abs, values))
        if gamma <= 0:
            raise ValidationError("all coefficients are zero; the inequality is empty")
        object.__setattr__(self, "coeffs", MappingProxyType(dict(zip(input_tuples(n), values))))
        object.__setattr__(self, "gamma", gamma)
        array = read_only(np.array(values, dtype=dtype))
        object.__setattr__(self, "_coefficient_array", array)
        # Zero coefficients carry no probability mass in the game, so their
        # sign is unobservable; +1 keeps it total.
        object.__setattr__(self, "_sign_array",
                           read_only(np.where(array < 0, -1, 1).astype(np.int8)))

    def _value(self) -> tuple:
        return self.scenario, tuple(self.coeffs.values())

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


@dataclass(frozen=True)
class CcpInstance(FrozenValue):
    """The game derived from an inequality: inputs drawn from
    q*(x) = |Q(x)| / Gamma, target prod(y) * sign Q(x).

    A game with input weights w is the game of Q'(x) = sign Q(x) * w(x).
    """

    inequality: BellInequality

    def __post_init__(self):
        ineq = self.inequality
        if not isinstance(ineq, BellInequality):
            raise ValidationError(f"a game needs a BellInequality, got {ineq!r}")
        object.__setattr__(self, "_probability_vector",
                           read_only(np.abs(ineq.coefficient_array()) / ineq.gamma))

    def probability_vector(self) -> np.ndarray:
        """q* in canonical tuple order. Computed once, read-only."""
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
    coeffs = {x: -1 if x in ((1, 1, 1), (-1, -1, -1)) else 1 for x in input_tuples(3)}
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
