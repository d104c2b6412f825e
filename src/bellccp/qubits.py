"""Dense complex linear algebra for small multi-qubit systems.

States live on n qubits with party 1 as the most significant tensor factor,
so basis index 0 is |0...0> and index 2^n - 1 is |1...1>. A binary
observable is its unit Bloch vector r: it acts as r . sigma, with outcome
projectors (I +/- r . sigma) / 2. Strategies store these vectors as Bloch
tables (:class:`quantum.QuantumStrategy`); :class:`Observable2` is the
one-vector view of a table row.

Everything here is a pure function over immutable values: state and
observable arrays are copied on construction and marked read-only,
states and observables compare and hash by their entries, and copies and
pickles rebuild them through their constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlochVectorError, NumericError, ValidationError
from .scenarios import MAX_PARTIES, _ArrayValue

# Absolute tolerance used by every invariant check in the package.
ATOL = 1e-9

# Bloch vectors within this distance of unit norm are renormalized silently;
# anything further off is rejected. Wide enough to accept unit vectors whose
# components were rounded to two decimals.
BLOCH_NORM_TOL = 1e-2

# No entry of a unit vector or of a density matrix comes near this
# magnitude. Larger entries are rejected before anything squares or
# subtracts them, where they could overflow.
_MAGNITUDE_LIMIT = 2.0

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_x, sigma_y, sigma_z as the rows of a (3, 4) matrix: the rows of
# r @ PAULI_ROWS are the flattened r . sigma.
PAULI_ROWS = np.stack(PAULIS).reshape(3, 4)
# Entry [2 * i + j, p] is sigma_p[j, i], for p = 0 (identity), 1 (x),
# 2 (y), 3 (z): the (4, 4) matrix that np.tensordot builds from the stacked
# sigma_p to sum rho[i, j] sigma_p[j, i] over one qubit's row i and column j.
_PAULI_COLUMNS = np.stack([IDENTITY_2, *PAULIS]).transpose(2, 1, 0).reshape(4, 4)


def _frozen_finite(arr: np.ndarray) -> np.ndarray:
    """The array itself, read-only, once every entry is finite."""
    if not np.isfinite(arr).all():
        raise ValidationError("array entries must be finite")
    arr.setflags(write=False)
    return arr


def _frozen_complex_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValidationError(f"expected array of shape {shape}, got {arr.shape}")
    return _frozen_finite(arr)


def _norm(arr: np.ndarray) -> float:
    """Euclidean norm of a finite vector, as ``np.linalg.norm`` gives it.

    A vector with an entry beyond ``_MAGNITUDE_LIMIT`` is no unit vector;
    its norm comes from ``math.hypot``, which cannot overflow on the squares.
    """
    if np.abs(arr).max() <= _MAGNITUDE_LIMIT:
        return float(np.linalg.norm(arr))
    return math.hypot(*arr.real.tolist(), *arr.imag.tolist())


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValidationError(f"{what} dimension {dim} is not a power of two")
    if n > MAX_PARTIES:
        raise ValidationError(f"{what} exceeds the cap of {MAX_PARTIES} qubits")
    return n


@dataclass(frozen=True, eq=False)
class PureState(_ArrayValue):
    """Normalized state vector; the qubit count ``n`` is derived from its length."""

    amplitudes: np.ndarray
    n: int = field(init=False)
    _value_field = "amplitudes"

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, (np.size(self.amplitudes),))
        n = _qubit_count(arr.shape[0], "state")
        norm = _norm(arr)
        if abs(norm - 1.0) > ATOL:
            raise ValidationError(f"state norm {norm} differs from 1 by more than {ATOL}")
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class MixedState(_ArrayValue):
    """Density matrix: Hermitian, unit trace, PSD; the qubit count ``n`` is
    derived from its dimension."""

    matrix: np.ndarray
    n: int = field(init=False)
    _value_field = "matrix"

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        mat = _frozen_finite(mat)
        n = _qubit_count(mat.shape[0], "density matrix")
        largest = float(np.abs(mat).max())
        if largest > _MAGNITUDE_LIMIT:
            raise ValidationError(f"density matrix entry of magnitude {largest} exceeds 1, "
                                  "so it is not a unit-trace positive matrix")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValidationError("density matrix is not Hermitian")
        trace = np.trace(mat).real
        if abs(trace - 1.0) > ATOL:
            raise ValidationError(f"density matrix trace {trace} differs from 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues[0] < -ATOL:
            raise ValidationError(f"density matrix has negative eigenvalue {eigenvalues[0]}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density_matrix(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True, eq=False)
class Observable2(_ArrayValue):
    """Traceless binary qubit observable r . sigma with unit Bloch vector r.

    Squares to the identity, so its eigenvalues are +/-1. Renormalize
    slightly off-unit input with :func:`unit_bloch` first.
    """

    bloch: np.ndarray
    _value_field = "bloch"

    def __post_init__(self):
        r = np.array(self.bloch, dtype=float)
        if r.shape != (3,):
            raise ValidationError(f"Bloch vector must have 3 components, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValidationError("Bloch vector entries must be finite")
        if abs(_norm(r) - 1.0) > ATOL:
            raise ValidationError("Observable2 requires an exactly unit Bloch vector; "
                                  "use unit_bloch to renormalize")
        r.setflags(write=False)
        object.__setattr__(self, "bloch", r)


def unit_bloch(r) -> np.ndarray:
    """A (nearly) unit 3-vector divided by its norm.

    Vectors with norm within ``BLOCH_NORM_TOL`` of 1 are renormalized;
    anything further off raises :class:`BlochVectorError`.
    """
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise BlochVectorError(f"Bloch vector must have 3 components, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise BlochVectorError("Bloch vector entries must be finite")
    norm = _norm(vec)
    if abs(norm - 1.0) > BLOCH_NORM_TOL:
        raise BlochVectorError(f"Bloch vector norm {norm} outside "
                               f"[{1 - BLOCH_NORM_TOL}, {1 + BLOCH_NORM_TOL}]")
    return vec / norm


def tensor_product(factors) -> np.ndarray:
    """Kronecker product of 2x2 operators in party order 1..n.

    Each factor f takes the d x d product so far to the 2d x 2d array with
    entry [2i + k, 2j + l] = out[i, j] * f[k, l]: one broadcast multiply and
    a reshape. That is the same single multiply per entry as ``np.kron``, so
    the result equals the ``np.kron`` chain bit for bit, without its
    per-call axis bookkeeping.
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("tensor_product requires at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    if out.shape != (2, 2):
        raise ValidationError(f"factors must be 2x2, got shape {out.shape}")
    for factor in factors[1:]:
        factor = np.asarray(factor, dtype=complex)
        if factor.shape != (2, 2):
            raise ValidationError(f"factors must be 2x2, got shape {factor.shape}")
        dim = 2 * out.shape[0]
        out = (out[:, None, :, None] * factor[None, :, None, :]).reshape(dim, dim)
    return out


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``n`` qubits, 2 <= n <= MAX_PARTIES."""
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= MAX_PARTIES:
        raise ValidationError(f"GHZ qubit count must be an integer in [2, {MAX_PARTIES}], got {n}")
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[0] = amplitudes[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amplitudes)


def depolarize(state: PureState, v: float) -> MixedState:
    """Mix a pure state with white noise: v |psi><psi| + (1 - v) I / 2^n."""
    if not isinstance(state, PureState):
        raise ValidationError("depolarize expects a PureState")
    if isinstance(v, (bool, np.bool_)) or not 0.0 <= v <= 1.0:
        raise ValidationError(f"visibility must lie in [0, 1], got {v}")
    dim = state.dim
    rho = v * state.density_matrix() + (1.0 - v) * np.eye(dim) / dim
    return MixedState(rho)


def pauli_tensor(state: PureState | MixedState) -> np.ndarray:
    """Read-only real tensor T[p1, ..., pn] = Tr[rho sigma_p1 x ... x sigma_pn].

    Index 0 is the identity and 1, 2, 3 are sigma_x, sigma_y, sigma_z. Each
    step traces out one qubit's row and column axes against the four Paulis:
    it moves them last, flattens the rest, and takes one ``np.dot`` with a
    (4, 4) Pauli matrix built at import. Those are the transpose, reshape
    and product that ``np.tensordot`` runs, so the tensor equals the
    ``np.tensordot`` chain bit for bit, without its per-call axis
    bookkeeping. Imaginary residue above 1e-6 raises, as in
    :func:`expectation`.
    """
    n = state.n
    tensor = state.density_matrix().reshape((2,) * (2 * n))
    for k in range(n):
        # Axes left: rows k+1..n, columns k+1..n, then p_1..p_k. The sum
        # rho[i, j] sigma_p[j, i] takes qubit k+1's leading row and column
        # and appends p_k+1.
        rows = n - k
        rest = [*range(1, rows), *range(rows + 1, tensor.ndim)]
        flat = tensor.transpose(*rest, 0, rows).reshape(-1, 4)
        tensor = np.dot(flat, _PAULI_COLUMNS).reshape(*tensor.shape[2:], 4)
    residue = float(np.max(np.abs(tensor.imag)))
    if residue > 1e-6:
        raise NumericError(f"Pauli tensor has imaginary residue {residue}")
    real = np.ascontiguousarray(tensor.real)
    real.setflags(write=False)
    return real


def expectation(state: PureState | MixedState, op: np.ndarray) -> float | np.ndarray:
    """<psi|op|psi> or Tr[rho op] as a real number, or one per operator of a
    stack.

    ``op`` is one (d, d) operator, which gives a Python float, or a stack of
    k of them, shape (k, d, d), which gives k reals in one float array. The
    stack is made contiguous and read by one matvec. For a pure state that
    is op psi for every operator at once, then one product with psi*. For a
    mixed state it is the O(d^2) contraction sum_ij rho[i, j] op[j, i] of
    each flattened operator against rho^T; the O(d^3) product rho @ op is
    never formed. A leftover imaginary part above 1e-6 in any entry signals
    an inconsistent operator (non-Hermitian input) and raises; smaller
    residue is discarded.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-1] != op.shape[-2]:
        raise ValidationError(f"operator must be square, or a stack of square ones, "
                              f"got shape {op.shape}")
    if not isinstance(state, (PureState, MixedState)):
        raise ValidationError(f"unsupported state type {type(state).__name__}")
    dim = state.dim
    if op.shape[-1] != dim:
        raise ValidationError(f"operator dim {op.shape[-1]} != state dim {dim}")
    stack = np.ascontiguousarray(op).reshape(-1, dim, dim)
    if isinstance(state, PureState):
        psi = state.amplitudes
        values = (stack.reshape(-1, dim) @ psi).reshape(-1, dim) @ psi.conj()
    else:
        values = stack.reshape(-1, dim * dim) @ state.matrix.T.ravel()
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if residue > 1e-6:
        raise NumericError(f"expectation has imaginary residue {residue}")
    return float(values[0].real) if op.ndim == 2 else values.real.copy()
