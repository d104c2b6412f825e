"""Independent reference computations for the benchmark's checks.

Written against numpy and the standard library only. This module never
imports bellccp, so a check that compares a program output with a value
computed here compares two separate code paths.

Conventions follow the package's documented ones: input tuples are
{-1, +1}^n in lexicographic order with x_1 most significant and -1 first;
party i's setting is its visible inputs in its visibility order; a round
draws one uniform for x, one bit per party for y (bit 0 means +1), then
one uniform for the joint outcome, each by inverse CDF in canonical order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GYNI_OPTIMUM = 8 * math.cos(math.pi / 8)
SVETLICHNY_OPTIMUM = 4 * math.sqrt(2)
CHSH_OPTIMUM = 2 * math.sqrt(2)

_I2 = np.eye(2, dtype=complex)
_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))


def tuples(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((-1, 1), repeat=n))


def setting_of(x, group) -> tuple[int, ...]:
    """Party's visible tuple at x; ``group`` is its 1-based visibility list."""
    return tuple(x[j - 1] for j in group)


def _setting_indices(n: int, group) -> np.ndarray:
    """Index of the party's visible tuple in canonical order, per x."""
    out = []
    for x in tuples(n):
        idx = 0
        for v in setting_of(x, group):
            idx = 2 * idx + (v == 1)
        out.append(idx)
    return np.array(out)


def odometer_bound(n: int, visibility, q) -> int:
    """Exact classical bound by enumerating every party's full output table.

    ``q`` holds integer coefficients in canonical tuple order. The first
    n - 2 parties run through all table combinations in odometer order; for
    each, the last two parties' tables are enumerated together as one
    integer matrix product. Nothing is eliminated or pruned.
    """
    q = np.asarray(q, dtype=np.int64)
    rows = []
    for group in visibility:
        width = 2 ** len(group)
        tables = np.array(list(itertools.product((1, -1), repeat=width)), dtype=np.int64)
        rows.append(tables[:, _setting_indices(n, group)])
    best = None
    for combo in itertools.product(*(range(r.shape[0]) for r in rows[:-2])):
        weight = q.copy()
        for r, f in zip(rows[:-2], combo):
            weight = weight * r[f]
        values = (rows[-2] * weight[None, :]) @ rows[-1].T
        top = int(values.max())
        best = top if best is None else max(best, top)
    return best


def observable(bloch) -> np.ndarray:
    return sum(float(r) * s for r, s in zip(bloch, _PAULIS))


def _kron(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _expect(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def density(amplitudes, visibility_v: float | None = None) -> np.ndarray:
    """|psi><psi|, mixed with white noise at weight v when one is given."""
    psi = np.asarray(amplitudes, dtype=complex)
    rho = np.outer(psi, psi.conj())
    if visibility_v is not None:
        rho = visibility_v * rho + (1 - visibility_v) * np.eye(len(psi)) / len(psi)
    return rho


def ghz(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / math.sqrt(2)
    return psi


def bell_value(n: int, visibility, q, rho, blochs) -> float:
    """sum_x Q(x) Tr[rho A_1 x ... x A_n]; ``blochs`` maps (party, setting)."""
    total = 0.0
    for x, qx in zip(tuples(n), q):
        ops = [observable(blochs[(i + 1, setting_of(x, g))]) for i, g in enumerate(visibility)]
        total += qx * _expect(rho, _kron(ops))
    return total


def outcome_probabilities(n: int, visibility, rho, blochs, x) -> np.ndarray:
    """Born probability of every outcome tuple at x, from explicit projectors."""
    ops = [observable(blochs[(i + 1, setting_of(x, g))]) for i, g in enumerate(visibility)]
    probs = np.array([
        _expect(rho, _kron([(_I2 + a_i * A) / 2 for A, a_i in zip(ops, a)]))
        for a in tuples(n)])
    return np.maximum(probs, 0.0)


def exact_success(n: int, visibility, q, rho, blochs) -> float:
    """Pass probability of the broadcast game, summed outcome by outcome."""
    gamma = float(np.abs(q).sum())
    total = 0.0
    for x, qx in zip(tuples(n), q):
        if qx == 0:
            continue
        target = -1 if qx < 0 else 1
        probs = outcome_probabilities(n, visibility, rho, blochs, x)
        total += abs(qx) / gamma * sum(
            p for a, p in zip(tuples(n), probs) if math.prod(a) == target)
    return total


def _cumulative(p) -> np.ndarray:
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return cum


def replay_session(n: int, visibility, q, rho, blochs, x_u, y_bits, a_u) -> dict:
    """Replay rounds from their draws: x and outcome uniforms, y bits."""
    q = np.asarray(q)
    gamma = float(np.abs(q).sum())
    all_x = tuples(n)
    x_idx = np.searchsorted(_cumulative(np.abs(q) / gamma), x_u, side="right")
    cum_a = np.array([_cumulative(outcome_probabilities(n, visibility, rho, blochs, x))
                      for x in all_x])
    a_idx = np.array([np.searchsorted(cum_a[k], u, side="right")
                      for k, u in zip(x_idx, a_u)])
    tuple_array = np.array(all_x)
    a = tuple_array[a_idx]
    signs = np.where(q < 0, -1, 1)
    passes = a.prod(axis=1) == signs[x_idx]
    return {"x": tuple_array[x_idx], "y": 1 - 2 * np.asarray(y_bits), "a": a,
            "passes": passes, "successes": int(passes.sum())}


def prng_draws(seed: int, rounds: int, n: int):
    """Draws of a PCG64 session: n + 2 doubles per round, y bit = (u >= 1/2)."""
    u = np.random.Generator(np.random.PCG64(seed)).random((rounds, n + 2))
    return u[:, 0], (u[:, 1:n + 1] >= 0.5).astype(int), u[:, n + 1]


def bit_draws(data: bytes, rounds: int, n: int):
    """Draws of a bit-stream session: 53 + n + 53 bits per round, MSB first."""
    stride = 53 + n + 53
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:rounds * stride]
    if bits.shape[0] < rounds * stride:
        raise ValueError(f"{rounds} rounds need {rounds * stride} bits, have {bits.shape[0]}")
    bits = bits.reshape(rounds, stride).astype(np.uint64)
    weights = np.uint64(1) << np.arange(52, -1, -1, dtype=np.uint64)
    scale = float(1 << 53)
    x_u = (bits[:, :53] * weights).sum(axis=1) / scale
    a_u = (bits[:, 53 + n:] * weights).sum(axis=1) / scale
    return x_u, bits[:, 53:53 + n].astype(int), a_u
