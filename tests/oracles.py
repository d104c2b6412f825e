"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against raw numpy, itertools and
math and never calls into the package, so a test comparing a library result
with an oracle result exercises two separate code paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


PAULI_BASIS = (I2, SX, SY, SZ)


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def ghz_vector(n: int) -> np.ndarray:
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return vec


def pure_expectation(vec: np.ndarray, op: np.ndarray) -> float:
    return float((vec.conj() @ op @ vec).real)


def planar(theta: float) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y."""
    return np.cos(theta) * SX + np.sin(theta) * SY


def outcome_probability(vec: np.ndarray, observables, outcomes) -> float:
    """Born probability of a +/-1 outcome tuple via explicit projectors."""
    projectors = [(I2 + a * A) / 2 for A, a in zip(observables, outcomes)]
    return pure_expectation(vec, kron_chain(projectors))


def density_outcome_probability(rho: np.ndarray, observables, outcomes) -> float:
    """Born probability Tr[rho P] of a +/-1 outcome tuple, with P the
    Kronecker product of the explicit projectors (I + a_i A_i) / 2."""
    projectors = [(I2 + a * A) / 2 for A, a in zip(observables, outcomes)]
    return float(np.trace(rho @ kron_chain(projectors)).real)


def pauli_string_expectation(rho: np.ndarray, paulis) -> float:
    """Tr[rho sigma_p1 x ... x sigma_pn] with p = 0 (identity), 1, 2, 3 (x, y, z)."""
    return float(np.trace(rho @ kron_chain([PAULI_BASIS[p] for p in paulis])).real)


def bloch_operator(r) -> np.ndarray:
    return r[0] * SX + r[1] * SY + r[2] * SZ


# Setting positions by (n, visibility); a listing scores many tables of one
# scenario, so each scenario's positions are computed once.
_POSITIONS = {}


def setting_positions(n, visibility):
    """For each party, every input tuple's position among its visible settings
    (both in lexicographic order with -1 first)."""
    key = (n, tuple(tuple(group) for group in visibility))
    if key not in _POSITIONS:
        xs = list(itertools.product((-1, 1), repeat=n))
        positions = []
        for group in key[1]:
            settings = list(itertools.product((-1, 1), repeat=len(group)))
            positions.append(tuple(settings.index(tuple(x[j - 1] for j in group)) for x in xs))
        _POSITIONS[key] = tuple(positions)
    return _POSITIONS[key]


def kron_correlators(rho, n, visibility, tables) -> np.ndarray:
    """E(x) = Tr[rho A_1 x ... x A_n] at every input tuple; ``tables[i][s]`` is
    party i+1's Bloch vector at its setting s."""
    positions = setting_positions(n, visibility)
    return np.array([
        np.trace(rho @ kron_chain([bloch_operator(tables[i][positions[i][k]])
                                   for i in range(n)])).real
        for k in range(2**n)])


def kron_bell_operator(n, visibility, q, tables) -> np.ndarray:
    """sum_x Q(x) A_1 x ... x A_n with each party's observable at x taken
    from its Bloch table; ``q`` is in canonical order."""
    positions = setting_positions(n, visibility)
    return sum(q[k] * kron_chain([bloch_operator(tables[i][positions[i][k]])
                                  for i in range(n)])
               for k in range(2**n))


def kron_sweep(rho, n, visibility, q, tables, threshold):
    """One see-saw sweep slot by slot, party-major: each slot's Bloch vector
    becomes its normalized gradient sum_x Q(x) (E(x) with sigma_x, sigma_y,
    sigma_z in its place) unless that gradient is shorter than ``threshold``.
    Returns the updated tables and the count of such degenerate slots."""
    tables = [np.array(t, dtype=float) for t in tables]
    positions = setting_positions(n, visibility)
    degenerate = 0
    for i in range(n):
        for s in range(len(tables[i])):
            gradient = np.zeros(3)
            for k in range(2**n):
                if positions[i][k] != s:
                    continue
                for a, sigma in enumerate((SX, SY, SZ)):
                    factors = [sigma if j == i else bloch_operator(tables[j][positions[j][k]])
                               for j in range(n)]
                    gradient[a] += q[k] * np.trace(rho @ kron_chain(factors)).real
            norm = np.linalg.norm(gradient)
            if norm < threshold:
                degenerate += 1
            else:
                tables[i][s] = gradient / norm
    return tables, degenerate


def quantum_game_success(rho, n, visibility, tables, weights, q) -> float:
    """Pass rate of the broadcast game for a quantum strategy:
    sum_x w(x) sum_a Tr[rho P(a | x)] over the outcome tuples a whose product
    is sign Q(x) (+1 where Q(x) = 0). ``tables[i][s]`` is party i+1's Bloch
    vector at its setting s; ``weights`` and ``q`` are in canonical order."""
    positions = setting_positions(n, visibility)
    xs = list(itertools.product((-1, 1), repeat=n))
    total = 0.0
    for k in range(2**n):
        target = -1 if q[k] < 0 else 1
        observables = [bloch_operator(tables[i][positions[i][k]]) for i in range(n)]
        for a in xs:
            if np.prod(a) == target:
                total += weights[k] * density_outcome_probability(rho, observables, a)
    return total


def deterministic_game_success(n, visibility, tables, weights, q) -> float:
    """Pass rate of the broadcast game for a deterministic strategy:
    sum_x w(x) [prod_i a_i(x) = sign Q(x)] (+1 where Q(x) = 0), where
    ``tables[i][s]`` is party i+1's output at its setting s."""
    positions = setting_positions(n, visibility)
    total = 0.0
    for k in range(2**n):
        product = np.prod([tables[i][positions[i][k]] for i in range(n)])
        if product == (-1 if q[k] < 0 else 1):
            total += weights[k]
    return total


def response_tables(visibility):
    """Every tuple of +/-1 output tables, one table per party over its
    2^|group| settings, in odometer order: the first party most significant,
    each party's tables in ``itertools.product((1, -1), ...)`` order."""
    return itertools.product(*(itertools.product((1, -1), repeat=2 ** len(group))
                               for group in visibility))


def deterministic_bell_value(n, visibility, tables, q):
    """sum_x Q(x) prod_i a_i(x), where ``tables[i][s]`` is party i+1's output
    at its setting s and ``q`` is in canonical order."""
    positions = setting_positions(n, visibility)
    return sum(q[k] * math.prod(tables[i][positions[i][k]] for i in range(n))
               for k in range(2**n))


def message_success(n, visibility, tables, q, party):
    """Success of one party under fixed broadcast messages and a
    pointwise-best guess of the target prod(y) sign Q(x) (+1 where Q(x) = 0).

    x is drawn from |Q| / Gamma and y uniformly. ``tables[i][s][b]`` is party
    i+1's message at its setting s and y bit b (b = 1 for y = +1). The party
    sees its own setting, its own y and every message; for each such view
    the guess with the larger mass of matching targets is exact, so this is
    the party's optimal success for the given messages."""
    positions = setting_positions(n, visibility)
    gamma = sum(abs(v) for v in q)
    ys = [([(v + 1) // 2 for v in y], math.prod(y))
          for y in itertools.product((-1, 1), repeat=n)]
    masses = {}
    for k in range(2**n):
        if q[k] == 0:
            continue
        weight = abs(q[k]) / gamma / 2**n
        sign = -1 if q[k] < 0 else 1
        rows = [tables[i][positions[i][k]] for i in range(n)]
        for bits, prod_y in ys:
            view = (positions[party - 1][k], bits[party - 1],
                    *[row[b] for row, b in zip(rows, bits)])
            mass = masses.setdefault(view, {1: 0.0, -1: 0.0})
            mass[prod_y * sign] += weight
    return sum(max(mass.values()) for mass in masses.values())


def odometer_classical_bound(n, visibility, coeffs):
    """Plain odometer over every party's full response table.

    ``visibility`` is a list of 1-based index tuples; ``coeffs`` maps +/-1
    tuples to numbers. Returns the exact maximum of
    sum_x Q(x) prod_i a_i(x restricted to party i's visibility).
    """
    xs = list(itertools.product((-1, 1), repeat=n))
    restricted = [[tuple(x[j - 1] for j in visibility[i]) for x in xs] for i in range(n)]
    settings = [sorted(set(restricted[i])) for i in range(n)]
    best = None
    for tables in itertools.product(*(
            itertools.product((-1, 1), repeat=len(settings[i])) for i in range(n))):
        lookups = [dict(zip(settings[i], tables[i])) for i in range(n)]
        value = 0
        for k, x in enumerate(xs):
            prod = 1
            for i in range(n):
                prod *= lookups[i][restricted[i][k]]
            value += coeffs[x] * prod
        if best is None or value > best:
            best = value
    return best


def odometer_first_maximizer(n, visibility, coeffs):
    """Best value and the first strategy attaining it, by a plain sweep.

    The first party with the most visible inputs is not swept: for each
    choice of the other parties' tables its best table is the sign of the
    coefficient mass accumulated at each of its settings (+1 on a zero
    mass), and the choice scores the sum of those masses' magnitudes. The
    other parties' tables are swept as one odometer, the first of them most
    significant, each over ascending function ids, where bit k of an id is
    the output at the party's k-th setting (lexicographic, -1 first) and bit
    0 means +1. Only a strictly larger value replaces the best so far.
    Returns ``(value, tables)`` with one {setting: output} dict per party.
    """
    xs = list(itertools.product((-1, 1), repeat=n))
    settings = [list(itertools.product((-1, 1), repeat=len(group))) for group in visibility]
    restricted = [[tuple(x[j - 1] for j in group) for x in xs] for group in visibility]
    eliminated = max(range(n), key=lambda i: len(visibility[i]))
    swept = [i for i in range(n) if i != eliminated]
    best = None
    for fids in itertools.product(*(range(2 ** len(settings[i])) for i in swept)):
        tables = {i: {s: 1 - 2 * ((fid >> k) & 1) for k, s in enumerate(settings[i])}
                  for i, fid in zip(swept, fids)}
        mass = {s: 0 for s in settings[eliminated]}
        for k, x in enumerate(xs):
            prod = coeffs[x]
            for i in swept:
                prod *= tables[i][restricted[i][k]]
            mass[restricted[eliminated][k]] += prod
        value = sum(abs(m) for m in mass.values())
        if best is None or value > best[0]:
            tables[eliminated] = {s: (1 if m >= 0 else -1) for s, m in mass.items()}
            best = (value, [tables[i] for i in range(n)])
    return best


def planar_grid_chsh_max(coeffs, step=0.001):
    """Exhaustive planar-angle grid for a 2-party full-correlator value.

    On the two-qubit GHZ state with equatorial observables at angles
    (alpha, beta), the correlator is cos(alpha + beta). For fixed party-2
    angles the value is sum_x1 Re[e^(i alpha_x1) c_x1] with
    c_x1 = sum_x2 Q(x1,x2) e^(i beta_x2), so each alpha_x1 contributes
    exactly |c_x1| at its optimum; only the two beta angles need the grid.
    """
    q = {x: float(coeffs[x]) for x in itertools.product((-1, 1), repeat=2)}
    betas = np.arange(0.0, 2 * np.pi, step)
    phases = np.exp(1j * betas)
    best = -np.inf
    chunk = 512
    for start in range(0, betas.shape[0], chunk):
        b_minus = phases[start:start + chunk][:, None]
        b_plus = phases[None, :]
        value = (np.abs(q[(-1, -1)] * b_minus + q[(-1, 1)] * b_plus)
                 + np.abs(q[(1, -1)] * b_minus + q[(1, 1)] * b_plus))
        best = max(best, float(value.max()))
    return best
