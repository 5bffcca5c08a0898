"""Numerical ground truth for the decision procedure.

The eigenprojectors of Cay(V_8n, S) in their printed closed forms, the
transition matrix H(tau) = exp(-i tau A) assembled from the spectral
decomposition, brute-force probes of |H(tau)_{uv}|, and `verify`.  The
dense adjacency matrix and the Taylor exponential, the second opinion on
H(tau) that uses no spectral information, are kept with the tests
(tests/oracle_reference.py).

The closed-form projectors are block matrices over the four 2n-blocks: J
blocks and (-1)^{u+v} sign patterns for the linear characters, and circulant
blocks z^{p-q} for the 2-dimensional ones.  Every closed form is validated
against the eigenvector outer products in the test suite; where the printed
first-row convention of a circulant disagrees with the outer product (it
happens for one family), the outer-product orientation is used.

The per-representation projector sums depend only on n: they are stacked
once per n, on first use, and shared read-only by every graph, together with
the bound B their first column gives; the rank-1 projectors themselves are
not kept.  `verify` owns the numerical check of a graph's verdicts, on the
fixed grid of GRID_POINTS steps over 2 pi.
Positive pairs are checked at their transfer time.  Every other pair is
read, through the ratio table W, from one column of
`grid_amplitude_maxima`, which runs four stages, each on the columns the one
before leaves at or above the negative threshold:

1. B[w] = sum |P_label[w, 0]|, a per-n bound for every real tau;
2. B'[w], which first adds up the labels that share an eigenvalue, again a
   bound for every tau (for n = 1..8 only some central involutions get past
   it);
3. |H(t)_{w,0}| on every COARSE_STEP-th grid point plus a Lipschitz term,
   a bound on the whole grid and for every tau in [0, 2 pi];
4. the exact maximum over the grid, kept only where every bound fails.

Stages 3 and 4 share one scan over the distinct eigenvalues, with phases
factorized into two short tables.  A column returns the value of the last
stage it reached, so every column is an upper bound on its grid maximum,
and a fine-scanned column is that maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .group import (
    ConnectionSet,
    GroupParams,
    all_elements,
    inverse,
    multiply,
    vertex_index,
)
from .spectrum import SpectrumTable, eigenvalues

__all__ = [
    "Eigenprojector",
    "projectors",
    "rep_projectors",
    "TransitionMatrix",
    "transition",
    "ProbeResult",
    "pst_probe",
    "pair_amplitudes",
    "grid_amplitude_maxima",
    "ratio_index_table",
    "verify",
]

POSITIVE_TOL = 1e-6  # a positive pair must exceed 1 - POSITIVE_TOL at pi/M
NEGATIVE_TOL = 1e-4  # any other pair must stay below 1 - NEGATIVE_TOL
COARSE_STEP = 10  # the coarse grid pass evaluates every COARSE_STEP-th grid point
GRID_POINTS = 10_000  # `verify` scans t_k = 2 pi k / GRID_POINTS, k = 1 .. GRID_POINTS


@dataclass(frozen=True)
class Eigenprojector:
    label: str            # E1..E8, E{j}.{i} or F{k}.{i}
    eigenvalue_label: str  # alpha_i / beta_j / gamma_k
    matrix: np.ndarray


def _block_matrix(order: int, blocks: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    two_n = order // 4
    M = np.zeros((order, order), dtype=complex)
    for (i, j), B in blocks.items():
        M[i * two_n : (i + 1) * two_n, j * two_n : (j + 1) * two_n] = B
    return M


def _circulant(two_n: int, z: complex) -> np.ndarray:
    """Matrix with entries z^{p-q}; |z| = 1 and z^{2n} = 1."""
    p = np.arange(two_n)
    return z ** (p[:, None] - p[None, :])


# the blocks (V1, V3) or (V2, V4) of projector i = 1..4 of a 2-dimensional family
_FAMILY_BLOCKS = ((0, 2), (1, 3), (1, 3), (0, 2))


def projectors(connection: ConnectionSet) -> tuple[Eigenprojector, ...]:
    """Closed-form rank-1 eigenprojectors (they depend only on n, not on S).

    Built afresh on every call and not kept: `_spectral_data` keeps only
    their per-representation sums, once per n.
    """
    return tuple(_iter_projectors(connection))


def _iter_projectors(connection: ConnectionSet) -> Iterator[Eigenprojector]:
    """The projectors of `projectors`, in its order, built one at a time."""
    params = connection.params
    n = params.n
    order = params.order
    two_n = 2 * n
    omega = np.exp(1j * np.pi / n)
    J = np.ones((two_n, two_n), dtype=complex)
    idx = np.arange(order)
    sign_all = (-1.0) ** (idx[:, None] + idx[None, :])
    block_sign = np.where(idx // two_n % 2 == 0, 1.0, -1.0)  # + on V1,V3; - on V2,V4
    e_pattern = sign_all * block_sign[:, None] * block_sign[None, :]

    if params.is_odd:
        yield Eigenprojector("E1", "alpha_1", np.ones((order, order), dtype=complex) / order)
        s = np.array([1, -1, 1, -1])
        yield Eigenprojector(
            "E2",
            "alpha_2",
            _block_matrix(order, {(i, j): s[i] * s[j] * J for i in range(4) for j in range(4)})
            / order,
        )
        yield Eigenprojector("E3", "alpha_3", sign_all.astype(complex) / order)
        yield Eigenprojector("E4", "alpha_4", e_pattern.astype(complex) / order)
        families = [
            # printed first row of the third beta projector matches its
            # eigenvector's outer product; the fourth needs the transposed
            # orientation, -omega^{2j} in place of the printed -omega^{-2j}
            ("E", "beta", range(n), -1,
             lambda j: (omega ** (2 * j), omega ** (2 * j), -omega ** (-2 * j), -omega ** (2 * j))),
            ("F", "gamma", range(1, n), 1,
             lambda k: (omega ** k, omega ** k, omega ** (-k), omega ** (-k))),
        ]
    else:
        yield Eigenprojector("E1", "alpha_1", np.ones((order, order), dtype=complex) / order)
        yield Eigenprojector("E3", "alpha_3", e_pattern.astype(complex) / order)
        s = np.array([1, -1, 1, -1])
        yield Eigenprojector(
            "E5",
            "alpha_5",
            _block_matrix(order, {(i, j): s[i] * s[j] * J for i in range(4) for j in range(4)})
            / order,
        )
        yield Eigenprojector("E7", "alpha_7", sign_all.astype(complex) / order)
        X = _circulant(two_n, 1j)
        Y = _circulant(two_n, -1j)
        i_unit = 1j
        patterns = {
            2: (X, [[1, i_unit, -1, -i_unit], [-i_unit, 1, i_unit, -1], [-1, -i_unit, 1, i_unit], [i_unit, -1, -i_unit, 1]]),
            4: (Y, [[1, -i_unit, -1, i_unit], [i_unit, 1, -i_unit, -1], [-1, i_unit, 1, -i_unit], [-i_unit, -1, i_unit, 1]]),
            6: (X, [[1, -i_unit, -1, i_unit], [i_unit, 1, -i_unit, -1], [-1, i_unit, 1, -i_unit], [-i_unit, -1, i_unit, 1]]),
            8: (Y, [[1, i_unit, -1, -i_unit], [-i_unit, 1, i_unit, -1], [-1, -i_unit, 1, i_unit], [i_unit, -1, -i_unit, 1]]),
        }
        for i, (base, signs) in patterns.items():
            yield Eigenprojector(
                f"E{i}",
                f"alpha_{i}",
                _block_matrix(
                    order,
                    {(p, q): signs[p][q] * base for p in range(4) for q in range(4)},
                )
                / order,
            )
        families = [
            ("E", "beta", range(1, n), 1,
             lambda j: (omega ** j, omega ** j, omega ** (-j), omega ** (-j))),
            ("F", "gamma", range(1, n), -1,
             lambda k: (1j * omega ** k, 1j * omega ** k, 1j * omega ** (-k), 1j * omega ** (-k))),
        ]
    # z^{p-q} on the two diagonal blocks of each projector, sign * z^{p-q} off them
    for name, kind, indices, sign, zs in families:
        for j in indices:
            for i, (z, (p, q)) in enumerate(zip(zs(j), _FAMILY_BLOCKS), 1):
                X = _circulant(two_n, z)
                off = X if sign > 0 else -X
                blocks = {(p, p): X, (p, q): off, (q, p): off, (q, q): X}
                yield Eigenprojector(
                    f"{name}{j}.{i}", f"{kind}_{j}", _block_matrix(order, blocks) / (4 * n)
                )


def rep_projectors(connection: ConnectionSet) -> dict[str, np.ndarray]:
    """Eigenvalue label -> sum of that representation's four (or one) projectors.

    Each projector is added in as it is built, so no more than one is held
    besides the sums.
    """
    sums: dict[str, np.ndarray] = {}
    for proj in _iter_projectors(connection):
        if proj.eigenvalue_label in sums:
            sums[proj.eigenvalue_label] += proj.matrix
        else:
            sums[proj.eigenvalue_label] = proj.matrix
    return sums


@dataclass(frozen=True)
class TransitionMatrix:
    tau: float
    H: np.ndarray


@dataclass(frozen=True)
class _Stack:
    """Per-n projector sums and the constants B reads from their first column."""

    mats: np.ndarray  # (labels, order, order) per-representation projector sums
    bound: np.ndarray  # B[w] = sum over labels of |mats[label, w, 0]|
    cand: np.ndarray  # the non-identity columns B leaves at or above the threshold
    cand_col: np.ndarray  # mats[:, cand, 0]


_STACKS: dict[tuple[GroupParams, tuple[str, ...]], _Stack] = {}


def _spectral_data(
    connection: ConnectionSet, table: SpectrumTable | None
) -> tuple[np.ndarray, _Stack]:
    """(eigenvalues, per-n stack of projector sums) aligned by label."""
    if table is None:
        table = eigenvalues(connection)
    labels = tuple(ev.label for ev in table.eigenvalues)
    key = (connection.params, labels)
    stack = _STACKS.get(key)
    if stack is None:
        sums = rep_projectors(connection)
        mats = np.stack([sums[label] for label in labels])
        col = mats[:, :, 0]
        bound = np.abs(col).sum(axis=0)
        cand = 1 + np.flatnonzero(bound[1:] >= 1.0 - NEGATIVE_TOL)
        stack = _STACKS[key] = _Stack(mats, bound, cand, col[:, cand])
        for array in (mats, bound, cand, stack.cand_col):
            array.flags.writeable = False
    return np.array([ev.value for ev in table.eigenvalues]), stack


def transition(
    connection: ConnectionSet, tau: float, table: SpectrumTable | None = None
) -> TransitionMatrix:
    """H(tau) = sum over eigenvalues of exp(-i lambda tau) E_lambda."""
    lams, stack = _spectral_data(connection, table)
    phases = np.exp(-1j * lams * tau)
    H = np.tensordot(phases, stack.mats, axes=(0, 0))
    return TransitionMatrix(tau=tau, H=H)


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    amplitude: float


def pair_amplitudes(
    connection: ConnectionSet,
    u: int,
    v: int,
    times,
    table: SpectrumTable | None = None,
) -> np.ndarray:
    """|H(tau)_{uv}| for every tau in `times` (vectorised over times)."""
    lams, stack = _spectral_data(connection, table)
    coeffs = stack.mats[:, u, v]
    times = np.asarray(times, dtype=float)
    return np.abs(np.exp(-1j * np.outer(times, lams)) @ coeffs)


def pst_probe(
    connection: ConnectionSet,
    u: int,
    v: int,
    times,
    table: SpectrumTable | None = None,
) -> ProbeResult:
    """Best (tau, |H(tau)_{uv}|) over the given times."""
    times = np.asarray(times, dtype=float)
    amps = pair_amplitudes(connection, u, v, times, table)
    best = int(np.argmax(amps))
    return ProbeResult(tau=float(times[best]), amplitude=float(amps[best]))


@lru_cache(maxsize=None)
def ratio_index_table(params: GroupParams) -> np.ndarray:
    """W[u, v] = vertex index of g_u g_v^{-1}.

    For Cayley graphs right translation is an automorphism, so
    |H(tau)_{uv}| = |H(tau)_{W[u,v], 0}|; `verify` reads pair maxima from
    the first column through this table.
    """
    elems = all_elements(params)
    order = params.order
    W = np.zeros((order, order), dtype=int)
    for v, gv in enumerate(elems):
        gv_inv = inverse(params, gv)
        for u, gu in enumerate(elems):
            W[u, v] = vertex_index(params, multiply(params, gu, gv_inv))
    return W


@lru_cache(maxsize=None)
def _pairs_per_ratio(params: GroupParams) -> np.ndarray:
    """How many pairs u < v have W[u, v] = w, for every vertex w (0 for the identity)."""
    upper = ratio_index_table(params)[np.triu_indices(params.order, 1)]
    counts = np.bincount(upper, minlength=params.order)
    counts.flags.writeable = False
    return counts


def _eigenspaces(lams: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct eigenvalues ascending, coefficients summed per eigenvalue).

    A stable sort keeps the labels of one eigenvalue in label order, so each
    sum adds them in that order.
    """
    order = np.argsort(lams, kind="stable")
    ordered = lams[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return ordered[starts], np.add.reduceat(col[order], starts)


def _scan(coeffs: np.ndarray, spaces: np.ndarray, step: float, points: int) -> np.ndarray:
    """|sum_s coeffs[s, c] e^{-i spaces[s] k step}| for each column c and k = 0 .. points.

    Writing k = q R + r with R = isqrt(points) + 1 factorizes the phase as
    e^{-i lambda q R step} e^{-i lambda r step}: two short exp tables over the
    distinct eigenvalues and one matrix product.  Returns (columns, Q R) with
    Q R > points, so the last few k lie past `points`.
    """
    R = math.isqrt(points) + 1
    Q = points // R + 1
    by_q = np.exp(-1j * np.outer(np.arange(Q) * R * step, spaces))  # (Q, spaces)
    by_r = np.exp(-1j * np.outer(spaces, np.arange(R) * step))  # (spaces, R)
    weighted = coeffs.T[:, None, :] * by_q  # (C, Q, spaces)
    return np.abs(weighted.reshape(-1, len(spaces)) @ by_r).reshape(coeffs.shape[1], Q * R)


def grid_amplitude_maxima(
    connection: ConnectionSet, grid_points: int, table: SpectrumTable | None = None
) -> np.ndarray:
    """Upper bound on max over tau of |H(tau)_{w, 0}|, for every vertex w.

    Four stages, each run only on the columns the one before leaves at or
    above 1 - NEGATIVE_TOL; what a column returns is its value from the
    last stage it reached.

    1. B[w] = sum over labels of |P_label[w, 0]| bounds |H(tau)_{w, 0}| for
       every real tau, since H(tau) = sum over labels of
       e^{-i lambda tau} P_label.  It depends only on n, so it is kept with
       the stack.  For n = 1..8 it certifies every column except the
       identity and the central involutions.
    2. Labels whose float eigenvalues are bit-identical share one phase, so
       summing their coefficients per eigenspace leaves H unchanged and gives
       B'[w] = sum over eigenspaces s of |c_s[w]| <= B[w], again a bound for
       every tau.
    3. With h = 2 pi / grid_points, |H(t)_{w, 0}| on every COARSE_STEP-th grid
       point t = j K h (K = COARSE_STEP, j = 0 .. ceil(grid_points / K)),
       plus L[w] K h / 2, where L[w] = sum_s |c_s[w]| |lambda_s - mu| and mu
       is the midpoint of the smallest and largest eigenvalue.  A global
       phase does not change the modulus, so
       |H(t + d)_{w, 0}| <= |H(t)_{w, 0}| + L[w] |d|; every grid point, and
       every tau in [0, 2 pi], lies within K h / 2 of a coarse point, so this
       bounds the column on the whole grid.
    4. The maximum of |H(t)_{w, 0}| over the grid t_k = k h, k = 1 ..
       grid_points, exactly as scanned.

    So a column that stops at stage 1 or 2 bounds |H(tau)_{w, 0}| for every
    real tau, one that stops at stage 3 for every tau in [0, 2 pi], and a
    column that reaches stage 4 is its grid maximum.  Column 0 (the
    identity, the ratio of no pair u < v) keeps B[0], which bounds
    |H(tau)_{00}| as well.  Through ratio_index_table the result bounds
    every pair's |H(tau)_{uv}| on the grid.
    """
    lams, stack = _spectral_data(connection, table)
    best = stack.bound.copy()
    spaces, coeffs = _eigenspaces(lams, stack.cand_col)
    weights = np.abs(coeffs)
    best[stack.cand] = weights.sum(axis=0)
    left = best[stack.cand] >= 1.0 - NEGATIVE_TOL
    if not left.any():
        return best
    cols, coeffs, weights = stack.cand[left], coeffs[:, left], weights[:, left]
    h = 2 * math.pi / grid_points
    coarse_points = -(-grid_points // COARSE_STEP)
    lipschitz = np.abs(spaces - (spaces[0] + spaces[-1]) / 2) @ weights
    coarse = _scan(coeffs, spaces, COARSE_STEP * h, coarse_points)[:, : coarse_points + 1]
    best[cols] = coarse.max(axis=1) + lipschitz * (COARSE_STEP * h / 2)
    left = best[cols] >= 1.0 - NEGATIVE_TOL
    if left.any():
        fine = _scan(coeffs[:, left], spaces, h, grid_points)
        best[cols[left]] = fine[:, 1 : grid_points + 1].max(axis=1)
    return best


def verify(connection: ConnectionSet, table: SpectrumTable, verdicts) -> tuple[float, int]:
    """(max 1 - |H(pi/M)_{uv}| over positive pairs, disagreements) of one graph.

    A positive pair disagrees at or below 1 - POSITIVE_TOL, any other pair
    u < v when grid_amplitude_maxima reaches 1 - NEGATIVE_TOL at its ratio:
    a bound from B, B' or the coarse grid pass, and where none of them
    certifies the ratio, its maximum over the grid of 2 pi / GRID_POINTS
    steps.  The ratio of a pair u < v is never the identity, so
    the identity column is never counted.
    """
    disagreements = 0
    max_dev = 0.0
    for v in verdicts:
        amp = pair_amplitudes(connection, v.u, v.v, [v.min_time], table)[0]
        max_dev = max(max_dev, 1.0 - amp)
        if amp <= 1.0 - POSITIVE_TOL:
            disagreements += 1
    hit = grid_amplitude_maxima(connection, GRID_POINTS, table) >= 1.0 - NEGATIVE_TOL
    W = ratio_index_table(connection.params)
    # every pair u < v whose ratio is hit, less the positive pairs among them
    disagreements += int(_pairs_per_ratio(connection.params)[hit].sum())
    disagreements -= sum(1 for v in verdicts if hit[W[v.u, v.v]])
    return max_dev, disagreements
