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
once per n, on first use, and shared read-only by every graph; the rank-1
projectors themselves are not kept.  `verify` owns the numerical check of a
graph's verdicts (bounds, grid, W-reduction, thresholds).  Positive pairs
are checked at their transfer time.  Every other pair is certified for every
real tau when a bound on its column stays below the negative threshold: the
projector bound B[w] = sum |P_label[w, 0]|, or the tighter eigenspace bound
B'[w], which first adds up the labels that share an eigenvalue.  Only the
non-identity columns B' cannot certify (for n = 1..8 some of the central
involutions) are scanned on the time grid, over the distinct eigenvalues,
with phases factorized into two short tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def projectors(connection: ConnectionSet) -> tuple[Eigenprojector, ...]:
    """Closed-form rank-1 eigenprojectors (they depend only on n, not on S).

    Built afresh on every call and not kept: `_spectral_data` keeps only
    their per-representation sums, once per n.
    """
    params = connection.params
    n = params.n
    order = params.order
    two_n = 2 * n
    omega = np.exp(1j * np.pi / n)
    out: list[Eigenprojector] = []
    J = np.ones((two_n, two_n), dtype=complex)
    idx = np.arange(order)
    sign_all = (-1.0) ** (idx[:, None] + idx[None, :])
    block_sign = np.where(idx // two_n % 2 == 0, 1.0, -1.0)  # + on V1,V3; - on V2,V4
    e_pattern = sign_all * block_sign[:, None] * block_sign[None, :]

    def add(label: str, ev_label: str, M: np.ndarray) -> None:
        out.append(Eigenprojector(label, ev_label, M))

    if params.is_odd:
        add("E1", "alpha_1", np.ones((order, order), dtype=complex) / order)
        s = np.array([1, -1, 1, -1])
        add(
            "E2",
            "alpha_2",
            _block_matrix(order, {(i, j): s[i] * s[j] * J for i in range(4) for j in range(4)})
            / order,
        )
        add("E3", "alpha_3", sign_all.astype(complex) / order)
        add("E4", "alpha_4", e_pattern.astype(complex) / order)
        for j in range(n):
            X1 = _circulant(two_n, omega ** (2 * j))
            # printed first row of X2 matches the third eigenvector's outer
            # product; the fourth needs the transposed orientation
            X2 = _circulant(two_n, -omega ** (-2 * j))
            X2_outer = _circulant(two_n, -omega ** (2 * j))
            lab = f"beta_{j}"
            add(f"E{j}.1", lab, _block_matrix(order, {(0, 0): X1, (0, 2): -X1, (2, 0): -X1, (2, 2): X1}) / (4 * n))
            add(f"E{j}.2", lab, _block_matrix(order, {(1, 1): X1, (1, 3): -X1, (3, 1): -X1, (3, 3): X1}) / (4 * n))
            add(f"E{j}.3", lab, _block_matrix(order, {(1, 1): X2, (1, 3): -X2, (3, 1): -X2, (3, 3): X2}) / (4 * n))
            add(f"E{j}.4", lab, _block_matrix(order, {(0, 0): X2_outer, (0, 2): -X2_outer, (2, 0): -X2_outer, (2, 2): X2_outer}) / (4 * n))
        for k in range(1, n):
            Y1 = _circulant(two_n, omega ** k)
            Y2 = _circulant(two_n, omega ** (-k))
            lab = f"gamma_{k}"
            add(f"F{k}.1", lab, _block_matrix(order, {(0, 0): Y1, (0, 2): Y1, (2, 0): Y1, (2, 2): Y1}) / (4 * n))
            add(f"F{k}.2", lab, _block_matrix(order, {(1, 1): Y1, (1, 3): Y1, (3, 1): Y1, (3, 3): Y1}) / (4 * n))
            add(f"F{k}.3", lab, _block_matrix(order, {(1, 1): Y2, (1, 3): Y2, (3, 1): Y2, (3, 3): Y2}) / (4 * n))
            add(f"F{k}.4", lab, _block_matrix(order, {(0, 0): Y2, (0, 2): Y2, (2, 0): Y2, (2, 2): Y2}) / (4 * n))
    else:
        add("E1", "alpha_1", np.ones((order, order), dtype=complex) / order)
        add("E3", "alpha_3", e_pattern.astype(complex) / order)
        s = np.array([1, -1, 1, -1])
        add(
            "E5",
            "alpha_5",
            _block_matrix(order, {(i, j): s[i] * s[j] * J for i in range(4) for j in range(4)})
            / order,
        )
        add("E7", "alpha_7", sign_all.astype(complex) / order)
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
            add(
                f"E{i}",
                f"alpha_{i}",
                _block_matrix(
                    order,
                    {(p, q): signs[p][q] * base for p in range(4) for q in range(4)},
                )
                / order,
            )
        for j in range(1, n):
            X1 = _circulant(two_n, omega ** j)
            X2 = _circulant(two_n, omega ** (-j))
            lab = f"beta_{j}"
            add(f"E{j}.1", lab, _block_matrix(order, {(0, 0): X1, (0, 2): X1, (2, 0): X1, (2, 2): X1}) / (4 * n))
            add(f"E{j}.2", lab, _block_matrix(order, {(1, 1): X1, (1, 3): X1, (3, 1): X1, (3, 3): X1}) / (4 * n))
            add(f"E{j}.3", lab, _block_matrix(order, {(1, 1): X2, (1, 3): X2, (3, 1): X2, (3, 3): X2}) / (4 * n))
            add(f"E{j}.4", lab, _block_matrix(order, {(0, 0): X2, (0, 2): X2, (2, 0): X2, (2, 2): X2}) / (4 * n))
        for k in range(1, n):
            Y1 = _circulant(two_n, 1j * omega ** k)
            Y2 = _circulant(two_n, 1j * omega ** (-k))
            lab = f"gamma_{k}"
            add(f"F{k}.1", lab, _block_matrix(order, {(0, 0): Y1, (0, 2): -Y1, (2, 0): -Y1, (2, 2): Y1}) / (4 * n))
            add(f"F{k}.2", lab, _block_matrix(order, {(1, 1): Y1, (1, 3): -Y1, (3, 1): -Y1, (3, 3): Y1}) / (4 * n))
            add(f"F{k}.3", lab, _block_matrix(order, {(1, 1): Y2, (1, 3): -Y2, (3, 1): -Y2, (3, 3): Y2}) / (4 * n))
            add(f"F{k}.4", lab, _block_matrix(order, {(0, 0): Y2, (0, 2): -Y2, (2, 0): -Y2, (2, 2): Y2}) / (4 * n))
    return tuple(out)


def rep_projectors(connection: ConnectionSet) -> dict[str, np.ndarray]:
    """Eigenvalue label -> sum of that representation's four (or one) projectors."""
    sums: dict[str, np.ndarray] = {}
    for proj in projectors(connection):
        if proj.eigenvalue_label in sums:
            sums[proj.eigenvalue_label] = sums[proj.eigenvalue_label] + proj.matrix
        else:
            sums[proj.eigenvalue_label] = proj.matrix.copy()
    return sums


@dataclass(frozen=True)
class TransitionMatrix:
    tau: float
    H: np.ndarray


_STACKS: dict[tuple[GroupParams, tuple[str, ...]], np.ndarray] = {}


def _spectral_data(
    connection: ConnectionSet, table: SpectrumTable | None
) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, stacked per-representation projectors) aligned by label."""
    if table is None:
        table = eigenvalues(connection)
    labels = tuple(ev.label for ev in table.eigenvalues)
    key = (connection.params, labels)
    stack = _STACKS.get(key)
    if stack is None:
        sums = rep_projectors(connection)
        stack = _STACKS[key] = np.stack([sums[label] for label in labels])
        stack.flags.writeable = False
    return np.array([ev.value for ev in table.eigenvalues]), stack


def transition(
    connection: ConnectionSet, tau: float, table: SpectrumTable | None = None
) -> TransitionMatrix:
    """H(tau) = sum over eigenvalues of exp(-i lambda tau) E_lambda."""
    lams, mats = _spectral_data(connection, table)
    phases = np.exp(-1j * lams * tau)
    H = np.tensordot(phases, mats, axes=(0, 0))
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
    lams, mats = _spectral_data(connection, table)
    coeffs = mats[:, u, v]
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


def grid_amplitude_maxima(
    connection: ConnectionSet, grid_points: int, table: SpectrumTable | None = None
) -> np.ndarray:
    """Upper bound on max over tau of |H(tau)_{w, 0}|, for every vertex w.

    H(tau) = sum over labels of e^{-i lambda tau} P_label, so
    B[w] = sum over labels of |P_label[w, 0]| bounds |H(tau)_{w, 0}| for every
    real tau and every spectrum: a column with B[w] < 1 - NEGATIVE_TOL is
    certified by B alone.  Labels whose float eigenvalues are bit-identical
    share one phase, so summing their coefficients per eigenspace leaves H
    unchanged and gives the tighter bound
    B'[w] = sum over eigenspaces of |sum of P_label[w, 0]| <= B[w], which
    certifies more of the columns B cannot (for n = 1..8 those are the
    identity and the central involutions).  What is left gets its maximum
    over the grid t_k = k h, h = 2 pi / grid_points, k = 1..grid_points.
    Writing k = q R + r with R = isqrt(grid_points) + 1 factorizes the phase
    as e^{-i lambda q R h} e^{-i lambda r h}, so the scan is two short exp
    tables over the distinct eigenvalues and one matrix product.  Column 0
    (the identity, the ratio of no pair u < v) keeps B[0], which bounds
    |H(tau)_{00}| as well.  Through ratio_index_table the result bounds every
    pair's |H(tau)_{uv}|.
    """
    lams, mats = _spectral_data(connection, table)
    col = mats[:, :, 0]  # (labels, order) column of each projector sum
    best = np.abs(col).sum(axis=0)
    cand = 1 + np.flatnonzero(best[1:] >= 1.0 - NEGATIVE_TOL)
    spaces, space_of = np.unique(lams, return_inverse=True)
    coeffs = np.zeros((len(spaces), len(cand)), dtype=complex)
    np.add.at(coeffs, space_of, col[:, cand])
    best[cand] = np.abs(coeffs).sum(axis=0)
    left = best[cand] >= 1.0 - NEGATIVE_TOL
    scan = cand[left]
    h = 2 * math.pi / grid_points
    R = math.isqrt(grid_points) + 1
    Q = grid_points // R + 1
    coarse = np.exp(-1j * np.outer(np.arange(Q) * R * h, spaces))  # (Q, spaces)
    fine = np.exp(-1j * np.outer(spaces, np.arange(R) * h))  # (spaces, R)
    weighted = coeffs[:, left].T[:, None, :] * coarse  # (C, Q, spaces)
    amps = np.abs(weighted.reshape(-1, len(spaces)) @ fine).reshape(len(scan), Q * R)
    best[scan] = amps[:, 1 : grid_points + 1].max(axis=1)
    return best


def verify(
    connection: ConnectionSet, table: SpectrumTable, verdicts, grid_points: int
) -> tuple[float, int]:
    """(max 1 - |H(pi/M)_{uv}| over positive pairs, disagreements) of one graph.

    A positive pair disagrees at or below 1 - POSITIVE_TOL, any other pair
    u < v when grid_amplitude_maxima reaches 1 - NEGATIVE_TOL at its ratio:
    the projector bound B or the eigenspace bound B', which cover every tau,
    and where neither certifies the ratio, its maximum over the grid of
    2 pi / grid_points steps.  The ratio of a pair u < v is never the
    identity, so the identity column is never counted.
    """
    disagreements = 0
    max_dev = 0.0
    for v in verdicts:
        amp = pair_amplitudes(connection, v.u, v.v, [v.min_time], table)[0]
        max_dev = max(max_dev, 1.0 - amp)
        if amp <= 1.0 - POSITIVE_TOL:
            disagreements += 1
    best = grid_amplitude_maxima(connection, grid_points, table)
    W = ratio_index_table(connection.params)
    # negative pairs u < w whose bound or grid maximum reaches the threshold
    hit = np.triu(best[W] >= 1.0 - NEGATIVE_TOL, 1)
    for v in verdicts:  # every verdict has u < v
        hit[v.u, v.v] = False
    disagreements += int(np.count_nonzero(hit))
    return max_dev, disagreements
