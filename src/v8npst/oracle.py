"""Numerical ground truth for the decision procedure.

The eigenprojectors of Cay(V_8n, S) in their printed closed forms, the
transition matrix H(tau) = exp(-i tau A) assembled from the spectral
decomposition, brute-force probes of |H(tau)_{uv}|, and `verify`.  The
dense adjacency matrix and the Taylor exponential, the second opinion on
H(tau) that uses no spectral information, are kept with the tests
(tests/oracle_reference.py).

The projector of a linear character is x x* / 8n, where
x[2n s + r] = i^(e_a r + e_b s) is the character's value at a^r b^s, read
from one table of exponents (e_a, e_b) per parity of n.  The 2-dimensional
families are block matrices over the four 2n-blocks, with circulant blocks
z^{p-q}.  Every closed form is validated against the eigenvector outer
products in the test suite; where the printed first-row convention of a
circulant disagrees with the outer product (it happens for one family), the
outer-product orientation is used.

The per-representation projector sums depend only on n: they are stacked
once per n, on first use, and shared read-only by every graph, together with
the bound B their first column gives; the rank-1 projectors themselves are
not kept.  The oracle reads a graph's eigenvalues from the same stack, not
from `spectrum`'s class map, so a wrong map cannot mislead the decision and
its check alike.  A P = lambda P for the projector sum P of a label, and
A[0, w] = 1 exactly when w is in S (S is inverse-closed), so entry (0, 0)
gives

    lambda = sum_{w in S} P[w, 0] / P[0, 0].

Each class's share of that sum, the real parts over its vertices divided by
P[0, 0], is kept with the stack as one (classes, labels) table; a graph's
eigenvalues are its classes' rows, added in class order.
`verify` owns the numerical check of a graph's verdicts, on the fixed grid
of GRID_POINTS steps over 2 pi: it runs on the graph's own label
eigenvalues, in label order, and every positive pair is its own product.
Positive pairs are checked at their transfer times, all of a graph's pairs
from one phase table.  Every other pair is read, through the ratio table W,
from one column of `grid_amplitude_maxima`, which runs three
stages, each on the columns the one before leaves at or above the negative
threshold:

1. B[w] = sum |P_label[w, 0]|, a per-n bound for every real tau, which
   leaves only the identity and the central involutions for n = 1..8;
2. |H(t)_{w,0}| on every COARSE_STEP-th grid point plus a Lipschitz term,
   a bound on the whole grid and for every tau in [0, 2 pi]; a column
   whose samples at coarse points that are grid points reach the threshold
   is a hit, since its grid maximum is at least that sample, and stops
   here too;
3. the exact maximum over the grid, kept only where every bound fails and
   no sample decides a hit.

Stages 2 and 3 share one scan over the labels' eigenvalues, with phases
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

from .group import ConnectionSet, GroupParams, class_labels, product_rule
# `eigenvalues` is not called here; it stays bound because the benchmark
# (perfbench/layers.py) patches `oracle.eigenvalues`
from .spectrum import eigenvalues, rep_labels  # noqa: F401

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
    """Matrix with entries z^{p-q}; |z| = 1 and z^{2n} = 1.

    Each entry is read from one table of z^k, k = 1 - 2n .. 2n - 1, so it is
    the same power `z ** (p - q)` would compute, evaluated 4n - 1 times
    instead of (2n)^2 times.
    """
    p = np.arange(two_n)
    return (z ** np.arange(1 - two_n, two_n))[p[:, None] - p[None, :] + two_n - 1]


# the blocks (V1, V3) or (V2, V4) of projector i = 1..4 of a 2-dimensional family
_FAMILY_BLOCKS = ((0, 2), (1, 3), (1, 3), (0, 2))

# (label, e_a, e_b) of each linear character a^r b^s -> i^(e_a r + e_b s),
# keyed by n odd; its projector is x x* / 8n with x[2n s + r] = i^(e_a r + e_b s)
_LINEAR_CHARACTERS = {
    True: (("E1", 0, 0), ("E2", 0, 2), ("E3", 2, 0), ("E4", 2, 2)),
    False: (
        ("E1", 0, 0), ("E3", 2, 2), ("E5", 0, 2), ("E7", 2, 0),
        ("E2", 1, 3), ("E4", 3, 1), ("E6", 1, 1), ("E8", 3, 3),
    ),
}
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


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
    s, r = np.divmod(np.arange(order), two_n)  # vertex 2n s + r is a^r b^s
    for label, e_a, e_b in _LINEAR_CHARACTERS[params.is_odd]:
        x = _POWERS_OF_I[(e_a * r + e_b * s) % 4]
        yield Eigenprojector(label, f"alpha_{label[1:]}", np.outer(x, x.conj()) / order)

    if params.is_odd:
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
        families = [
            ("E", "beta", range(1, n), 1,
             lambda j: (omega ** j, omega ** j, omega ** (-j), omega ** (-j))),
            ("F", "gamma", range(1, n), -1,
             lambda k: (1j * omega ** k, 1j * omega ** k, 1j * omega ** (-k), 1j * omega ** (-k))),
        ]
    # z^{p-q} / 4n on the two diagonal blocks of each projector, sign * z^{p-q} / 4n
    # off them; only the blocks are scaled, the zeros need no division.  A negative
    # block is (-C) / 4n, not -(C / 4n), which keeps the sign of every zero.
    for name, kind, indices, sign, zs in families:
        for j in indices:
            for i, (z, (p, q)) in enumerate(zip(zs(j), _FAMILY_BLOCKS), 1):
                C = _circulant(two_n, z)
                X = C / (4 * n)
                off = X if sign > 0 else -C / (4 * n)
                blocks = {(p, p): X, (p, q): off, (q, p): off, (q, q): X}
                yield Eigenprojector(f"{name}{j}.{i}", f"{kind}_{j}", _block_matrix(order, blocks))


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
    """Per-n projector sums and the constants their first column gives."""

    mats: np.ndarray  # (labels, order, order) per-representation projector sums
    class_eigs: np.ndarray  # (classes, labels): each class's share of every eigenvalue
    bound: np.ndarray  # B[w] = sum over labels of |mats[label, w, 0]|
    cand: np.ndarray  # the non-identity columns B leaves at or above the threshold
    cand_col: np.ndarray  # mats[:, cand, 0]


_STACKS: dict[GroupParams, _Stack] = {}


def _spectral_data(connection: ConnectionSet) -> tuple[np.ndarray, _Stack]:
    """(float eigenvalues, per-n stack of projector sums) aligned by label.

    The stack is built once per n, in the order of `rep_labels`.  A graph's
    eigenvalues are its classes' rows of `class_eigs`, summed in class order.
    """
    params = connection.params
    stack = _STACKS.get(params)
    if stack is None:
        sums = rep_projectors(connection)
        mats = np.stack([sums[label] for label in rep_labels(params)])
        col = mats[:, :, 0]
        class_eigs = np.stack(
            [col[:, labels].real.sum(axis=1) for labels in class_labels(params)]
        ) / col[:, 0].real
        bound = np.abs(col).sum(axis=0)
        cand = 1 + np.flatnonzero(bound[1:] >= 1.0 - NEGATIVE_TOL)
        stack = _STACKS[params] = _Stack(mats, class_eigs, bound, cand, col[:, cand])
        for array in (mats, class_eigs, bound, cand, stack.cand_col):
            array.flags.writeable = False
    return stack.class_eigs.take(connection.class_indices, axis=0).sum(axis=0), stack


def transition(connection: ConnectionSet, tau: float) -> TransitionMatrix:
    """H(tau) = sum over eigenvalues of exp(-i lambda tau) E_lambda."""
    lams, stack = _spectral_data(connection)
    phases = np.exp(-1j * lams * tau)
    H = np.tensordot(phases, stack.mats, axes=(0, 0))
    return TransitionMatrix(tau=tau, H=H)


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    amplitude: float


def pair_amplitudes(connection: ConnectionSet, pairs, times) -> np.ndarray:
    """|H(tau)_{uv}| for every tau in `times` and every pair (u, v) in `pairs`.

    Returns (len(times), len(pairs)).  The pairs share one eigenvalue vector
    and one phase table; each pair is its own matrix-vector product with that
    table, so every column is bit-identical to a call on that pair alone (one
    matrix product over all pairs would round differently).
    """
    lams, stack = _spectral_data(connection)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), lams))
    return np.abs(np.stack([phases @ stack.mats[:, u, v] for u, v in pairs], axis=1))


def pst_probe(connection: ConnectionSet, u: int, v: int, times) -> ProbeResult:
    """Best (tau, |H(tau)_{uv}|) over the given times."""
    times = np.asarray(times, dtype=float)
    amps = pair_amplitudes(connection, [(u, v)], times)[:, 0]
    best = int(np.argmax(amps))
    return ProbeResult(tau=float(times[best]), amplitude=float(amps[best]))


@lru_cache(maxsize=None)
def ratio_index_table(params: GroupParams) -> np.ndarray:
    """W[u, v] = vertex index of g_u g_v^{-1}, read-only.

    For Cayley graphs right translation is an automorphism, so
    |H(tau)_{uv}| = |H(tau)_{W[u,v], 0}|; `verify` reads pair maxima from
    the first column through this table.  Built on (r, s) index arrays by
    `group.product_rule`, the rule `group.multiply` applies to one pair.
    """
    two_n = params.two_n
    s, r = np.divmod(np.arange(params.order), two_n)
    # (a^r b^s)^{-1} = b^{-s} a^{-r}
    r_inv, s_inv = product_rule(two_n, 0, -s % 4, -r % two_n, 0)
    r_w, s_w = product_rule(two_n, r[:, None], s[:, None], r_inv[None, :], s_inv[None, :])
    W = two_n * s_w + r_w
    W.flags.writeable = False
    return W


@lru_cache(maxsize=None)
def _pairs_per_ratio(params: GroupParams) -> np.ndarray:
    """How many pairs u < v have W[u, v] = w, for every vertex w (0 for the identity)."""
    upper = ratio_index_table(params)[np.triu_indices(params.order, 1)]
    counts = np.bincount(upper, minlength=params.order)
    counts.flags.writeable = False
    return counts


def _scan(coeffs: np.ndarray, lams: np.ndarray, step: float, points: int) -> np.ndarray:
    """|sum_l coeffs[l, c] e^{-i lams[l] k step}| for each column c and k = 0 .. points.

    Writing k = q R + r with R = isqrt(points) + 1 factorizes the phase as
    e^{-i lambda q R step} e^{-i lambda r step}: two short exp tables over the
    labels' eigenvalues and one matrix product.  Returns (columns, Q R) with
    Q R > points, so the last few k lie past `points`.
    """
    R = math.isqrt(points) + 1
    Q = points // R + 1
    by_q = np.exp(-1j * np.outer(np.arange(Q) * R * step, lams))  # (Q, labels)
    by_r = np.exp(-1j * np.outer(lams, np.arange(R) * step))  # (labels, R)
    weighted = coeffs.T[:, None, :] * by_q  # (C, Q, labels)
    return np.abs(weighted.reshape(-1, len(lams)) @ by_r).reshape(coeffs.shape[1], Q * R)


def grid_amplitude_maxima(connection: ConnectionSet, grid_points: int) -> np.ndarray:
    """Upper bound on max over tau of |H(tau)_{w, 0}|, for every vertex w.

    Three stages, each run only on the columns the one before leaves at or
    above 1 - NEGATIVE_TOL; what a column returns is its value from the
    last stage it reached.

    1. B[w] = sum over labels of |P_label[w, 0]| bounds |H(tau)_{w, 0}| for
       every real tau, since H(tau) = sum over labels of
       e^{-i lambda tau} P_label.  It depends only on n, so it is kept with
       the stack, with the columns it leaves (`stack.cand`).  For n = 1..8
       it certifies every column except the identity and the central
       involutions.
    2. With h = 2 pi / grid_points, |H(t)_{w, 0}| on every COARSE_STEP-th grid
       point t = j K h (K = COARSE_STEP, j = 0 .. ceil(grid_points / K)),
       plus L[w] K h / 2, where L[w] = sum over labels of
       |P_label[w, 0]| |lambda_label - mu| and mu is the midpoint of the
       smallest and largest eigenvalue.  A global phase does not change the
       modulus, so |H(t + d)_{w, 0}| <= |H(t)_{w, 0}| + L[w] |d|; every grid
       point, and every tau in [0, 2 pi], lies within K h / 2 of a coarse
       point, so this bounds the column on the whole grid.
       Coarse point j = 1 .. floor(grid_points / K) is grid point j K, so
       a column whose sample there reaches the threshold has its grid
       maximum at or above it: a hit, decided without stage 3, which keeps
       its coarse bound (at or above the threshold too).
    3. The maximum of |H(t)_{w, 0}| over the grid t_k = k h, k = 1 ..
       grid_points, exactly as scanned, for the columns stage 2 neither
       certifies nor decides.

    Stages 2 and 3 run on the graph's label eigenvalues and the columns'
    per-label coefficients, in label order.  So a column that stops at
    stage 1 bounds |H(tau)_{w, 0}| for every real tau, one that stops at
    stage 2 for every tau in [0, 2 pi], and a column that reaches stage 3
    is its grid maximum.  Every column is on the side of
    the threshold its grid maximum is on.  Column 0 (the identity, the
    ratio of no pair u < v) keeps B[0], which bounds |H(tau)_{00}| as well.
    Through ratio_index_table the result bounds every pair's |H(tau)_{uv}|
    on the grid.
    """
    threshold = 1.0 - NEGATIVE_TOL
    lams, stack = _spectral_data(connection)
    best = stack.bound.copy()
    cols, coeffs = stack.cand, stack.cand_col
    h = 2 * math.pi / grid_points
    coarse_points = -(-grid_points // COARSE_STEP)
    lipschitz = np.abs(lams - (lams.min() + lams.max()) / 2) @ np.abs(coeffs)
    coarse = _scan(coeffs, lams, COARSE_STEP * h, coarse_points)[:, : coarse_points + 1]
    best[cols] = coarse.max(axis=1) + lipschitz * (COARSE_STEP * h / 2)
    # coarse point j = 1 .. grid_points // K is grid point j K: a sample there
    # at or above the threshold is a hit, which keeps its coarse bound
    sampled = (coarse[:, 1 : grid_points // COARSE_STEP + 1] >= threshold).any(axis=1)
    left = (best[cols] >= threshold) & ~sampled
    if left.any():
        fine = _scan(coeffs[:, left], lams, h, grid_points)
        best[cols[left]] = fine[:, 1 : grid_points + 1].max(axis=1)
    return best


def verify(connection: ConnectionSet, verdicts) -> tuple[float, int]:
    """(max 1 - |H(pi/M)_{uv}| over positive pairs, disagreements) of one graph.

    The positive pairs of one graph share one transfer time pi / M, so they
    are read from one `pair_amplitudes` call at that time; each pair's
    amplitude is still its own product, bit-identical to a call on that pair
    alone.  A positive pair disagrees at or below 1 - POSITIVE_TOL, any
    other pair u < v when grid_amplitude_maxima reaches 1 - NEGATIVE_TOL at
    its ratio: a bound from B or the coarse grid pass, a coarse sample at a
    grid point that reaches the threshold, and where none of these decides
    the ratio, its maximum over the grid of 2 pi / GRID_POINTS steps.  The
    ratio of a pair u < v is never the identity, so the identity column is
    never counted.
    """
    disagreements = 0
    max_dev = 0.0
    if verdicts:
        amps = pair_amplitudes(
            connection, [(v.u, v.v) for v in verdicts], [verdicts[0].min_time]
        )[0]
        max_dev = max(0.0, 1.0 - amps.min())
        disagreements = int(np.count_nonzero(amps <= 1.0 - POSITIVE_TOL))
    hit = grid_amplitude_maxima(connection, GRID_POINTS) >= 1.0 - NEGATIVE_TOL
    W = ratio_index_table(connection.params)
    # every pair u < v whose ratio is hit, less the positive pairs among them
    disagreements += int(_pairs_per_ratio(connection.params)[hit].sum())
    disagreements -= sum(1 for v in verdicts if hit[W[v.u, v.v]])
    return max_dev, disagreements
