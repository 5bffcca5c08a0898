"""References for the oracle in `v8npst.oracle`.

`adjacency` is the dense adjacency matrix, built element by element from
the group multiplication.  `expm_taylor` is a scaling-and-squaring Taylor
exponential, so `transition_expm` gives a second-opinion H(tau) that uses
no spectral information.  Tests compare the oracle's spectral H(tau),
its projectors and its eigenvalues against these.

`spectral_data` is `oracle._spectral_data` as it was before the stack was
kept per n: the label sums come from a `rep_projectors` dict (kept per n
here, so that the tests do not rebuild the projectors on every call) and are
stacked again on every call, and the eigenvalues are read from them on every
call too.  From A P = lambda P at entry (0, 0), each label's eigenvalue is
sum_{w in S} P[w, 0] / P[0, 0], added up here class by class in class order,
as the oracle adds up its per-n class rows.  `transition` and
`pair_amplitudes` evaluate the oracle's formulas on that data, and tests
compare them bit for bit.
`ratio_index_table` is the double loop of `multiply` calls that the
oracle's index-array table replaced; tests compare the two for n = 1..12.
`grid_amplitude_maxima` is the plain scan the oracle replaced: one `exp` per
label and time, over all 8n columns.  The oracle's scan must match it on the
columns it scans and bound it on the others.  `oracle_check` is the
verification arithmetic the CLI used to hold, on the reference functions;
`oracle.verify` must return exactly what it returns.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from v8npst import oracle
from v8npst.group import (
    ConnectionSet,
    GroupParams,
    all_elements,
    class_labels,
    inverse,
    multiply,
    vertex_index,
)
from v8npst.spectrum import rep_labels

POSITIVE_TOL = 1e-6
NEGATIVE_TOL = 1e-4
_GRID_CHUNK = 2048


def adjacency(connection: ConnectionSet) -> np.ndarray:
    """A[u][v] = 1 iff g_u g_v^{-1} is in S, in vertex-label order."""
    params = connection.params
    elems = all_elements(params)
    order = params.order
    members = connection.members
    A = np.zeros((order, order))
    for v, gv in enumerate(elems):
        gv_inv = inverse(params, gv)
        for u, gu in enumerate(elems):
            if u != v and multiply(params, gu, gv_inv) in members:
                A[u, v] = 1.0
    return A


def ratio_index_table(params: GroupParams) -> np.ndarray:
    """W[u, v] = vertex index of g_u g_v^{-1}, one `multiply` call per pair."""
    elems = all_elements(params)
    order = params.order
    W = np.zeros((order, order), dtype=int)
    for v, gv in enumerate(elems):
        gv_inv = inverse(params, gv)
        for u, gu in enumerate(elems):
            W[u, v] = vertex_index(params, multiply(params, gu, gv_inv))
    return W


def expm_taylor(M: np.ndarray, order: int = 20) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with a fixed-order Taylor core.

    Kept independent of the eigenprojector path on purpose: no spectral
    information is used.
    """
    norm = np.linalg.norm(M, 1)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300) / 0.5))))
    A = M / (2 ** squarings)
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def transition_expm(connection: ConnectionSet, tau: float) -> np.ndarray:
    """Second-opinion H(tau) via the Taylor exponential of -i tau A."""
    return expm_taylor(-1j * tau * adjacency(connection))


@lru_cache(maxsize=None)
def _rep_sums(params):
    """`oracle.rep_projectors` per n; the oracle itself keeps no projectors."""
    return oracle.rep_projectors(ConnectionSet(params, frozenset(), ()))


def spectral_data(connection):
    """(eigenvalues, stacked per-representation projectors) aligned by label."""
    params = connection.params
    sums = _rep_sums(params)
    mats = np.stack([sums[label] for label in rep_labels(params)])
    col = mats[:, :, 0]
    labels = class_labels(params)
    lams = 0.0
    for c in connection.class_indices:
        lams = lams + col[:, labels[c]].real.sum(axis=1) / col[:, 0].real
    return lams, mats


def transition(connection, tau) -> np.ndarray:
    lams, mats = spectral_data(connection)
    phases = np.exp(-1j * lams * tau)
    return np.tensordot(phases, mats, axes=(0, 0))


def pair_amplitudes(connection, u, v, times) -> np.ndarray:
    lams, mats = spectral_data(connection)
    coeffs = mats[:, u, v]
    times = np.asarray(times, dtype=float)
    return np.abs(np.exp(-1j * np.outer(times, lams)) @ coeffs)


def grid_amplitude_maxima(connection, times) -> np.ndarray:
    lams, mats = spectral_data(connection)
    col = mats[:, :, 0]
    times = np.asarray(times, dtype=float)
    order = col.shape[1]
    best = np.zeros(order)
    for start in range(0, len(times), _GRID_CHUNK):
        t = times[start : start + _GRID_CHUNK]
        phases = np.exp(-1j * np.outer(lams, t))
        amps = np.abs(col.T @ phases)
        np.maximum(best, amps.max(axis=1), out=best)
    return best


def oracle_check(conn, verdicts, grid_points: int) -> tuple[float, int]:
    """Corroborate every verdict; returns (max deviation, disagreement count)."""
    times = np.arange(1, grid_points + 1) * (2 * math.pi / grid_points)
    disagreements = 0
    max_dev = 0.0
    for v in verdicts:
        amp = pair_amplitudes(conn, v.u, v.v, [v.min_time])[0]
        max_dev = max(max_dev, 1.0 - amp)
        if amp <= 1.0 - POSITIVE_TOL:
            disagreements += 1
    best = grid_amplitude_maxima(conn, times)
    W = oracle.ratio_index_table(conn.params)
    # negative pairs u < w whose grid maximum reaches the transfer threshold
    hit = np.triu(best[W] >= 1.0 - NEGATIVE_TOL, 1)
    for v in verdicts:  # every verdict has u < v
        hit[v.u, v.v] = False
    disagreements += int(np.count_nonzero(hit))
    return max_dev, disagreements
