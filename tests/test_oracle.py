"""Oracle: closed-form projectors, transition matrix, probes and verify,
against the dense references in oracle_reference."""

import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from v8npst import oracle
from v8npst.group import (
    IDENTITY,
    GroupParams,
    all_elements,
    element,
    enumerate_connection_sets,
    multiply,
    validate_connection_set,
)
from v8npst.oracle import (
    grid_amplitude_maxima,
    pair_amplitudes,
    projectors,
    pst_probe,
    ratio_index_table,
    rep_projectors,
    transition,
)
from v8npst.pst import all_pst_pairs, gap_gcd
from v8npst.spectrum import eigenvalues

import oracle_reference
from conftest import valid_sets
from oracle_reference import adjacency, expm_taylor, transition_expm
from spectrum_reference import eigenvectors


def full_set(n):
    p = GroupParams(n)
    return validate_connection_set(p, [x for x in all_elements(p) if x != IDENTITY])


def cp_set(n):
    p = GroupParams(n)
    skip = {IDENTITY, element(p, 0, 2)}
    return validate_connection_set(p, [x for x in all_elements(p) if x not in skip])


def test_adjacency_k8():
    A = adjacency(full_set(1))
    assert np.array_equal(A, np.ones((8, 8)) - np.eye(8))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjacency_regular_symmetric(n):
    for conn in valid_sets(n):
        A = adjacency(conn)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        assert np.all(A.sum(axis=1) == len(conn))


def test_adjacency_second_construction():
    """g ~ h iff g in S h: building from the other side gives the same matrix."""
    conn = valid_sets(2)[5]
    p = conn.params
    elems = all_elements(p)
    A = adjacency(conn)
    B = np.zeros_like(A)
    for v, gv in enumerate(elems):
        right = {multiply(p, s, gv) for s in conn.members}
        for u, gu in enumerate(elems):
            if gu in right:
                B[u, v] = 1.0
    assert np.array_equal(A, B)


def test_projector_e1_is_scaled_all_ones():
    conn = full_set(2)
    e1 = next(pr for pr in projectors(conn) if pr.label == "E1")
    assert np.allclose(e1.matrix, np.ones((16, 16)) / 16)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projector_algebra(n):
    conn = valid_sets(n)[0]
    projs = projectors(conn)
    order = 8 * n
    assert len(projs) == order
    total = np.zeros((order, order), dtype=complex)
    mats = [pr.matrix for pr in projs]
    for M in mats:
        assert np.max(np.abs(M @ M - M)) < 1e-9
        total += M
    assert np.max(np.abs(total - np.eye(order))) < 1e-9
    stacked = np.stack(mats)
    for i, M in enumerate(mats):
        prods = np.einsum("ij,sjk->sik", M, stacked)
        prods[i] -= M
        assert np.max(np.abs(prods)) < 1e-9  # mutual annihilation


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_forms_equal_outer_products(n):
    conn = valid_sets(n)[0]
    E = eigenvectors(conn)
    cols = defaultdict(list)
    for i, lab in enumerate(E.labels):
        cols[lab].append(i)
    position = defaultdict(int)
    for pr in projectors(conn):
        col = cols[pr.eigenvalue_label][position[pr.eigenvalue_label]]
        position[pr.eigenvalue_label] += 1
        v = E.matrix[:, col]
        assert np.max(np.abs(pr.matrix - np.outer(v, v.conj()))) < 1e-10, pr.label


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_rep_projectors_sum_as_they_are_built(n):
    """The per-label sums equal the sums of `projectors()`, bit for bit, and
    building them holds little more than the sums themselves."""
    conn = valid_sets(n)[0] if n < 7 else next(enumerate_connection_sets(GroupParams(n), 3))
    want = {}
    for pr in projectors(conn):
        want[pr.eigenvalue_label] = want.get(pr.eigenvalue_label, 0) + pr.matrix
    tracemalloc.start()
    try:
        got = rep_projectors(conn)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) for k in want)
    one = (8 * n) ** 2 * 16  # bytes of one dense complex projector
    assert peak <= held + 8 * one  # the eager version held all 8n projectors


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjacency_reconstruction(n):
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        sums = rep_projectors(conn)
        A = sum(ev.value * sums[ev.label] for ev in table.eigenvalues)
        assert np.max(np.abs(A - adjacency(conn))) < 1e-8


def test_transition_at_zero_is_identity():
    conn = full_set(3)
    H = transition(conn, 0.0).H
    assert np.max(np.abs(H - np.eye(24))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transition_unitarity_random_taus(n, rng):
    conn = valid_sets(n)[-1]
    table = eigenvalues(conn)
    order = 8 * n
    for tau in rng.uniform(0, 2 * math.pi, size=12):
        H = transition(conn, float(tau), table).H
        assert np.max(np.abs(H @ H.conj().T - np.eye(order))) < 1e-9
        assert np.max(np.abs(np.linalg.norm(H, axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(np.abs(H) - np.abs(H.T))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectral_vs_taylor_exponential(n, rng):
    sets = valid_sets(n)
    for _ in range(4):
        conn = sets[rng.integers(len(sets))]
        for tau in (0.1, 1.0, math.pi):
            H1 = transition(conn, tau).H
            H2 = transition_expm(conn, tau)
            assert np.max(np.abs(H1 - H2)) < 1e-7


def test_expm_taylor_against_eigh():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(12, 12))
    A = (B + B.T) / 2
    lam, V = np.linalg.eigh(A)
    want = (V * np.exp(-1j * lam)) @ V.conj().T
    got = expm_taylor(-1j * A)
    assert np.max(np.abs(want - got)) < 1e-9


def test_probe_diagonal_at_zero():
    conn = full_set(1)
    res = pst_probe(conn, 2, 2, [0.0])
    assert res.tau == 0.0 and abs(res.amplitude - 1.0) < 1e-12


def test_probe_k8_never_close_to_one():
    conn = full_set(1)
    times = np.arange(1, 5001) * (2 * math.pi / 5000)
    for u in range(8):
        for v in range(u + 1, 8):
            res = pst_probe(conn, u, v, times)
            assert res.amplitude < 1 - 1e-3


def test_probe_finds_transfer_at_predicted_time():
    conn = cp_set(2)
    table = eigenvalues(conn)
    verdict = all_pst_pairs(table)[0]
    res = pst_probe(conn, verdict.u, verdict.v, [verdict.min_time], table)
    assert res.amplitude > 1 - 1e-6


def test_periodicity_probe_basics():
    conn = full_set(1)
    assert pst_probe(conn, 0, 0, [0.0]).amplitude == pytest.approx(1.0)
    # integral graph: H(2 pi) = identity, so every vertex returns
    res = pst_probe(conn, 3, 3, [2 * math.pi])
    assert res.amplitude > 1 - 1e-9


def test_periodicity_probe_integral_graph_every_vertex():
    conn = cp_set(2)
    table = eigenvalues(conn)
    assert table.all_integral
    for u in range(16):
        res = pst_probe(conn, u, u, [2 * math.pi], table)
        assert res.amplitude > 1 - 1e-9


def test_ratio_table_translation_invariance():
    conn = valid_sets(2)[7]
    table = eigenvalues(conn)
    W = ratio_index_table(conn.params)
    for tau in (0.3, 1.1):
        H = np.abs(transition(conn, tau, table).H)
        assert np.max(np.abs(H - H[W, 0])) < 1e-10


def central_vertices(params):
    """Vertex indices of the centre of V_8n, found by brute force."""
    elems = all_elements(params)
    return [
        w
        for w, g in enumerate(elems)
        if all(multiply(params, g, h) == multiply(params, h, g) for h in elems)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_vertex_zero_is_the_identity(n):
    """grid_amplitude_maxima never scans column 0: it is the ratio of u = v only."""
    params = GroupParams(n)
    assert all_elements(params)[0] == IDENTITY
    W = ratio_index_table(params)
    assert np.array_equal(np.diag(W), np.zeros(params.order, dtype=int))
    assert np.count_nonzero(W == 0) == params.order


def projector_bound(conn, table):
    """B[w]: the column's projector coefficients, |.| summed over labels."""
    lams, mats = oracle_reference.spectral_data(conn, table)
    return np.abs(mats[:, :, 0]).sum(axis=0)


def _eigenspace_weights(conn, table):
    """(distinct eigenvalues, |coefficients summed per eigenvalue| per column)."""
    lams, mats = oracle_reference.spectral_data(conn, table)
    col = mats[:, :, 0]
    spaces = sorted(set(lams.tolist()))
    return np.array(spaces), np.array([np.abs(col[lams == lam].sum(axis=0)) for lam in spaces])


def eigenspace_bound(conn, table):
    """B'[w]: column w's projector coefficients summed per eigenvalue, then |.| summed."""
    return _eigenspace_weights(conn, table)[1].sum(axis=0)


def coarse_bound(conn, table, grid_points):
    """The reference scan on every COARSE_STEP-th grid point, plus L[w] K h / 2."""
    spaces, weights = _eigenspace_weights(conn, table)
    lipschitz = np.abs(spaces - (spaces[0] + spaces[-1]) / 2) @ weights
    step = oracle.COARSE_STEP * 2 * math.pi / grid_points
    times = np.arange(-(-grid_points // oracle.COARSE_STEP) + 1) * step
    return oracle_reference.grid_amplitude_maxima(conn, times, table) + lipschitz * step / 2


def check_grid_maxima(conn, table, grid_points):
    """grid_amplitude_maxima against the all-column reference scan on the same grid.

    Every column is at least the reference's grid maximum, up to rounding
    of both sums, and every non-identity column is on the same side of the
    negative threshold.  The non-identity columns that B, B' and the coarse
    pass leave at or above the threshold (recomputed here from the
    reference) are fine-scanned and match the reference; every other one is
    a bound below the threshold.  Returns (maxima, fine-scanned columns).
    """
    thr = 1 - oracle.NEGATIVE_TOL
    times = np.arange(1, grid_points + 1) * (2 * math.pi / grid_points)
    want = oracle_reference.grid_amplitude_maxima(conn, times, table)
    best = grid_amplitude_maxima(conn, grid_points, table)
    certified = (
        (projector_bound(conn, table) < thr)
        | (eigenspace_bound(conn, table) < thr)
        | (coarse_bound(conn, table, grid_points) < thr)
    )
    scanned = 1 + np.flatnonzero(~certified[1:])
    assert np.all(best >= want - 1e-12)
    assert np.array_equal(best[1:] >= thr, want[1:] >= thr)
    assert np.all(np.abs(best[scanned] - want[scanned]) < 1e-12)
    assert np.all(best[certified] < thr)
    return best, scanned


def test_grid_maxima_agree_with_direct_scan():
    conn = valid_sets(1)[3]  # b^2 + b + a*b: no bound certifies b^2, so it is fine-scanned
    table = eigenvalues(conn)
    times = np.arange(1, 801) * (2 * math.pi / 800)
    best, scanned = check_grid_maxima(conn, table, 800)
    assert len(scanned)
    W = ratio_index_table(conn.params)
    for u in range(8):
        for v in range(8):
            direct = pair_amplitudes(conn, u, v, times, table).max()
            if W[u, v] in scanned:
                assert abs(direct - best[W[u, v]]) < 1e-10
            else:  # a bound on the grid, up to rounding of both sums
                assert best[W[u, v]] >= direct - 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_projector_bound_certifies_all_but_central(n):
    """Only the identity and the central involutions escape the bound B."""
    params = GroupParams(n)
    sets = valid_sets(n) if n <= 2 else tuple(enumerate_connection_sets(params, 2))
    central = central_vertices(params)
    assert len(central) == (2 if n % 2 else 4)
    for conn in sets[:: max(1, len(sets) // 4)]:
        table = eigenvalues(conn)
        bound = projector_bound(conn, table)
        assert list(np.flatnonzero(bound >= 1 - oracle.NEGATIVE_TOL)) == central
        others = np.setdiff1d(np.arange(params.order), central)
        for grid_points in (1, 2, 7, 300, 10000):
            best, scanned = check_grid_maxima(conn, table, grid_points)
            assert set(scanned) <= set(central)
            assert np.array_equal(best[others], bound[others])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_eigenspace_bound_certifies_a_central_column(n):
    """Labels sharing an eigenvalue share a phase, so B' certifies central columns B cannot."""
    params = GroupParams(n)
    central = central_vertices(params)[1:]
    for conn in enumerate_connection_sets(params, 3):
        table = eigenvalues(conn)
        bound = projector_bound(conn, table)
        tight = eigenspace_bound(conn, table)
        certified = [w for w in central if tight[w] < 1 - oracle.NEGATIVE_TOL <= bound[w]]
        if certified:
            best, scanned = check_grid_maxima(conn, table, 512)
            assert not set(certified) & set(scanned)
            assert np.all(np.abs(best[certified] - tight[certified]) < 1e-12)
            return
    pytest.fail(f"no central column certified by B' at n = {n}")


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_transfer_columns_reach_the_fine_pass(n):
    """The ratio of a positive pair gets the fine scan and reaches the threshold there.

    On the second grid the transfer time pi/M is the grid point halfway
    between two coarse points, where only the L K h / 2 term keeps the
    coarse pass from certifying the column.
    """
    params = GroupParams(n)
    W = ratio_index_table(params)
    K = oracle.COARSE_STEP
    checked = 0
    for conn in enumerate_connection_sets(params, 5):
        table = eigenvalues(conn)
        verdicts = all_pst_pairs(table)
        if not verdicts:
            continue
        ratios = sorted({int(W[v.u, v.v]) for v in verdicts})
        assert all(ratio in central_vertices(params) for ratio in ratios)
        for grid_points in (10000, 2 * verdicts[0].M * (250 * K + K // 2)):
            best, scanned = check_grid_maxima(conn, table, grid_points)
            assert set(ratios) <= set(scanned)
            assert np.all(best[ratios] >= 1 - oracle.NEGATIVE_TOL)
        checked += 1
        if checked == 2:
            return
    pytest.fail(f"fewer than 2 sets with transfer among unions of at most 5 classes at n = {n}")


def test_candidate_times_stay_below_threshold_for_negative_pairs():
    conn = full_set(2)
    table = eigenvalues(conn)
    M = gap_gcd(table)
    assert all_pst_pairs(table) == ()
    for ell in range(8):
        tau = math.pi / M * (1 + 2 * ell)
        H = np.abs(transition(conn, tau, table).H)
        off = H - np.diag(np.diag(H))
        assert off.max() < 1 - 1e-4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_cached_stack_matches_per_call_reference(n, monkeypatch):
    """The per-n stack equals the per-call stack bit for bit; the grid scan keeps its contract."""
    monkeypatch.setattr(oracle, "GRID_POINTS", 512)  # the reference's dense scan stays small
    params = GroupParams(n)
    sets = valid_sets(n) if n <= 4 else tuple(enumerate_connection_sets(params, 3))
    assert sets
    for conn in sets:
        table = eigenvalues(conn)
        for tau in (0.7, math.pi / 3):
            want = oracle_reference.transition(conn, tau, table)
            assert np.array_equal(transition(conn, tau, table).H, want)
        verdicts = all_pst_pairs(table)
        for v in verdicts:
            tau = [math.pi / v.M]
            want = oracle_reference.pair_amplitudes(conn, v.u, v.v, tau, table)
            assert np.array_equal(pair_amplitudes(conn, v.u, v.v, tau, table), want)
        check_grid_maxima(conn, table, 512)
        want = oracle_reference.oracle_check(conn, table, verdicts, 512)
        assert oracle.verify(conn, table, verdicts) == want
        stack = oracle._spectral_data(conn, table)[1]
        assert np.array_equal(stack.bound, projector_bound(conn, table))
        for array in (stack.mats, stack.bound, stack.cand, stack.cand_col):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            stack.mats[0, 0, 0] = 0
    # one stack per n, shared by every graph
    assert oracle._spectral_data(sets[0], None)[1] is stack


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_pairs_per_ratio_counts_the_upper_triangle(n):
    params = GroupParams(n)
    W = ratio_index_table(params)
    want = np.zeros(params.order, dtype=int)
    for u in range(params.order):
        for v in range(u + 1, params.order):
            want[W[u, v]] += 1
    assert np.array_equal(oracle._pairs_per_ratio(params), want)
    assert want[0] == 0


def test_verification_thresholds():
    assert (oracle.POSITIVE_TOL, oracle.NEGATIVE_TOL) == (1e-6, 1e-4)
    assert oracle.GRID_POINTS == 10_000
