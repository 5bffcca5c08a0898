"""Oracle: closed-form projectors, transition matrix, probes and verify,
against the dense references in oracle_reference."""

import hashlib
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from v8npst import oracle, spectrum
from v8npst.group import (
    IDENTITY,
    GroupParams,
    all_elements,
    conjugacy_classes,
    enumerate_connection_sets,
    multiply,
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
from v8npst.spectrum import eigenvalues, rep_labels

import oracle_reference
from conftest import cp_set, full_set, valid_sets
from oracle_reference import adjacency, expm_taylor, transition_expm
from spectrum_reference import eigenvectors


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


@pytest.mark.parametrize("n", range(1, 9))
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


# SHA-256 of the labels and matrices of `projectors`, signed zeros folded
PROJECTOR_DIGESTS = {
    1: "7def3a38a42a4c1e108405161e797ac761aa801070454e2ee7e62700ae4bce71",
    2: "5bbb0f2a7ecffec05b17098c57a2ee34c9a93b2703515649d17b83ac701862b8",
    3: "a98fc3df87e1dda58b29f835367d07377d8044f228955ca22bdce1bc23f047d9",
    4: "5a73064c7a483d9f836191353b267e626a9c908f9e6d404d489967aae77982d8",
    5: "b05f955e0964b9de198e0cd003a0508eb9753c216a4aa6ff94b010fe7cdd23f6",
    6: "ffb219480fb4826c8e8f9fe5e4dbc2d6ad17eb31d481b024ebbdf8916034f225",
    7: "8b0f77de8d377ecb8d55b5c0f233ab67097e8cadef9b8d62cd5dced97720df97",
    8: "82a83aa5666c5f6888cf784ad96506b26bdb23df7916aa62cb3707567ddf5a55",
}


@pytest.mark.parametrize("n", sorted(PROJECTOR_DIGESTS))
def test_projector_digests(n):
    """Every closed form, label and order of `projectors` is pinned to the
    last bit: a change that keeps each projector within rounding of its
    eigenvector's outer product still changes the digest."""
    conn = next(enumerate_connection_sets(GroupParams(n), 99))
    digest = hashlib.sha256()
    for pr in projectors(conn):
        digest.update(f"{pr.label} {pr.eigenvalue_label}\n".encode())
        digest.update(np.ascontiguousarray(pr.matrix + 0.0, dtype=complex).tobytes())
    assert digest.hexdigest() == PROJECTOR_DIGESTS[n]


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
        A = sum(value * sums[label] for label, value in zip(rep_labels(conn.params), table.values))
        assert np.max(np.abs(A - adjacency(conn))) < 1e-8


def test_transition_at_zero_is_identity():
    conn = full_set(3)
    H = transition(conn, 0.0).H
    assert np.max(np.abs(H - np.eye(24))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transition_unitarity_random_taus(n, rng):
    conn = valid_sets(n)[-1]
    order = 8 * n
    for tau in rng.uniform(0, 2 * math.pi, size=12):
        H = transition(conn, float(tau)).H
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
    res = pst_probe(conn, verdict.u, verdict.v, [verdict.min_time])
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
        res = pst_probe(conn, u, u, [2 * math.pi])
        assert res.amplitude > 1 - 1e-9


def test_ratio_table_translation_invariance():
    """|H(tau)_{uv}| = |H(tau)_{W[u, v], 0}| on one drawn set per n = 1..8,
    which `verify` relies on.  Only the modulus is a function of
    g_u g_v^{-1}: for odd n the beta projector sums are not, so the check is
    on |H|."""
    for n in range(1, 9):
        sets = valid_sets(n)
        conn = sets[np.random.default_rng(n).integers(len(sets))]
        W = ratio_index_table(conn.params)
        for tau in (0.3, 1.1):
            H = np.abs(transition(conn, tau).H)
            assert np.max(np.abs(H - H[W, 0])) < 1e-10, (n, conn.class_tags, tau)


@pytest.mark.parametrize("n", range(1, 13))
def test_ratio_index_table_matches_group_law(n):
    params = GroupParams(n)
    want = oracle_reference.ratio_index_table(params)
    W = ratio_index_table(params)
    assert W.dtype == want.dtype and np.array_equal(W, want)


def test_ratio_index_table_is_read_only():
    """Like every other per-n array, the cached table cannot be written."""
    W = ratio_index_table(GroupParams(3))
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 1] = 0


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


def projector_bound(conn):
    """B[w]: the column's projector coefficients, |.| summed over labels."""
    lams, mats = oracle_reference.spectral_data(conn)
    return np.abs(mats[:, :, 0]).sum(axis=0)


def coarse_bound(conn, grid_points):
    """The reference scan on every COARSE_STEP-th grid point, plus L[w] K h / 2,
    with L[w] = sum over labels of |P_label[w, 0]| |lambda_label - mu|."""
    lams, mats = oracle_reference.spectral_data(conn)
    lipschitz = np.abs(lams - (lams.min() + lams.max()) / 2) @ np.abs(mats[:, :, 0])
    step = oracle.COARSE_STEP * 2 * math.pi / grid_points
    times = np.arange(-(-grid_points // oracle.COARSE_STEP) + 1) * step
    return oracle_reference.grid_amplitude_maxima(conn, times) + lipschitz * step / 2


def check_grid_maxima(conn, grid_points):
    """grid_amplitude_maxima against the all-column reference scan on the same grid.

    Every column is at least the reference's grid maximum, up to rounding
    of both sums, and every non-identity column is on the same side of the
    negative threshold.  Of the non-identity columns that B and the coarse
    pass leave at or above the threshold (recomputed here from the
    reference, with a per-label Lipschitz term), those whose samples at the
    coarse points that are grid points reach the threshold are hits, at or
    above the threshold and the reference maximum; the others are
    fine-scanned and match the reference.  Every other column is a bound
    below the threshold.  Returns (maxima, fine-scanned columns).
    """
    thr = 1 - oracle.NEGATIVE_TOL
    times = np.arange(1, grid_points + 1) * (2 * math.pi / grid_points)
    want = oracle_reference.grid_amplitude_maxima(conn, times)
    best = grid_amplitude_maxima(conn, grid_points)
    certified = (projector_bound(conn) < thr) | (coarse_bound(conn, grid_points) < thr)
    # grid points K, 2 K, .., floor(N / K) K are the coarse points j = 1 .. floor(N / K)
    on_grid = times[oracle.COARSE_STEP - 1 :: oracle.COARSE_STEP]
    sampled = oracle_reference.grid_amplitude_maxima(conn, on_grid) >= thr
    hits = 1 + np.flatnonzero((~certified & sampled)[1:])
    scanned = 1 + np.flatnonzero(~(certified | sampled)[1:])
    assert np.all(best >= want - 1e-12)
    assert np.array_equal(best[1:] >= thr, want[1:] >= thr)
    assert np.all(np.abs(best[scanned] - want[scanned]) < 1e-12)
    assert np.all(best[certified] < thr)
    assert np.all(best[hits] >= thr) and np.all(best[hits] >= want[hits])
    return best, scanned


def test_grid_maxima_agree_with_direct_scan():
    # b^2 + b + a*b: no bound certifies b^2, the ratio of its transfer pairs;
    # on 800 points pi/2 is a coarse point, whose sample decides the hit, and
    # on 820 it is grid point 205, between two coarse points, so b^2 is fine-scanned
    conn = valid_sets(1)[3]
    assert not len(check_grid_maxima(conn, 800)[1])
    times = np.arange(1, 821) * (2 * math.pi / 820)
    best, scanned = check_grid_maxima(conn, 820)
    assert len(scanned)
    W = ratio_index_table(conn.params)
    pairs = [(u, v) for u in range(8) for v in range(8)]
    for (u, v), direct in zip(pairs, pair_amplitudes(conn, pairs, times).max(axis=0)):
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
        bound = projector_bound(conn)
        assert list(np.flatnonzero(bound >= 1 - oracle.NEGATIVE_TOL)) == central
        others = np.setdiff1d(np.arange(params.order), central)
        for grid_points in (1, 2, 7, 300, 10000):
            best, scanned = check_grid_maxima(conn, grid_points)
            assert set(scanned) <= set(central)
            assert np.array_equal(best[others], bound[others])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_hits_equal_dense_scan_on_every_set(n):
    """On every valid set, at the real GRID_POINTS, the non-identity columns
    grid_amplitude_maxima puts at or above the negative threshold are those
    the dense reference scan of every column does."""
    thr = 1 - oracle.NEGATIVE_TOL
    times = np.arange(1, oracle.GRID_POINTS + 1) * (2 * math.pi / oracle.GRID_POINTS)
    hits = 0
    for conn in valid_sets(n):
        want = oracle_reference.grid_amplitude_maxima(conn, times)[1:] >= thr
        got = grid_amplitude_maxima(conn, oracle.GRID_POINTS)[1:] >= thr
        assert np.array_equal(got, want), conn.class_tags
        hits += int(want.sum())
    assert hits


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_transfer_columns_reach_the_fine_pass(n):
    """The ratio of a positive pair reaches the threshold, from the coarse
    samples or, where they miss the transfer time, in the fine pass.

    On the GRID_POINTS grid the transfer time pi/M is a coarse point, so the
    sample there decides the hit and no fine scan runs.  On the second grid
    pi/M is the grid point halfway between two coarse points, where only the
    L K h / 2 term keeps the coarse pass from certifying the column, and the
    fine pass finds it.
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
        M = verdicts[0].M
        assert oracle.GRID_POINTS % (2 * M * K) == 0  # pi/M is a coarse point
        best, scanned = check_grid_maxima(conn, oracle.GRID_POINTS)
        assert not set(ratios) & set(scanned)  # neither certified nor scanned: a hit
        assert np.all(best[ratios] >= 1 - oracle.NEGATIVE_TOL)
        # 1,020 points for M = 2: the coarse samples nearest pi/M, 5 steps off,
        # stay about 1e-2 below 1 (on 10,020 points one n = 6 set's reach 1 - 1e-4)
        best, scanned = check_grid_maxima(conn, 2 * M * (25 * K + K // 2))
        assert set(ratios) <= set(scanned)
        assert np.all(best[ratios] >= 1 - oracle.NEGATIVE_TOL)
        checked += 1
        if checked == 2:
            return
    pytest.fail(f"fewer than 2 sets with transfer among unions of at most 5 classes at n = {n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_positive_pairs_share_one_phase_table_bit_for_bit(n):
    """One call over all of a graph's positive pairs, as `verify` makes it,
    gives each pair the per-pair reference's amplitude bit for bit."""
    checked = 0
    for conn in valid_sets(n):
        verdicts = all_pst_pairs(eigenvalues(conn))
        if not verdicts:
            continue
        times = sorted({v.min_time for v in verdicts})
        amps = pair_amplitudes(conn, [(v.u, v.v) for v in verdicts], times)
        assert amps.shape == (len(times), len(verdicts))
        for v, got in zip(verdicts, amps.T):
            assert np.array_equal(got, oracle_reference.pair_amplitudes(conn, v.u, v.v, times))
        checked += 1
    assert checked


def test_candidate_times_stay_below_threshold_for_negative_pairs():
    conn = full_set(2)
    table = eigenvalues(conn)
    M = gap_gcd(table)
    assert all_pst_pairs(table) == ()
    for ell in range(8):
        tau = math.pi / M * (1 + 2 * ell)
        H = np.abs(transition(conn, tau).H)
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
            want = oracle_reference.transition(conn, tau)
            assert np.array_equal(transition(conn, tau).H, want)
        verdicts = all_pst_pairs(table)
        for v in verdicts:
            tau = [math.pi / v.M]
            want = oracle_reference.pair_amplitudes(conn, v.u, v.v, tau)
            assert np.array_equal(pair_amplitudes(conn, [(v.u, v.v)], tau)[:, 0], want)
        check_grid_maxima(conn, 512)
        want = oracle_reference.oracle_check(conn, verdicts, 512)
        assert oracle.verify(conn, verdicts) == want
        stack = oracle._spectral_data(conn)[1]
        assert np.array_equal(stack.bound, projector_bound(conn))
        for array in (stack.mats, stack.bound, stack.cand, stack.cand_col):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            stack.mats[0, 0, 0] = 0
    # one stack per n, shared by every graph
    assert oracle._spectral_data(sets[0])[1] is stack


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


@pytest.mark.parametrize("n", [4, 7, 8])
def test_verify_builds_no_spectrum_table(n, monkeypatch):
    """The oracle reads its eigenvalues from its own projector stack: checking
    a graph without transfer asks `spectrum` for no table."""
    conn = next(
        c for c in enumerate_connection_sets(GroupParams(n), 3) if not eigenvalues(c).all_integral
    )

    def no_table(conn):
        raise AssertionError("the oracle asked for a spectrum table")

    monkeypatch.setattr(spectrum, "eigenvalues", no_table)
    monkeypatch.setattr(oracle, "eigenvalues", no_table)
    assert oracle.verify(conn, ()) == (0.0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_projector_eigenvalues_match_table_values(n):
    """sum_{w in S} P[w, 0] / P[0, 0], from the closed-form projectors, is the
    table's float eigenvalue of each label, on every set."""
    params = GroupParams(n)
    count = 0
    for conn in enumerate_connection_sets(params, len(conjugacy_classes(params))):
        lams = oracle._spectral_data(conn)[0]
        assert np.max(np.abs(lams - eigenvalues(conn).values)) <= 1e-12
        count += 1
    assert count > 0
