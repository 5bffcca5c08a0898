"""Acceptance suite.

Eight gate checks, each printing one "[acceptance] name: PASS/FAIL" line.
The decision/oracle scan (used by three of the checks) compares every
transfer verdict on every vertex pair of every valid class-union connection
set at n in {1, 2, 3, 4} against amplitudes computed from an independent
dense eigendecomposition of the adjacency matrix:

  * positive pair: |H(pi/M)_{uv}| > 1 - 1e-6;
  * negative pair: |H(tau)_{uv}| < 1 - 1e-4 on a 10^4-point grid over
    (0, 2pi] and at the odd multiples pi/M * (1 + 2 l), l < 8.

The same checks run on n = 5..8 over `hypothesis`-drawn sets (fixed
example counts, derandomized): 25 class unions and 10 sets with transfer
per n, the latter covering every transfer clause that n admits.

The minimum-time scan check tests that no transfer happens before pi/M.
Grid points just before pi/M cannot be required to stay below 1 - 1e-4:
at tau* = pi/M the weights p_lambda = e^{-i lambda tau*} (E_lambda)_{uv} /
H(tau*)_{uv} are real, non-negative and sum to 1, so

  |H(tau* + d)_{uv}| >= sum p_lambda cos((lambda - mu) d) >= 1 - Var d^2 / 2

with mu and Var the p-weighted mean and variance of the eigenvalues, and
every grid point within delta0 = sqrt(2e-4 / Var) of pi/M exceeds 1 - 1e-4
(up to ten grid steps at these graph sizes).  So for each positive ratio
class the check demands that

  1. every grid time before pi/M - step above 1 - 1e-4 lies in the unbroken
     above-threshold run of grid points that ends at pi/M (an earlier
     near-transfer would come back below the threshold before pi/M and show
     as a detached excursion), and
  2. that run starts no earlier than pi/M - delta0 - step.

The companion first-crossing check demands that the amplitude first reaches
the 1 - 1e-6 transfer threshold within one grid step of pi/M, never earlier,
and that it reaches it on the grid at all.
"""

import itertools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v8npst import characters, oracle, pst, spectrum
from v8npst.group import (
    IDENTITY,
    GroupParams,
    all_elements,
    conjugacy_classes,
    element,
    enumerate_connection_sets,
    generated_subgroup,
    inverse,
    multiply,
    region,
    validate_connection_set,
)

from characters_reference import closed_form_character
from cyclotomic_reference import sub
from conftest import (
    eigh_column_max,
    eigh_entry_amplitude,
    eigh_full_h,
    valid_sets,
)
from oracle_reference import adjacency, transition_expm
from spectrum_reference import eigenvectors

GRID_POINTS = 10_000
GRID_STEP = 2 * math.pi / GRID_POINTS
GRID_TIMES = np.arange(1, GRID_POINTS + 1) * GRID_STEP
POSITIVE_TOL = 1e-6
NEGATIVE_TOL = 1e-4


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL", flush=True)
        raise
    print(f"\n[acceptance] {name}: PASS", flush=True)


# --------------------------------------------------------------------------
# 1. group correctness
# --------------------------------------------------------------------------


def test_criterion_group_correctness():
    with criterion("group-correctness"):
        start = time.monotonic()
        for n in (1, 2, 3, 4):
            p = GroupParams(n)
            elems = all_elements(p)
            assert len(set(elems)) == 8 * n
            for x, y, z in itertools.product(elems, repeat=3):
                assert multiply(p, multiply(p, x, y), z) == multiply(
                    p, x, multiply(p, y, z)
                )
            a, b = element(p, 1, 0), element(p, 0, 1)
            acc = IDENTITY
            for _ in range(2 * n):
                acc = multiply(p, acc, a)
            assert acc == IDENTITY
            acc = IDENTITY
            for _ in range(4):
                acc = multiply(p, acc, b)
            assert acc == IDENTITY
            assert multiply(p, b, a) == multiply(p, inverse(p, a), inverse(p, b))
            assert multiply(p, inverse(p, b), a) == multiply(p, inverse(p, a), b)
            assert len(conjugacy_classes(p)) == 2 * n + (3 if n % 2 else 6)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"group correctness took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. character-table fidelity
# --------------------------------------------------------------------------


def test_criterion_character_table_fidelity():
    with criterion("character-table-fidelity"):
        start = time.monotonic()
        for n in range(1, 7):
            p = GroupParams(n)
            classes = conjugacy_classes(p)
            descs = characters.rep_descriptors(p)
            for d in descs:
                for ci, cls in enumerate(classes):
                    by_trace = characters._character_on_class(p, d, ci)
                    by_table = closed_form_character(p, d, cls)
                    assert sub(by_trace, by_table).is_zero(), (n, d, cls.tag)
            table = characters.character_table(p)
            numeric = [[v.value() for v in row] for row in table]
            sizes = [len(c) for c in classes]
            for r1 in range(len(descs)):
                for r2 in range(len(descs)):
                    s = sum(
                        sz * x * y.conjugate()
                        for sz, x, y in zip(sizes, numeric[r1], numeric[r2])
                    )
                    want = 8 * n if r1 == r2 else 0.0
                    assert abs(s - want) < 1e-10, (n, r1, r2)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"character fidelity took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 3. spectral identities
# --------------------------------------------------------------------------


def test_criterion_spectral_identities():
    with criterion("spectral-identities"):
        start = time.monotonic()
        for n in (1, 2, 3, 4):
            for conn in valid_sets(n):
                table = spectrum.eigenvalues(conn)
                mults = [ev.multiplicity for ev in table.eigenvalues]
                vals = [ev.value for ev in table.eigenvalues]
                size = len(conn)
                assert sum(mults) == 8 * n
                assert abs(sum(m * v for m, v in zip(mults, vals))) < 1e-7
                assert (
                    abs(sum(m * v * v for m, v in zip(mults, vals)) - 8 * n * size)
                    < 1e-6 * 8 * n * size
                )
                A = adjacency(conn)
                dense = np.sort(np.linalg.eigvalsh(A))
                mine = np.sort(np.concatenate([[v] * m for v, m in zip(vals, mults)]))
                assert np.max(np.abs(dense - mine)) < 1e-7
                basis = eigenvectors(conn)
                V = basis.matrix
                by_label = {ev.label: ev.value for ev in table.eigenvalues}
                lam = np.array([by_label[lab] for lab in basis.labels])
                assert np.max(np.abs(V.conj().T @ V - np.eye(8 * n))) < 1e-10
                assert np.max(np.abs(A @ V - V * lam[None, :])) < 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"spectral identities took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 4. projector algebra
# --------------------------------------------------------------------------


def test_criterion_projector_algebra():
    with criterion("projector-algebra"):
        start = time.monotonic()
        for n in (1, 2, 3):
            sets = valid_sets(n)
            conn0 = sets[0]
            projs = oracle.projectors(conn0)
            order = 8 * n
            mats = np.stack([pr.matrix for pr in projs])
            total = mats.sum(axis=0)
            assert np.max(np.abs(total - np.eye(order))) < 1e-8
            for i, M in enumerate(mats):
                prods = np.einsum("ij,sjk->sik", M, mats)
                assert np.max(np.abs(prods[i] - M)) < 1e-8  # idempotent
                prods[i] = 0
                assert np.max(np.abs(prods)) < 1e-8  # annihilates the others
            # printed closed forms against eigenvector outer products
            basis = eigenvectors(conn0)
            position: Counter = Counter()
            cols_by_label: dict[str, list[int]] = {}
            for i, lab in enumerate(basis.labels):
                cols_by_label.setdefault(lab, []).append(i)
            for pr in projs:
                col = cols_by_label[pr.eigenvalue_label][position[pr.eigenvalue_label]]
                position[pr.eigenvalue_label] += 1
                v = basis.matrix[:, col]
                assert np.max(np.abs(pr.matrix - np.outer(v, v.conj()))) < 1e-10
            for conn in sets:
                table = spectrum.eigenvalues(conn)
                sums = oracle.rep_projectors(conn)
                A = sum(ev.value * sums[ev.label] for ev in table.eigenvalues)
                assert np.max(np.abs(A - adjacency(conn))) < 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"projector algebra took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 5/6/7. decision vs oracle scan
# --------------------------------------------------------------------------


@dataclass
class ScanOutcome:
    graphs: int = 0
    pst_graphs: int = 0
    positive_pairs: int = 0
    negative_pairs: int = 0
    disagreements: list = field(default_factory=list)
    displacement_violations: list = field(default_factory=list)
    positive_classes: int = 0
    detached_excursions: list = field(default_factory=list)
    wide_wells: list = field(default_factory=list)
    widest_well_ratio: float = 0.0
    longest_well_steps: int = 0
    outside_well_peak: float = 0.0
    first_crossing_failures: list = field(default_factory=list)
    type_overlap_violations: list = field(default_factory=list)
    clauses: Counter = field(default_factory=Counter)
    elapsed: float = 0.0


ALLOWED_DISPLACEMENT = {
    "pst:odd-antipodal": lambda n, d: d == 4 * n,
    "pst:type3-antipodal": lambda n, d: d == 4 * n,
    "pst:type1-same-region": lambda n, d: d == n and n % 4 == 0,
    "pst:type2-same-region": lambda n, d: d == n and n % 4 == 2,
    "pst:type1-cross": lambda n, d: d in (3 * n, 5 * n) and n % 4 == 2,
    "pst:type2-cross": lambda n, d: d in (3 * n, 5 * n) and n % 4 == 0,
}


def _clause_regions_ok(params, clause: str, u: int, v: int) -> bool:
    ru, rv = region(params, u), region(params, v)
    if clause.endswith("same-region"):
        return ru == rv
    return {ru, rv} in ({1, 3}, {2, 4})


def _check_minimum_time(out: ScanOutcome, key: tuple, lam, V, w: int, tau_star: float):
    """Minimum-time checks on the |H(tau)_{w,0}| grid series of one positive
    ratio class; key = (n, class tags, first pair of the class)."""
    out.positive_classes += 1
    coeff = V[w, :] * np.conj(V[0, :])
    series = np.abs(np.exp(-1j * np.outer(GRID_TIMES, lam)) @ coeff)

    # weights p of the module docstring, one per eigh column (their sums over
    # a degenerate eigenspace are the real, non-negative p_lambda)
    p = np.exp(-1j * lam * tau_star) * coeff
    p /= p.sum()
    mean = np.real(p @ lam)
    var = np.real(p @ lam**2) - mean**2
    delta0 = math.sqrt(2 * NEGATIVE_TOL / var)

    # unbroken above-threshold run of grid points ending at the last grid
    # time <= pi/M; empty (start = end + 1) when that point is below
    above = series > 1 - NEGATIVE_TOL
    end = int(np.searchsorted(GRID_TIMES, tau_star + 1e-12)) - 1
    start = end + 1
    while start > 0 and above[start - 1]:
        start -= 1

    early = GRID_TIMES[:start] < tau_star - GRID_STEP
    detached = np.nonzero(above[:start] & early)[0]
    if len(detached):
        i = detached[0]
        out.detached_excursions.append((*key, float(GRID_TIMES[i]), float(series[i])))
    if start <= end:
        if GRID_TIMES[start] < tau_star - delta0 - GRID_STEP:
            out.wide_wells.append((*key, float(GRID_TIMES[start]), float(series[start])))
        out.widest_well_ratio = max(
            out.widest_well_ratio, (tau_star - GRID_TIMES[start]) / delta0
        )
        out.longest_well_steps = max(out.longest_well_steps, end - start)
    outside = GRID_TIMES < tau_star - delta0 - GRID_STEP
    if outside.any():
        out.outside_well_peak = max(out.outside_well_peak, float(series[outside].max()))

    crossing = np.nonzero(series > 1 - POSITIVE_TOL)[0]
    if not len(crossing):
        out.first_crossing_failures.append(("no-crossing", *key, float(series.max())))
    elif GRID_TIMES[crossing[0]] < tau_star - GRID_STEP - 1e-12:
        out.first_crossing_failures.append(
            ("early-crossing", *key, float(GRID_TIMES[crossing[0]]))
        )


def _scan_graph(out: ScanOutcome, conn, rng) -> None:
    """The decision/oracle checks on every vertex pair of one graph."""
    params = conn.params
    n = params.n
    order = params.order
    W = oracle.ratio_index_table(params)
    out.graphs += 1
    table = spectrum.eigenvalues(conn)
    A = adjacency(conn)
    lam, V = np.linalg.eigh(A)
    positives = pst.all_pst_pairs(table)
    pos_mask = np.zeros((order, order), dtype=bool)
    for verdict in positives:
        pos_mask[verdict.u, verdict.v] = pos_mask[verdict.v, verdict.u] = True
    upper = np.triu(np.ones((order, order), dtype=bool), 1)

    # translation-invariance spot check backing the per-w reduction
    for tau in rng.uniform(0.0, 2 * math.pi, size=2):
        Habs = np.abs(eigh_full_h(lam, V, float(tau)))
        assert np.max(np.abs(Habs - Habs[W, 0])) < 1e-10

    colmax = eigh_column_max(lam, V, GRID_TIMES)
    pairmax = colmax[W]

    if not table.all_integral:
        assert not positives
        bad = (pairmax >= 1 - NEGATIVE_TOL) & upper
        if bad.any():
            out.disagreements.append(("neg-grid", n, conn.class_tags, int(bad.sum())))
        out.negative_pairs += int(upper.sum())
        return

    if n % 2 == 0:
        types = pst.classify_graph_type(table)
        if sum(types) > 1:
            out.type_overlap_violations.append((n, conn.class_tags, types))

    M = pst.gap_gcd(table)
    tau_star = math.pi / M
    candidates = [tau_star * (1 + 2 * ell) for ell in range(8)]
    neg_mask = upper & ~pos_mask
    out.negative_pairs += int(neg_mask.sum())

    bad = (pairmax >= 1 - NEGATIVE_TOL) & neg_mask
    if bad.any():
        out.disagreements.append(("neg-grid", n, conn.class_tags, int(bad.sum())))
    for tau in candidates:
        Habs = np.abs(eigh_full_h(lam, V, tau))
        bad = (Habs >= 1 - NEGATIVE_TOL) & neg_mask
        if bad.any():
            out.disagreements.append(
                ("neg-candidate", n, conn.class_tags, tau, int(bad.sum()))
            )

    if positives:
        out.pst_graphs += 1
    # the minimum-time checks run once per positive ratio class: all
    # pairs of a class share |H(tau)| (invariance verified above)
    checked_classes: set[int] = set()
    for verdict in positives:
        out.positive_pairs += 1
        out.clauses[verdict.clause] += 1
        amp = eigh_entry_amplitude(lam, V, verdict.u, verdict.v, tau_star)
        if amp <= 1 - POSITIVE_TOL:
            out.disagreements.append(
                ("pos-at-min-time", n, conn.class_tags, (verdict.u, verdict.v), amp)
            )
        d = abs(verdict.u - verdict.v)
        ok = ALLOWED_DISPLACEMENT[verdict.clause](n, d) and _clause_regions_ok(
            params, verdict.clause, verdict.u, verdict.v
        )
        if not ok:
            out.displacement_violations.append(
                (n, conn.class_tags, verdict.clause, verdict.u, verdict.v)
            )
        w = W[verdict.u, verdict.v]
        if w not in checked_classes:
            checked_classes.add(w)
            key = (n, conn.class_tags, (verdict.u, verdict.v))
            _check_minimum_time(out, key, lam, V, w, tau_star)


@pytest.fixture(scope="module")
def scan() -> ScanOutcome:
    out = ScanOutcome()
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(n)
        for conn in valid_sets(n):
            _scan_graph(out, conn, rng)
    out.elapsed = time.monotonic() - start
    return out


def test_criterion_decision_oracle_agreement(scan):
    with criterion("decision-oracle-agreement"):
        assert scan.elapsed < 900.0, f"scan took {scan.elapsed:.0f}s"
        assert scan.graphs > 900 and scan.positive_pairs > 4000
        assert scan.type_overlap_violations == []
        assert scan.disagreements == [], scan.disagreements[:5]
        print(
            f"  scanned {scan.graphs} graphs, {scan.pst_graphs} with transfer, "
            f"{scan.positive_pairs} positive / {scan.negative_pairs} negative pairs "
            f"in {scan.elapsed:.0f}s",
            flush=True,
        )


def test_criterion_minimum_time_scan(scan):
    """No transfer before pi/M outside the continuity well.

    Every positive pair transfers at pi/M, and for every positive ratio class
    no grid time before pi/M - step reaches 1 - 1e-4 except in the unbroken
    run of grid points ending at pi/M, which starts no earlier than
    pi/M - delta0 - step, delta0 = sqrt(2e-4 / Var) (see module docstring).
    """
    with criterion("minimum-time-scan"):
        pos_at_min = [d for d in scan.disagreements if d[0] == "pos-at-min-time"]
        assert pos_at_min == []
        assert scan.detached_excursions == [], (
            f"{len(scan.detached_excursions)}/{scan.positive_classes} positive classes "
            f"reach 1 - 1e-4 at a grid time before pi/M - step, detached from the "
            f"run ending at pi/M; first (n, class tags, pair, tau, amplitude): "
            f"{scan.detached_excursions[0]}"
        )
        assert scan.wide_wells == [], (
            f"{len(scan.wide_wells)}/{scan.positive_classes} positive classes stay "
            f"above 1 - 1e-4 from before pi/M - delta0 - step up to pi/M; first "
            f"(n, class tags, pair, tau, amplitude): {scan.wide_wells[0]}"
        )
        print(
            f"  {scan.positive_classes} positive classes: widest well "
            f"{scan.widest_well_ratio:.4f} delta0, longest {scan.longest_well_steps} "
            f"grid steps, peak before pi/M - delta0 - step {scan.outside_well_peak:.5f}",
            flush=True,
        )


def test_minimum_time_first_crossing_companion(scan):
    """The amplitude of every positive ratio class reaches the 1 - 1e-6
    transfer threshold on the grid, first within one grid step of pi/M and
    never earlier."""
    with criterion("minimum-time-first-crossing"):
        assert scan.first_crossing_failures == [], scan.first_crossing_failures[:5]


def test_criterion_displacement_law(scan):
    with criterion("displacement-law"):
        assert scan.displacement_violations == [], scan.displacement_violations[:5]


# --------------------------------------------------------------------------
# the same checks past n = 4, on drawn sets
# --------------------------------------------------------------------------

# the transfer clauses each n admits (one displacement family for odd n,
# three for even n, keyed by n mod 4)
DRAWN_CLAUSES = {
    5: {"pst:odd-antipodal"},
    6: {"pst:type3-antipodal", "pst:type2-same-region", "pst:type1-cross"},
    7: {"pst:odd-antipodal"},
    8: {"pst:type3-antipodal", "pst:type1-same-region", "pst:type2-cross"},
}


def class_unions(params: GroupParams):
    """Drawn inverse-closed unions of non-identity classes that generate V_8n."""
    classes = [c for c in conjugacy_classes(params) if IDENTITY not in c.members]

    def union(picked) -> frozenset:
        members = frozenset().union(*(classes[i].members for i in picked))
        return members | {inverse(params, x) for x in members}

    return (
        st.sets(st.integers(0, len(classes) - 1), min_size=1)
        .map(union)
        .filter(lambda members: len(generated_subgroup(params, members)) == params.order)
        .map(lambda members: validate_connection_set(params, members))
    )


def transfer_sets(n: int) -> tuple:
    """The valid class-union sets of V_8n with transfer; the others are not kept."""
    params = GroupParams(n)
    memo = {}
    return tuple(
        conn
        for conn in enumerate_connection_sets(params, len(conjugacy_classes(params)))
        if pst.all_pst_pairs(spectrum.eigenvalues(conn, memo))
    )


@pytest.mark.parametrize("n", sorted(DRAWN_CLAUSES))
def test_eigh_agreement_on_drawn_sets_past_n4(n):
    """The scan's checks on 25 drawn class unions and 10 drawn sets with
    transfer per n: most unions are not integral, so the second draw is
    what reaches the positive pairs, and it must meet every clause n admits."""
    out = ScanOutcome()

    def check(conn) -> None:
        graph = ScanOutcome()
        _scan_graph(graph, conn, np.random.default_rng(conn.class_indices))
        assert graph.disagreements == [], graph.disagreements[:5]
        assert graph.type_overlap_violations == []
        assert graph.displacement_violations == []
        assert graph.detached_excursions == [] and graph.wide_wells == []
        assert graph.first_crossing_failures == []
        out.graphs += 1
        out.clauses += graph.clauses

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(class_unions(GroupParams(n)))
    def drawn_unions(conn):
        check(conn)

    @settings(derandomize=True, max_examples=10, deadline=None, database=None)
    @given(st.sampled_from(transfer_sets(n)))
    def drawn_transfer_sets(conn):
        check(conn)

    drawn_unions()
    drawn_transfer_sets()
    assert out.graphs >= 35
    assert set(out.clauses) == DRAWN_CLAUSES[n], out.clauses


# --------------------------------------------------------------------------
# 8. transition-matrix independence
# --------------------------------------------------------------------------


def test_criterion_transition_independence():
    with criterion("transition-independence"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 4):
            sets = valid_sets(n)
            for _ in range(20):
                conn = sets[rng.integers(len(sets))]
                tau = float(rng.uniform(0.0, 2 * math.pi))
                H_spectral = oracle.transition(conn, tau).H
                H_taylor = transition_expm(conn, tau)
                assert np.max(np.abs(H_spectral - H_taylor)) < 1e-7
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"transition independence took {elapsed:.1f}s"
