"""2-adic valuations, graph types, and the transfer decision procedure."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v8npst.group import (
    IDENTITY,
    GroupParams,
    all_elements,
    element,
    enumerate_connection_sets,
    validate_connection_set,
)
from v8npst import pst
from v8npst.pst import (
    INF,
    DegenerateSpectrum,
    NotIntegral,
    SameVertex,
    TypeClassification,
    WrongParity,
    all_pst_pairs,
    classify_graph_type,
    classify_pair,
    gap_gcd,
    nu2,
)
from v8npst.spectrum import Eigenvalue, SpectrumTable, eigenvalues
from v8npst.oracle import pair_amplitudes

from conftest import valid_sets
import pst_reference


@lru_cache(maxsize=None)
def full_set(n):
    p = GroupParams(n)
    return validate_connection_set(p, [x for x in all_elements(p) if x != IDENTITY])


def cp_set(n):
    """Everything except the central involution b^2: the cocktail-party graph."""
    p = GroupParams(n)
    skip = {IDENTITY, element(p, 0, 2)}
    return validate_connection_set(p, [x for x in all_elements(p) if x not in skip])


# -- nu2 --------------------------------------------------------------------

def test_nu2_basics():
    assert nu2(0) == INF
    assert nu2(12) == 2
    assert nu2(-8) == 3
    assert nu2(1) == 0
    assert nu2(-1) == 0


def test_nu2_product_rule_random(rng):
    xs = rng.integers(-10**6, 10**6, size=10000)
    ys = rng.integers(-10**6, 10**6, size=10000)
    for x, y in zip(xs, ys):
        x, y = int(x), int(y)
        assert nu2(x * y) == nu2(x) + nu2(y)


def test_nu2_sum_rule_random(rng):
    xs = rng.integers(-10**6, 10**6, size=10000)
    ys = rng.integers(-10**6, 10**6, size=10000)
    for x, y in zip(xs, ys):
        x, y = int(x), int(y)
        lhs = nu2(x + y)
        lo = min(nu2(x), nu2(y))
        assert lhs >= lo
        if nu2(x) != nu2(y):
            assert lhs == lo


# -- gap gcd ----------------------------------------------------------------

def _table_with_values(base, values):
    evs = []
    for ev, v in zip(base.eigenvalues, values):
        evs.append(
            Eigenvalue(
                label=ev.label,
                kind=ev.kind,
                index=ev.index,
                multiplicity=ev.multiplicity,
                value=float(v) if v is not None else 2.5,
                is_integer=v is not None,
                integer_value=v,
            )
        )
    return SpectrumTable(
        connection=base.connection,
        eigenvalues=lambda: tuple(evs),
        all_integral=all(v is not None for v in values),
    )


def test_gap_gcd_simple_arithmetic():
    base = eigenvalues(full_set(1))
    synthetic = _table_with_values(base, [12, 8, 4, 0, 8])  # gaps {4, 8, 12}
    assert gap_gcd(synthetic) == 4


def test_gap_gcd_k8():
    assert gap_gcd(eigenvalues(full_set(1))) == 8


def test_gap_gcd_requires_integrality():
    base = eigenvalues(full_set(1))
    synthetic = _table_with_values(base, [7, -1, None, -1, -1])
    with pytest.raises(NotIntegral):
        gap_gcd(synthetic)


def test_gap_gcd_degenerate():
    base = eigenvalues(full_set(1))
    synthetic = _table_with_values(base, [3, 3, 3, 3, 3])
    with pytest.raises(DegenerateSpectrum):
        gap_gcd(synthetic)


def test_gap_gcd_four_element_set_n1():
    # S = {a, ab^2} u {b, b^3}: spectrum {4, 0, 0, -4, 0}, gaps {4, 8}, M = 4;
    # the graph is integral but transfer fails (alpha gaps share the beta
    # valuation), and the oracle scan confirms no amplitude ever nears 1.
    p = GroupParams(1)
    conn = validate_connection_set(
        p, [element(p, 1, 0), element(p, 1, 2), element(p, 0, 1), element(p, 0, 3)]
    )
    table = eigenvalues(conn)
    assert gap_gcd(table) == 4
    assert all_pst_pairs(table) == ()
    times = np.arange(1, 2001) * (2 * np.pi / 2000)
    for v in range(1, 8):
        assert pair_amplitudes(conn, 0, v, times, table).max() < 1 - 1e-4


def test_gcd_divides_every_gap():
    for conn in valid_sets(2):
        table = eigenvalues(conn)
        M = gap_gcd(table)
        a1 = table.alpha(1).integer_value
        for ev in table.eigenvalues[1:]:
            assert (a1 - ev.integer_value) % M == 0


# -- pair classification, odd n ---------------------------------------------

def test_same_vertex_rejected():
    table = eigenvalues(full_set(1))
    with pytest.raises(SameVertex):
        classify_pair(table, 3, 3)


def test_parity_dispatch_guards():
    odd_table = eigenvalues(full_set(1))
    with pytest.raises(WrongParity):
        classify_graph_type(odd_table)


def test_odd_blocked_regions_clause():
    table = eigenvalues(full_set(1))
    verdict = classify_pair(table, 0, 1)  # both vertices in V1
    assert not verdict.has_pst
    assert verdict.clause == "no-pst:region-block:V1V2"
    assert classify_pair(table, 2, 5).clause == "no-pst:region-block:V2V3"


def test_odd_wrong_displacement_clause():
    # n=3: V1 <-> V3 pair with u - v = 3n is not antipodal
    table = eigenvalues(full_set(3))
    verdict = classify_pair(table, 14, 5)  # 14 in V3, 5 in V1, diff 9 = 3n
    assert not verdict.has_pst and verdict.clause == "no-pst:displacement"


def test_odd_transfer_on_cocktail_party_graph():
    """n=1 without b^2: transfer between every antipodal pair at pi/2."""
    conn = cp_set(1)
    table = eigenvalues(conn)
    verdicts = all_pst_pairs(table)
    assert [(v.u, v.v) for v in verdicts] == [(0, 4), (1, 5), (2, 6), (3, 7)]
    for v in verdicts:
        assert v.clause == "pst:odd-antipodal"
        assert v.M == 2 and abs(v.min_time - math.pi / 2) < 1e-15
        amp = pair_amplitudes(conn, v.u, v.v, [v.min_time], table)[0]
        assert amp > 1 - 1e-12


def test_k8_has_no_transfer():
    table = eigenvalues(full_set(1))
    assert all_pst_pairs(table) == ()
    # valuation is what fails for the antipodal pair: gaps are all 8
    verdict = classify_pair(table, 0, 4)
    assert verdict.clause == "no-pst:valuation"


@pytest.mark.parametrize("n", [1, 3])
def test_odd_verdicts_match_oracle(n):
    from v8npst.oracle import grid_amplitude_maxima, ratio_index_table

    W = ratio_index_table(GroupParams(n))
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        positives = {(v.u, v.v) for v in all_pst_pairs(table)}
        best = grid_amplitude_maxima(conn, 2000, table)
        order = 8 * n
        for u in range(order):
            for v in range(u + 1, order):
                if (u, v) in positives:
                    verdict = classify_pair(table, u, v)
                    at_min = pair_amplitudes(conn, u, v, [verdict.min_time], table)[0]
                    assert at_min > 1 - 1e-6
                else:
                    assert best[W[u, v]] < 1 - 1e-4


# -- graph types and even n --------------------------------------------------

def test_types_all_false_when_not_integral():
    base = eigenvalues(full_set(2))
    values = [ev.integer_value for ev in base.eigenvalues]
    values[3] = None
    synthetic = _table_with_values(base, values)
    assert classify_graph_type(synthetic) == (False, False, False)


def test_odd_pattern_false_when_not_integral():
    base = eigenvalues(full_set(3))
    values = [ev.integer_value for ev in base.eigenvalues]
    values[5] = None
    synthetic = _table_with_values(base, values)
    assert pst._odd_valuation_pattern(synthetic) is False
    assert pst.decide_graph(synthetic).antipodal == pst.NON_INTEGRAL


def test_type1_synthetic_pattern():
    # n=2: beta_1 and gamma_1 gaps have valuation 1, all alpha gaps higher
    base = eigenvalues(full_set(2))
    labels = [ev.label for ev in base.eigenvalues]
    values = []
    for lab in labels:
        if lab == "alpha_1":
            values.append(10)
        elif lab.startswith("alpha"):
            values.append(10 - 4)  # nu2 = 2
        else:
            values.append(10 - 2)  # beta_1, gamma_1: nu2 = 1
    synthetic = _table_with_values(base, values)
    types = classify_graph_type(synthetic)
    assert types == (True, False, False)


def test_type1_requires_even_beta_gaps_strictly_greater():
    # n=4 with ALL beta gaps at the baseline fails Type 1 (beta_2 must exceed it)
    base = eigenvalues(full_set(4))
    values = []
    for ev in base.eigenvalues:
        if ev.label == "alpha_1":
            values.append(20)
        elif ev.kind == "alpha":
            values.append(20 - 8)
        elif ev.kind == "beta":
            values.append(20 - 2)
        else:  # gamma: odd index baseline, even index higher
            values.append(20 - 2 if ev.index % 2 == 1 else 20 - 8)
    synthetic = _table_with_values(base, values)
    assert classify_graph_type(synthetic).type1 is False


def test_even_blocked_regions_clause():
    table = eigenvalues(full_set(2))
    verdict = classify_pair(table, 0, 4)  # V1 x V2 for n=2
    assert not verdict.has_pst
    assert verdict.clause == "no-pst:region-block:V1V2"


def test_even_same_region_needs_displacement_n():
    table = eigenvalues(cp_set(2))
    assert classify_pair(table, 0, 1).clause == "no-pst:displacement"


def test_even_type3_cocktail_party():
    conn = cp_set(2)
    table = eigenvalues(conn)
    types = classify_graph_type(table)
    assert types.type3 and not types.type1 and not types.type2
    verdicts = all_pst_pairs(table)
    assert len(verdicts) == 8  # every g paired with b^2 g
    for v in verdicts:
        assert v.clause == "pst:type3-antipodal"
        assert v.v - v.u == 8  # 4n with n=2
        assert v.M == 2
        amp = pair_amplitudes(conn, v.u, v.v, [v.min_time], table)[0]
        assert amp > 1 - 1e-12


def test_even_clause_type_consistency_exhaustive_n2():
    """Fired clauses must agree with the independently computed type flags."""
    for conn in valid_sets(2):
        table = eigenvalues(conn)
        types = classify_graph_type(table)
        for v in all_pst_pairs(table):
            if v.clause == "pst:type3-antipodal":
                assert types.type3 and abs(v.u - v.v) == 8
            elif v.clause == "pst:type2-same-region":
                assert types.type2 and abs(v.u - v.v) == 2
            elif v.clause == "pst:type1-cross":
                assert types.type1 and abs(v.u - v.v) in (6, 10)
            else:
                pytest.fail(f"unexpected clause for n=2: {v.clause}")


def test_positive_pairs_share_min_time():
    for conn in valid_sets(2):
        table = eigenvalues(conn)
        verdicts = all_pst_pairs(table)
        times = {v.min_time for v in verdicts}
        assert len(times) <= 1


@pytest.mark.parametrize("n", [1, 2])
def test_displacement_law(n):
    allowed = {4 * n} if n % 2 else {n, 3 * n, 4 * n, 5 * n}
    for conn in valid_sets(n):
        for v in all_pst_pairs(eigenvalues(conn)):
            assert abs(v.u - v.v) in allowed


def test_verdict_symmetry():
    table = eigenvalues(cp_set(2))
    for u, v in ((0, 8), (3, 11), (2, 5)):
        a = classify_pair(table, u, v)
        b = classify_pair(table, v, u)
        assert a.has_pst == b.has_pst and a.clause == b.clause


# -- per-graph decision against the per-pair reference -----------------------


@lru_cache(maxsize=None)
def spectra(n):
    return tuple(eigenvalues(conn) for conn in valid_sets(n))


def assert_matches_reference(table, ordered_pairs=True):
    """all_pst_pairs, and optionally classify_pair on every ordered pair,
    equal the per-pair reference (u, v, clause, M and min_time included)."""
    assert all_pst_pairs(table) == pst_reference.reference_pairs(table)
    if not ordered_pairs:
        return
    order = table.params.order
    for u in range(order):
        for v in range(order):
            if u != v:
                assert classify_pair(table, u, v) == pst_reference.classify_pair(table, u, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_pst_pairs_match_reference_every_set(n):
    for table in spectra(n):
        assert_matches_reference(table, ordered_pairs=False)


def decision_inputs(table):
    """What the reference reads from a table besides the pair: integrality,
    the valuation pattern (odd n) or Type flags (even n), and M."""
    if not table.all_integral:
        return (False,)
    if table.params.is_odd:
        shape = pst._odd_valuation_pattern(table)
    else:
        shape = classify_graph_type(table)
    return (True, shape, gap_gcd(table))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_pair_matches_reference_every_ordered_pair(n):
    # Pair verdicts depend on the table only through decision_inputs, so one
    # graph per distinct value covers every clause the reference can give.
    representatives = {}
    for table in spectra(n):
        representatives.setdefault(decision_inputs(table), table)
    for table in representatives.values():
        assert_matches_reference(table)


# Gaps of 2 (nu2 = 1) for the (kind, index parity) groups a Type pattern
# holds at its baseline, gaps of 4 (nu2 = 2) for every other gap.
TYPE_BASELINE_GROUPS = {
    "type1": {("beta", 1), ("gamma", 1)},
    "type2": {("alpha", 0), ("beta", 1), ("gamma", 0)},
    "type3": {("alpha", 0), ("gamma", 0), ("gamma", 1)},
}


def typed_table(n, type_name):
    base = eigenvalues(full_set(n))
    groups = TYPE_BASELINE_GROUPS[type_name]
    values = [
        20 if ev.label == "alpha_1" else 20 - (2 if (ev.kind, ev.index % 2) in groups else 4)
        for ev in base.eigenvalues
    ]
    return _table_with_values(base, values)


# (n, type) -> clause of the one family it makes positive
SYNTHETIC_CLAUSES = {
    (6, "type1"): "pst:type1-cross",
    (6, "type2"): "pst:type2-same-region",
    (6, "type3"): "pst:type3-antipodal",
    (8, "type1"): "pst:type1-same-region",
    (8, "type2"): "pst:type2-cross",
    (8, "type3"): "pst:type3-antipodal",
}


@pytest.mark.parametrize("n, type_name", sorted(SYNTHETIC_CLAUSES))
def test_synthetic_single_type_matches_reference(n, type_name):
    table = typed_table(n, type_name)
    flags = classify_graph_type(table)
    assert [name for name, on in flags._asdict().items() if on] == [type_name]
    verdicts = all_pst_pairs(table)
    assert len(verdicts) == 4 * n
    assert {v.clause for v in verdicts} == {SYNTHETIC_CLAUSES[n, type_name]}
    assert {v.M for v in verdicts} == {2}
    assert_matches_reference(table)


@pytest.mark.parametrize("n", [6, 8])
def test_synthetic_all_types_matches_reference(n, monkeypatch):
    # The three Types name different sets of least gaps, and a spectrum has
    # only one, so no real table holds two of them; the flags are forced for
    # the decision and the reference alike.
    monkeypatch.setattr(pst, "classify_graph_type", lambda table: TypeClassification(True, True, True))
    table = typed_table(n, "type1")
    verdicts = all_pst_pairs(table)
    assert len(verdicts) == 12 * n
    assert {v.clause for v in verdicts} == {SYNTHETIC_CLAUSES[n, t] for t in ("type1", "type2", "type3")}
    assert_matches_reference(table)


@pytest.mark.parametrize("n", [6, 8])
def test_synthetic_negative_tables_match_reference(n):
    base = eigenvalues(full_set(n))
    no_type = _table_with_values(base, [20] + [16] * (len(base.eigenvalues) - 1))
    non_integral = _table_with_values(base, [20] + [None] * (len(base.eigenvalues) - 1))
    for table in (no_type, non_integral):
        assert classify_graph_type(table) == (False, False, False)
        assert all_pst_pairs(table) == ()
        assert_matches_reference(table)


# -- valuation patterns against the reference ---------------------------------


def pattern_flags(table, odd_pattern, graph_type):
    """The odd-n pattern (integral tables only) or the even-n Type flags."""
    if not table.params.is_odd:
        return graph_type(table)
    return odd_pattern(table) if table.all_integral else None


def assert_patterns_match_reference(table):
    got = pattern_flags(table, pst._odd_valuation_pattern, classify_graph_type)
    want = pattern_flags(
        table, pst_reference.reference_odd_pattern, pst_reference.reference_graph_type
    )
    assert got == want
    if not table.params.is_odd:
        assert sum(got) <= 1


@pytest.mark.parametrize("n, max_classes", [(n, None) for n in range(1, 6)] + [(6, 4), (7, 4), (8, 4)])
def test_valuation_patterns_match_reference_every_set(n, max_classes):
    if max_classes is None:  # every valid set
        tables = spectra(n)
    else:
        tables = [eigenvalues(c) for c in enumerate_connection_sets(GroupParams(n), max_classes)]
    for table in tables:
        assert_patterns_match_reference(table)


# The (kind, index % 2) sets the patterns name, by parity of n, so that
# draws hit every pattern as well as arbitrary sets of groups.
NAMED_LEAST_SETS = {
    1: (frozenset({("beta", 0), ("beta", 1)}),),
    0: tuple(map(frozenset, TYPE_BASELINE_GROUPS.values())),
}


@st.composite
def valuation_spectra(draw, n):
    """An integral spectrum on the real labels of n: one set of groups holds
    its gaps at one valuation, every other gap is above it or zero, and now
    and then one value is moved by +-1."""
    base = eigenvalues(full_set(n))
    groups = sorted({(ev.kind, ev.index % 2) for ev in base.eigenvalues})
    least = draw(
        st.sampled_from(NAMED_LEAST_SETS[n % 2]) | st.frozensets(st.sampled_from(groups))
    )
    low = draw(st.integers(0, 3))
    alpha1 = draw(st.integers(-40, 40))
    size = len(base.eigenvalues)
    # one draw per gap: an odd factor in -11..9 and a rise of 0, 1 or 2
    codes = draw(st.lists(st.integers(0, 32), min_size=size, max_size=size))
    values = []
    for ev, code in zip(base.eigenvalues, codes):
        half, rise = divmod(code, 3)
        odd = 2 * half - 11
        if ev.label == "alpha_1":
            gap = 0
        elif (ev.kind, ev.index % 2) in least:
            gap = odd << low
        else:  # zero, or one or two above the least valuation
            gap = rise and odd << (low + rise)
        values.append(alpha1 - gap)
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, size - 1))] += draw(st.sampled_from((-1, 1)))
    return _table_with_values(base, values)


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_valuation_patterns_match_reference_drawn(n, data):
    assert_patterns_match_reference(data.draw(valuation_spectra(n)))
