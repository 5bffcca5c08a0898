"""Eigenvalues, eigenvectors and integrality decisions."""

import json
from collections import Counter

import numpy as np
import pytest

from v8npst import cli, spectrum
from v8npst.cyclotomic import CycloInt, reduced_powers
from v8npst.group import (
    ConnectionSet,
    GroupParams,
    NotGenerating,
    class_index_map,
    class_masks,
    conjugacy_classes,
    element,
    enumerate_connection_sets,
    validate_connection_set,
)
from v8npst.spectrum import eigenvalues

import spectrum_reference
from conftest import full_set, valid_sets
from oracle_reference import adjacency
from spectrum_reference import eigenvectors, rows


def test_k8_spectrum():
    table = eigenvalues(full_set(1))
    multiset = sorted(
        v for ev in rows(table) for v in [ev.integer_value] * ev.multiplicity
    )
    assert multiset == [-1] * 7 + [7]
    assert table.all_integral


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha1_is_degree(n):
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        first = rows(table)[0]
        assert (first.label, first.integer_value) == ("alpha_1", len(conn))
        if table.all_integral:
            assert table.integers[0] == len(conn)


def test_disconnected_set_matches_dense_solver():
    # {a, a b^2} for n=1 is a valid normal symmetric set that does not
    # generate; its two-component graph still has a well-defined spectrum.
    p = GroupParams(1)
    members = frozenset({element(p, 1, 0), element(p, 1, 2)})
    with pytest.raises(NotGenerating):
        validate_connection_set(p, members)
    cmap = class_index_map(p)
    conn = ConnectionSet(p, members, tuple(sorted({cmap[x] for x in members})))
    table = eigenvalues(conn)
    mine = sorted(
        v for ev in rows(table) for v in [ev.value] * ev.multiplicity
    )
    dense = sorted(np.linalg.eigvalsh(adjacency(conn)))
    assert np.allclose(mine, dense, atol=1e-7)
    assert table.all_integral  # omega = -1 for n=1, every value is integral


@pytest.mark.parametrize("n", [1, 2])
def test_eigenvalue_multiset_matches_eigh(n):
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        mine = np.sort(
            np.concatenate(
                [[ev.value] * ev.multiplicity for ev in rows(table)]
            )
        )
        dense = np.sort(np.linalg.eigvalsh(adjacency(conn)))
        assert np.max(np.abs(mine - dense)) < 1e-7


def test_u1_is_normalised_all_ones():
    conn = full_set(2)
    E = eigenvectors(conn)
    u1 = E.matrix[:, 0]
    assert E.labels[0] == "alpha_1"
    assert np.allclose(u1, np.full(16, 1 / 4.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigenvector_norms(n):
    conn = valid_sets(n)[0]
    V = eigenvectors(conn).matrix
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_eigenbasis_diagonalises_every_set(n):
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        E = eigenvectors(conn)
        V = E.matrix
        by_label = {ev.label: ev.value for ev in rows(table)}
        lam = np.array([by_label[lab] for lab in E.labels])
        A = adjacency(conn)
        assert np.max(np.abs(V.conj().T @ V - np.eye(8 * n))) < 1e-10
        assert np.max(np.abs(A @ V - V * lam[None, :])) < 1e-8


def test_full_set_even_eigenvector_pairing():
    conn = full_set(2)
    table = eigenvalues(conn)
    E = eigenvectors(conn)
    A = adjacency(conn)
    beta1 = table.values[spectrum.rep_labels(GroupParams(2)).index("beta_1")]
    cols = [i for i, lab in enumerate(E.labels) if lab == "beta_1"]
    assert len(cols) == 4
    for c in cols:
        v = E.matrix[:, c]
        assert np.max(np.abs(A @ v - beta1 * v)) < 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_and_second_moment(n):
    # every set up to n = 5, sets of at most 3 classes beyond, as in the class
    # map test below; no runtime check guards these identities per graph
    for conn in enumerate_connection_sets(GroupParams(n), 3 if n >= 6 else 99):
        table = eigenvalues(conn)
        mults = [ev.multiplicity for ev in rows(table)]
        vals = table.values.tolist()
        assert sum(mults) == 8 * n
        assert abs(sum(m * v for m, v in zip(mults, vals))) < 1e-7
        assert abs(
            sum(m * v * v for m, v in zip(mults, vals)) - 8 * n * len(conn)
        ) < 1e-6 * 8 * n * len(conn)
        if table.all_integral:
            ints = table.integers
            assert sum(m * k for m, k in zip(mults, ints)) == 0
            assert sum(m * k * k for m, k in zip(mults, ints)) == 8 * n * len(conn)


@pytest.mark.parametrize(
    "n,max_classes", [(n, 99) for n in range(1, 6)] + [(6, 3), (7, 3), (8, 3)]
)
def test_class_map_matches_cyclotomic_reference(n, max_classes):
    """Summing the per-n class map gives the per-set CycloInt computation's
    eigenvalues, floats compared bit for bit through repr, and the float
    vector `values` the oracle reads is the reference's values bit for bit.
    `values` sums only the nonzero products of a row, so each sweep must
    hold a row with none, which has to come out as +0.0.  An integral
    table's `integers` are the reference's exact integers; a non-integral
    table has none."""
    zero_rows = 0
    for conn in enumerate_connection_sets(GroupParams(n), max_classes):
        want = spectrum_reference.eigenvalues(conn)
        got = eigenvalues(conn)
        assert [x.hex() for x in got.values.tolist()] == [ev.value.hex() for ev in want]
        assert repr(rows(got)) == repr(want)
        assert got.all_integral == all(ev.is_integer for ev in want)
        if got.all_integral:
            assert got.integers == tuple(ev.integer_value for ev in want)
            assert all(type(k) is int for k in got.integers)
        else:
            with pytest.raises(ValueError):
                got.integers
        zero_rows += np.count_nonzero(~got._sums[:, : 4 * n].any(axis=1))
    assert zero_rows


def _near_zero_irrational():
    """(sqrt2 - 1)^21 = -54608393 + 38613965 sqrt2, about 3.7e-9, in Z[zeta_8]."""
    z = [CycloInt.root(8, e) for e in range(8)]
    return CycloInt.integer(8, -54608393) + 38613965 * (z[1] + z[7])


def _patch_entry(monkeypatch, p, extra, row_index=1, tag="b^2"):
    """Add `extra` to one row's entry at a one-element class (default {b^2});
    returns that class's index."""
    idx = next(i for i, c in enumerate(conjugacy_classes(p)) if c.tag == tag)
    assert len(conjugacy_classes(p)[idx]) == 1
    chars = spectrum.character_table(p)
    old = chars[row_index]
    row = old[:idx] + (old[idx] + extra,) + old[idx + 1 :]
    monkeypatch.setattr(
        spectrum,
        "character_table",
        lambda params: chars[:row_index] + (row,) + chars[row_index + 1 :],
    )
    return idx


# Each adds one entry to the n = 2 character table, so that one check fails
# and those before it pass: (row, class tag, added entry, message part, a
# command line that reaches the check, S being every class but the identity's)
TABLE_BREAKS = {
    # + i at {b^2}: a numerator that is not real
    "non-real": (1, "b^2", CycloInt.root(8, 2), "not real", "probe --n 2 --set S --u 0 --v 8"),
    # the trivial character is 1 everywhere; 2 at {b^2} makes alpha_1 = |S| + 1
    "alpha_1": (0, "b^2", CycloInt.integer(8, 1), "alpha_1 must equal", "search --n 2"),
    # psi_1 (degree 2) at the identity: real and theta_1 intact, chi(1) = 3
    "degree": (8, "1", CycloInt.integer(8, 1), "identity column", "analyze --n 2 --set S"),
    # real, theta_1 and chi(1) intact; far inside any float band
    "orthogonality": (
        1, "b^2", _near_zero_irrational(), "column orthogonality", "analyze --n 2 --set S --verify"
    ),
}


@pytest.mark.parametrize("name", ["alpha_1", "degree", "orthogonality"])
def test_broken_spectral_identity_raises(fresh_class_map, name):
    """Each table check rejects a table that passes the checks before it."""
    row_index, tag, extra, match, _ = TABLE_BREAKS[name]
    _patch_entry(fresh_class_map, GroupParams(2), extra, row_index, tag)
    with pytest.raises(RuntimeError, match=match):
        eigenvalues(full_set(2))


def test_one_unit_change_breaks_orthogonality_at_n8(fresh_class_map):
    """+1 on one coefficient of theta_2 at {b^2}: still real, theta_1 and the
    degrees intact, so only the float64 orthogonality check can reject it."""
    _patch_entry(fresh_class_map, GroupParams(8), CycloInt.integer(32, 1))
    with pytest.raises(spectrum.CharacterTableError, match="column orthogonality"):
        eigenvalues(full_set(8))


def _integer_gram(unreduced: np.ndarray) -> np.ndarray:
    """(classes, classes, m): entry [c, d, k] is coefficient k of
    sum_rho |c| chi_rho(c) conj(|d| chi_rho(d)), in int64, from the nonzero
    coefficients alone (an entry has a few): each pair of them with
    exponents e at c and e' at d adds its product at k = e - e' mod m."""
    classes, m = unreduced.shape[1:]
    gram = np.zeros((classes, classes, m), dtype=np.int64)
    for row in unreduced:
        c, e = row.nonzero()
        v = row[c, e]
        np.add.at(
            gram, (c[:, None], c[None, :], (e[:, None] - e[None, :]) % m), v[:, None] * v[None, :]
        )
    return gram


@pytest.mark.parametrize("n", [*range(1, 13), 16, 24, cli.MAX_GRAPH_N])
def test_float_gram_equals_integer_gram(n):
    """The orthogonality check's float64 Gram equals the int64 one entry for
    entry: every term and partial sum is an integer far below 2^53."""
    m = 4 * n
    unreduced = spectrum._class_map(GroupParams(n)).stacked[:, :, :m].transpose(1, 0, 2)
    conj = unreduced[:, :, -np.arange(m) % m].astype(float)
    exact = _integer_gram(unreduced)
    for c in range(unreduced.shape[1]):
        assert np.array_equal(spectrum._class_gram(conj, unreduced[:, c].astype(float)), exact[c])


def test_near_integer_irrational_is_not_integral(fresh_class_map):
    # eps = (sqrt2 - 1)^21 added to one eigenvalue's numerator stays far
    # inside any float tolerance of the true integer, yet the eigenvalue is
    # irrational.  It is exactly real, but its float value has an imaginary
    # residue that a float realness test would reject.
    eps = _near_zero_irrational()
    assert 0 < eps.value().real < 1e-8 and abs(eps.value().imag) > 1e-10
    p = GroupParams(2)
    conn = full_set(2)
    # in the character table, eps breaks column orthogonality exactly
    b2 = _patch_entry(fresh_class_map, p, eps)
    assert b2 in conn.class_indices
    with pytest.raises(RuntimeError, match="column orthogonality"):
        eigenvalues(conn)
    fresh_class_map.undo()
    # in the built map's rows it reaches the integrality decision
    plain = eigenvalues(conn)
    cmap = spectrum._class_map(p)
    stacked = cmap.stacked.copy()
    stacked[b2, 1] += np.concatenate([eps.c, np.array(eps.c) @ np.array(reduced_powers(8))])
    fresh_class_map.setattr(spectrum, "_class_map", lambda params: cmap._replace(stacked=stacked))
    table = eigenvalues(conn)
    assert abs(table.values[1] - plain.values[1]) < 1e-8
    assert table.integer_values[1] is None
    # S is a union of rational classes, so the criterion calls it integral;
    # the exact check of the vector of b^2's rational class, made as a map
    # is built, catches it
    assert table.all_integral
    with pytest.raises(spectrum.IntegralityMismatch):
        spectrum._rational_integers(p, stacked, cmap.degrees)


def assert_internal_error(capsys, argv, code, match):
    """`argv` prints exactly one error document, of `code`, and exits 6."""
    exit_code = cli.main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out)  # a second document or a partial report fails to parse
    assert out == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == ["error"] and doc["error"]["code"] == code
    assert match in doc["error"]["message"]
    assert exit_code == cli.EXIT_INTERNAL == 6


@pytest.mark.parametrize("name", TABLE_BREAKS)
def test_broken_table_prints_an_internal_error(capsys, fresh_class_map, name):
    """Each raise of the table check, reached from the command line."""
    row_index, tag, extra, match, command = TABLE_BREAKS[name]
    _patch_entry(fresh_class_map, GroupParams(2), extra, row_index, tag)
    spec = "+".join(full_set(2).class_tags)
    argv = [spec if word == "S" else word for word in command.split()]
    code = "NonRealEigenvalue" if name == "non-real" else "CharacterTableError"
    assert_internal_error(capsys, argv, code, match)


def test_broken_rational_class_vector_prints_an_internal_error(capsys, fresh_class_map):
    """The map's last check, reached from each command: with the rational
    class {b, a^2*b} of n = 4 split into its two conjugacy classes, a class
    alone has a non-integral eigenvalue, and the map's build raises, also
    for a set that is not integral itself (analyze and probe below)."""
    params = GroupParams(4)
    masks = class_masks(params)
    merged = next(bits for bits in masks.rational if bits & (bits - 1))
    split = [bits for bits in masks.rational if bits != merged]
    split += [1 << i for i in range(merged.bit_length()) if merged >> i & 1]
    wrong = masks._replace(rational=tuple(split))
    fresh_class_map.setattr(
        spectrum, "class_masks", lambda p: wrong if p == params else class_masks(p)
    )
    spec = "a*b+a+a^7"
    for command in (f"analyze --n 4 --set {spec}", f"probe --n 4 --set {spec} --u 0 --v 1", "search --n 4"):
        assert_internal_error(capsys, command.split(), "IntegralityMismatch", "rationality criterion")


def test_non_real_numerator_raises(fresh_class_map):
    conn = full_set(2)
    _patch_entry(fresh_class_map, GroupParams(2), CycloInt.root(8, 2))  # + i
    with pytest.raises(spectrum.NonRealEigenvalue, match="not real"):
        eigenvalues(conn)


@pytest.mark.parametrize("n,expected", [(1, (0,)), (3, (0, 1, 2)), (2, (1,)), (4, (1, 2, 3))])
def test_beta_index_ranges(n, expected):
    table = eigenvalues(valid_sets(n)[0])
    beta = tuple(ev.index for ev in rows(table) if ev.kind == "beta")
    gamma = tuple(ev.index for ev in rows(table) if ev.kind == "gamma")
    assert beta == expected
    assert gamma == tuple(range(1, n))


def test_nonintegral_example_exists_at_n4():
    tables = [eigenvalues(c) for c in valid_sets(4)]
    assert any(not t.all_integral for t in tables)
    bad = next(t for t in tables if not t.all_integral)
    assert None in bad.integer_values


def _non_integral_set(n):
    return next(c for c in valid_sets(n) if not eigenvalues(c).all_integral)


def test_reading_all_integral_builds_neither_values_nor_the_tuple():
    """Integrality is decided on the class bits; `values` is built on its
    first read, once."""
    conn = _non_integral_set(4)
    table = eigenvalues(conn)
    assert not table.all_integral
    assert vars(table).keys().isdisjoint({"_sums", "values"})
    values = table.values
    assert not values.flags.writeable
    assert table.values is values


@pytest.mark.parametrize("n", range(1, 9))
def test_rational_criterion_matches_the_summed_rows(n):
    """On every set with n <= 8, `all_integral`, decided on the rational
    classes alone, is the exact integrality of the summed reduced rows:
    each is an integer k with d | k.  On an integral set, `integers`, the
    sum of the per-n vectors of its rational classes, is k / d."""
    params = GroupParams(n)
    cmap = spectrum._class_map(params)
    reduced = cmap.stacked[:, :, 4 * n :]
    counts = Counter()
    for conn in enumerate_connection_sets(params, len(conjugacy_classes(params))):
        sums = reduced.take(conn.class_indices, axis=0).sum(axis=0)
        exact = not sums[:, 1:].any() and not (sums[:, 0] % cmap.degrees).any()
        table = eigenvalues(conn)
        assert table.all_integral == exact
        if exact:
            assert table.integers == tuple((sums[:, 0] // cmap.degrees).tolist())
        counts[exact] += 1
    assert counts[True] and (counts[False] or n <= 3)  # n <= 3: every union is integral


@pytest.mark.parametrize("n", range(1, 9))
def test_every_rational_class_vector_is_checked(n):
    """Rows that give any one rational class a non-integral eigenvalue
    raise as the map's vectors are built; the intact rows give the map's
    `rational`, one vector per rational class."""
    params = GroupParams(n)
    cmap = spectrum._class_map(params)
    rational = class_masks(params).rational
    for bits in rational:
        stacked = cmap.stacked.copy()
        stacked[(bits & -bits).bit_length() - 1, 0, 4 * n + 1] += 1  # + zeta in alpha_1's row
        with pytest.raises(spectrum.IntegralityMismatch):
            spectrum._rational_integers(params, stacked, cmap.degrees)
    assert [bits for bits, _ in cmap.rational] == list(rational)
    assert spectrum._rational_integers(params, cmap.stacked, cmap.degrees) == cmap.rational


@pytest.mark.parametrize(
    "n,max_classes", [(n, 99) for n in range(1, 7)] + [(7, 3), (8, 3)]
)
def test_eager_integrality_matches_the_tuple(n, max_classes):
    """`all_integral`, decided on the class bits, against the summed rows."""
    for conn in enumerate_connection_sets(GroupParams(n), max_classes):
        table = eigenvalues(conn)
        assert table.all_integral == (None not in table.integer_values)

