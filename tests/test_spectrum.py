"""Eigenvalues, eigenvectors and integrality decisions."""

import numpy as np
import pytest

from v8npst import spectrum
from v8npst.cyclotomic import CycloInt, reduced_powers
from v8npst.group import (
    IDENTITY,
    ConnectionSet,
    GroupParams,
    NotGenerating,
    all_elements,
    class_index_map,
    conjugacy_classes,
    element,
    enumerate_connection_sets,
    validate_connection_set,
)
from v8npst.spectrum import eigenvalues

import spectrum_reference
from conftest import valid_sets
from oracle_reference import adjacency
from spectrum_reference import eigenvectors


def full_set(n):
    p = GroupParams(n)
    return validate_connection_set(p, [x for x in all_elements(p) if x != IDENTITY])


def test_k8_spectrum():
    table = eigenvalues(full_set(1))
    multiset = sorted(
        v for ev in table.eigenvalues for v in [ev.integer_value] * ev.multiplicity
    )
    assert multiset == [-1] * 7 + [7]
    assert table.all_integral


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha1_is_degree(n):
    for conn in valid_sets(n):
        table = eigenvalues(conn)
        assert table.alpha(1).integer_value == len(conn)
        assert table.eigenvalues[0].label == "alpha_1"


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
        v for ev in table.eigenvalues for v in [ev.value] * ev.multiplicity
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
                [[ev.value] * ev.multiplicity for ev in table.eigenvalues]
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
        by_label = {ev.label: ev.value for ev in table.eigenvalues}
        lam = np.array([by_label[lab] for lab in E.labels])
        A = adjacency(conn)
        assert np.max(np.abs(V.conj().T @ V - np.eye(8 * n))) < 1e-10
        assert np.max(np.abs(A @ V - V * lam[None, :])) < 1e-8


def test_full_set_even_eigenvector_pairing():
    conn = full_set(2)
    table = eigenvalues(conn)
    E = eigenvectors(conn)
    A = adjacency(conn)
    beta1 = table.by_label("beta_1").value
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
        mults = [ev.multiplicity for ev in table.eigenvalues]
        vals = [ev.value for ev in table.eigenvalues]
        assert sum(mults) == 8 * n
        assert abs(sum(m * v for m, v in zip(mults, vals))) < 1e-7
        assert abs(
            sum(m * v * v for m, v in zip(mults, vals)) - 8 * n * len(conn)
        ) < 1e-6 * 8 * n * len(conn)
        if table.all_integral:
            ints = [ev.integer_value for ev in table.eigenvalues]
            assert sum(m * k for m, k in zip(mults, ints)) == 0
            assert sum(m * k * k for m, k in zip(mults, ints)) == 8 * n * len(conn)


@pytest.mark.parametrize(
    "n,max_classes", [(n, 99) for n in range(1, 6)] + [(6, 3), (7, 3), (8, 3)]
)
def test_class_map_matches_cyclotomic_reference(n, max_classes):
    """Summing the per-n class map gives the per-set CycloInt computation's
    eigenvalues, floats compared bit for bit through repr, with a fresh memo
    per set and with one memo shared by the whole enumeration."""
    memo = {}
    for conn in enumerate_connection_sets(GroupParams(n), max_classes):
        want = spectrum_reference.eigenvalues(conn)
        for got in (eigenvalues(conn), eigenvalues(conn, memo)):
            assert repr(got.eigenvalues) == repr(want.eigenvalues)
            assert got.all_integral == want.all_integral
    assert memo


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


@pytest.mark.parametrize(
    "row_index,tag,extra,match",
    [
        # the trivial character is 1 everywhere; 2 at {b^2} makes alpha_1 = |S| + 1
        (0, "b^2", CycloInt.integer(8, 1), "alpha_1 must equal"),
        # psi_1 (degree 2) at the identity: real and theta_1 intact, chi(1) = 3
        (8, "1", CycloInt.integer(8, 1), "identity column"),
        # real, theta_1 and chi(1) intact; far inside any float band
        (1, "b^2", _near_zero_irrational(), "column orthogonality"),
    ],
    ids=["alpha_1", "degree", "orthogonality"],
)
def test_broken_spectral_identity_raises(monkeypatch, row_index, tag, extra, match):
    """Each table check rejects a table that passes the checks before it."""
    _patch_entry(monkeypatch, GroupParams(2), extra, row_index, tag)
    with pytest.raises(RuntimeError, match=match):
        eigenvalues(full_set(2))


def test_near_integer_irrational_is_not_integral(monkeypatch):
    # eps = (sqrt2 - 1)^21 added to one eigenvalue's numerator stays far
    # inside any float tolerance of the true integer, yet the eigenvalue is
    # irrational.  It is exactly real, but its float value has an imaginary
    # residue that a float realness test would reject.
    eps = _near_zero_irrational()
    assert 0 < eps.value().real < 1e-8 and abs(eps.value().imag) > 1e-10
    p = GroupParams(2)
    conn = full_set(2)
    plain = eigenvalues(conn)
    # in the character table, eps breaks column orthogonality exactly
    b2 = _patch_entry(monkeypatch, p, eps)
    assert b2 in conn.class_indices
    with pytest.raises(RuntimeError, match="column orthogonality"):
        eigenvalues(conn)
    monkeypatch.undo()
    # in the built map it reaches the integrality decision
    cmap = spectrum._class_map(p)
    stacked = cmap.stacked.copy()
    stacked[1, b2] += np.concatenate([eps.c, np.array(eps.c) @ np.array(reduced_powers(8))])
    monkeypatch.setattr(spectrum, "_class_map", lambda params: cmap._replace(stacked=stacked))
    table = eigenvalues(conn)
    ev = table.eigenvalues[1]
    assert abs(ev.value - plain.eigenvalues[1].value) < 1e-8
    assert (ev.is_integer, ev.integer_value) == (False, None)
    assert not table.all_integral


def test_non_real_numerator_raises(monkeypatch):
    conn = full_set(2)
    _patch_entry(monkeypatch, GroupParams(2), CycloInt.root(8, 2))  # + i
    with pytest.raises(spectrum.NonRealEigenvalue, match="not real"):
        eigenvalues(conn)


@pytest.mark.parametrize("n,expected", [(1, (0,)), (3, (0, 1, 2)), (2, (1,)), (4, (1, 2, 3))])
def test_beta_index_ranges(n, expected):
    table = eigenvalues(valid_sets(n)[0])
    beta = tuple(ev.index for ev in table.eigenvalues if ev.kind == "beta")
    gamma = tuple(ev.index for ev in table.eigenvalues if ev.kind == "gamma")
    assert beta == expected
    assert gamma == tuple(range(1, n))


def test_nonintegral_example_exists_at_n4():
    tables = [eigenvalues(c) for c in valid_sets(4)]
    assert any(not t.all_integral for t in tables)
    bad = next(t for t in tables if not t.all_integral)
    assert any(ev.integer_value is None for ev in bad.eigenvalues)


def _non_integral_set(n):
    return next(c for c in valid_sets(n) if not eigenvalues(c).all_integral)


def test_non_integral_table_leaves_the_memo_empty():
    """Integrality is decided on the summed rows; no `Eigenvalue` is built
    until the tuple is read."""
    conn = _non_integral_set(4)
    memo = {}
    table = eigenvalues(conn, memo)
    assert not table.all_integral
    assert memo == {}


def test_reading_the_tuple_fills_the_memo():
    conn = _non_integral_set(4)
    memo = {}
    table = eigenvalues(conn, memo)
    entries = table.eigenvalues
    assert len(memo) == len(entries)
    assert set(memo.values()) == set(entries)
    assert table.eigenvalues is entries  # built once
    assert repr(eigenvalues(conn, memo).eigenvalues) == repr(entries)
    assert len(memo) == len(entries)


@pytest.mark.parametrize(
    "n,max_classes", [(n, 99) for n in range(1, 7)] + [(7, 3), (8, 3)]
)
def test_eager_integrality_matches_the_tuple(n, max_classes):
    for conn in enumerate_connection_sets(GroupParams(n), max_classes):
        table = eigenvalues(conn)
        assert table.all_integral == all(ev.is_integer for ev in table.eigenvalues)

