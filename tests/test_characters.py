"""Representation matrices and character tables."""

import cmath
import itertools

import numpy as np
import pytest

from v8npst.characters import RepDescriptor, character_table, rep_descriptors
from v8npst.cli import MAX_GRAPH_N
from v8npst.group import (
    IDENTITY,
    GroupParams,
    all_elements,
    conjugacy_classes,
    element,
    multiply,
)

from characters_reference import (
    DescriptorRangeError,
    character,
    character_on_class,
    closed_form_character,
    rep_at,
    table_entries,
)
from cyclotomic_reference import as_integer, sub


def as_complex(M) -> np.ndarray:
    """Complex form of an exact representation matrix."""
    return np.array([[entry.value() for entry in row] for row in M])


@pytest.mark.parametrize("n", range(1, 9))
def test_descriptor_counts_and_degree_sum(n):
    p = GroupParams(n)
    descs = rep_descriptors(p)
    assert len(descs) == len(conjugacy_classes(p))
    assert sum(d.degree ** 2 for d in descs) == 8 * n
    if n % 2:
        assert [d.index for d in descs if d.kind == "psi"] == list(range(n))
    else:
        assert [d.index for d in descs if d.kind == "psi"] == list(range(1, n))


def test_trivial_rep_is_all_ones():
    p = GroupParams(3)
    theta1 = RepDescriptor("theta", 1, 1)
    for x in all_elements(p):
        assert as_complex(rep_at(p, theta1, x)).tolist() == [[1 + 0j]]


@pytest.mark.parametrize("n", [1, 3, 2, 4])
def test_two_dim_reps_at_identity(n):
    p = GroupParams(n)
    for d in rep_descriptors(p):
        if d.degree == 2:
            M = as_complex(rep_at(p, d, IDENTITY))
            assert np.allclose(M, np.eye(2))


def test_psi0_b_image_odd():
    p = GroupParams(3)
    M = as_complex(rep_at(p, RepDescriptor("psi", 0, 2), element(p, 0, 1)))
    assert np.allclose(M, np.array([[0, 1], [-1, 0]]))


def test_invalid_descriptor_raises():
    p = GroupParams(3)
    with pytest.raises(DescriptorRangeError):
        rep_at(p, RepDescriptor("theta", 5, 1), IDENTITY)  # odd n has theta_1..4
    with pytest.raises(DescriptorRangeError):
        character(p, RepDescriptor("phi", 3, 2), IDENTITY)  # phi_k needs k <= n-1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiplicativity_exhaustive(n):
    p = GroupParams(n)
    elems = all_elements(p)
    for d in rep_descriptors(p):
        mats = {x: as_complex(rep_at(p, d, x)) for x in elems}
        for x, y in itertools.product(elems, repeat=2):
            assert np.allclose(
                mats[multiply(p, x, y)], mats[x] @ mats[y], atol=1e-12
            )


@pytest.mark.parametrize("n", [5, 6, 8])
def test_multiplicativity_random_pairs(n, rng):
    p = GroupParams(n)
    elems = all_elements(p)
    descs = rep_descriptors(p)
    for _ in range(60):
        d = descs[rng.integers(len(descs))]
        x = elems[rng.integers(len(elems))]
        y = elems[rng.integers(len(elems))]
        lhs = as_complex(rep_at(p, d, multiply(p, x, y)))
        rhs = as_complex(rep_at(p, d, x)) @ as_complex(rep_at(p, d, y))
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_unitarity(n, rng):
    p = GroupParams(n)
    elems = all_elements(p)
    for d in rep_descriptors(p):
        for _ in range(6):
            x = elems[rng.integers(len(elems))]
            M = as_complex(rep_at(p, d, x))
            assert np.max(np.abs(M @ M.conj().T - np.eye(len(M)))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_character_is_class_function_exactly(n):
    p = GroupParams(n)
    for d in rep_descriptors(p):
        for cls in conjugacy_classes(p):
            values = []
            for x in cls.members:
                M = rep_at(p, d, x)
                tr = M[0][0]
                for i in range(1, d.degree):
                    tr = tr + M[i][i]
                values.append(tr)
            first = values[0]
            assert all(sub(v, first).is_zero() for v in values[1:])


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_matches_closed_form_tables(n):
    """Traces of the representation matrices reproduce the printed tables
    (with the xi_k index repair and the a^n-column sign repair)."""
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    for d in rep_descriptors(p):
        for cls in classes:
            by_trace = character(p, d, next(iter(cls.members)))
            by_table = closed_form_character(p, d, cls)
            assert sub(by_trace, by_table).is_zero(), (n, d, cls.tag)


@pytest.mark.parametrize("n", [*range(1, 13), 16, 24, MAX_GRAPH_N])
def test_character_table_matches_matrix_traces(n):
    """Each entry read off the diagonals is the trace of the representation
    matrix at the class's smallest vertex, coefficient for coefficient."""
    p = GroupParams(n)
    table = character_table(p)
    for row, d in zip(table.tolist(), rep_descriptors(p)):
        for c, entry in enumerate(row):
            assert tuple(entry) == character_on_class(p, d, c).c, (n, d, c)


@pytest.mark.parametrize("n", range(1, 7))
def test_row_orthogonality(n):
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    table = table_entries(character_table(p))
    sizes = [len(c) for c in classes]
    numeric = [[v.value() for v in row] for row in table]
    for r1 in range(len(table)):
        for r2 in range(r1, len(table)):
            s = sum(
                sz * x * y.conjugate()
                for sz, x, y in zip(sizes, numeric[r1], numeric[r2])
            )
            want = 8 * n if r1 == r2 else 0.0
            assert abs(s - want) < 1e-10


def test_table_shapes_and_trivial_row():
    """The table is one read-only int64 array (reps, classes, 4n)."""
    for n, classes in ((1, 5), (2, 10)):
        table = character_table(GroupParams(n))
        assert table.shape == (classes, classes, 4 * n) and table.dtype == np.int64
        assert not table.flags.writeable
        assert all(as_integer(v) == 1 for v in table_entries(table)[0])


def test_printed_value_spot_checks():
    # zeta_j at b^2 is -2 and xi_k at b is 0 for odd n
    p = GroupParams(5)
    b2 = element(p, 0, 2)
    b = element(p, 0, 1)
    for j in range(5):
        assert as_integer(character(p, RepDescriptor("psi", j, 2), b2)) == -2
    for k in range(1, 5):
        assert as_integer(character(p, RepDescriptor("phi", k, 2), b)) == 0
    # zeta_j at a^{2s}: omega^{4js} + omega^{-4js}
    omega = cmath.exp(1j * cmath.pi / 5)
    for j in range(5):
        for s in (1, 2):
            got = character(p, RepDescriptor("psi", j, 2), element(p, 2 * s, 0)).value()
            want = omega ** (4 * j * s) + omega ** (-4 * j * s)
            assert abs(got - want) < 1e-12


def test_even_n_an_column_is_trace_not_printed_sign():
    """The chi_2 entry at {a^n} equals i^n: +1 for n = 0 mod 4, -1 for
    n = 2 mod 4 (the printed tables swap these two)."""
    for n, want in ((4, 1), (2, -1), (8, 1), (6, -1)):
        p = GroupParams(n)
        an = element(p, n, 0)
        val = as_integer(character(p, RepDescriptor("theta", 2, 1), an))
        assert val == want
        cls = next(c for c in conjugacy_classes(p) if c.members == {an})
        assert as_integer(closed_form_character(p, RepDescriptor("theta", 2, 1), cls)) == want
