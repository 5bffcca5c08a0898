"""Exact cyclotomic scalar arithmetic."""

import cmath

import pytest

from v8npst.cyclotomic import CycloInt, cyclotomic_polynomial

from cyclotomic_reference import as_integer, conj, equal, is_real, neg, sub


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared_plus_one_is_zero():
    i = CycloInt.root(4, 1)
    assert (i * i + CycloInt.integer(4, 1)).is_zero()
    assert equal(i * i, -1)


@pytest.mark.parametrize("m", [4, 8, 12, 20, 24])
def test_primitive_root_sums_vanish(m):
    # sum over all m-th roots of unity is zero
    total = CycloInt.zero(m)
    for e in range(m):
        total = total + CycloInt.root(m, e)
    assert total.is_zero()
    assert as_integer(total) == 0


def test_numeric_value_matches_cmath():
    m = 12
    x = CycloInt.root(m, 5, 3) + CycloInt.root(m, 2, -2)
    want = 3 * cmath.exp(2j * cmath.pi * 5 / m) - 2 * cmath.exp(2j * cmath.pi * 2 / m)
    assert abs(x.value() - want) < 1e-14


def test_conjugation():
    m = 8
    x = CycloInt.root(m, 3) + CycloInt.root(m, 1, 2)
    assert abs(conj(x).value() - x.value().conjugate()) < 1e-14


def test_as_integer_detects_hidden_integers():
    m = 12
    # omega + omega^{-1} with omega = exp(2 pi i /6): equals 1 exactly
    x = CycloInt.root(m, 2) + CycloInt.root(m, -2)
    assert as_integer(x) == 1
    y = CycloInt.root(m, 1) + CycloInt.root(m, -1)  # 2 cos(pi/6) = sqrt(3)
    assert as_integer(y) is None


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycloInt.root(4, 1) + CycloInt.root(8, 1)


def test_ring_operations():
    m = 8
    z = CycloInt.root(m, 1)
    assert as_integer(z * z * z * z) == -1
    assert sub(sub(2 * z, z), z).is_zero()
    assert equal(neg(z) + z, 0)


def test_as_integer_is_exact_for_large_coefficients():
    # 1 + z^2 + z^4 + z^6 = 0 in Z[zeta_8]; scaled by 10^17 its float value
    # is off by more than 1 in both parts
    vanishing = sum((CycloInt.root(8, e) for e in (0, 2, 4, 6)), CycloInt.zero(8))
    x = CycloInt.integer(8, 3) + 10**17 * vanishing
    assert equal(x, 3)
    assert as_integer(x) == 3


def test_is_real_is_exact():
    z = [CycloInt.root(8, e) for e in range(8)]
    assert is_real(z[1] + z[7])  # sqrt2, symmetric coefficients
    assert is_real(z[1] + z[5])  # exactly 0, coefficients not symmetric
    assert is_real(sub(z[1], z[3]))  # sqrt2, coefficients not symmetric
    assert not is_real(z[2])  # i
    assert not is_real(z[1] + z[3])  # i sqrt2
    assert not is_real(sub(CycloInt.integer(8, 10**17) + z[2], z[6]) + z[1] + z[5])  # 10^17 + 2i
