"""Exact cyclotomic scalar arithmetic."""

import cmath

import pytest

from v8npst.cyclotomic import CycloInt, cyclotomic_polynomial


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared_plus_one_is_zero():
    i = CycloInt.root(4, 1)
    assert (i * i + CycloInt.integer(4, 1)).is_zero()
    assert i * i == -1


@pytest.mark.parametrize("m", [4, 8, 12, 20, 24])
def test_primitive_root_sums_vanish(m):
    # sum over all m-th roots of unity is zero
    total = CycloInt.zero(m)
    for e in range(m):
        total = total + CycloInt.root(m, e)
    assert total.is_zero()
    assert total.as_integer() == 0


def test_numeric_value_matches_cmath():
    m = 12
    x = CycloInt.root(m, 5, 3) + CycloInt.root(m, 2, -2)
    want = 3 * cmath.exp(2j * cmath.pi * 5 / m) - 2 * cmath.exp(2j * cmath.pi * 2 / m)
    assert abs(x.value() - want) < 1e-14


def test_conjugation():
    m = 8
    x = CycloInt.root(m, 3) + CycloInt.root(m, 1, 2)
    assert abs(x.conj().value() - x.value().conjugate()) < 1e-14


def test_as_integer_detects_hidden_integers():
    m = 12
    # omega + omega^{-1} with omega = exp(2 pi i /6): equals 1 exactly
    x = CycloInt.root(m, 2) + CycloInt.root(m, -2)
    assert x.as_integer() == 1
    y = CycloInt.root(m, 1) + CycloInt.root(m, -1)  # 2 cos(pi/6) = sqrt(3)
    assert y.as_integer() is None


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycloInt.root(4, 1) + CycloInt.root(8, 1)


def test_ring_operations():
    m = 8
    z = CycloInt.root(m, 1)
    assert (z * z * z * z).as_integer() == -1
    assert (2 * z - z - z).is_zero()
    assert (-z) + z == 0


def test_as_integer_is_exact_for_large_coefficients():
    # 1 + z^2 + z^4 + z^6 = 0 in Z[zeta_8]; scaled by 10^17 its float value
    # is off by more than 1 in both parts
    vanishing = sum((CycloInt.root(8, e) for e in (0, 2, 4, 6)), CycloInt.zero(8))
    x = CycloInt.integer(8, 3) + 10**17 * vanishing
    assert x == 3
    assert x.as_integer() == 3


def test_is_real_is_exact():
    z = [CycloInt.root(8, e) for e in range(8)]
    assert (z[1] + z[7]).is_real()  # sqrt2, symmetric coefficients
    assert (z[1] + z[5]).is_real()  # exactly 0, coefficients not symmetric
    assert (z[1] - z[3]).is_real()  # sqrt2, coefficients not symmetric
    assert not z[2].is_real()  # i
    assert not (z[1] + z[3]).is_real()  # i sqrt2
    assert not (CycloInt.integer(8, 10**17) + z[2] - z[6] + z[1] + z[5]).is_real()  # 10^17 + 2i
