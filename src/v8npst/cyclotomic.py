"""Exact arithmetic with integer combinations of m-th roots of unity.

Values live in the group ring Z[zeta_m] (zeta_m = exp(2*pi*i/m)) and are
stored as length-m integer coefficient vectors over zeta^0 .. zeta^{m-1};
the only reduction applied during arithmetic is zeta^m = 1.  Zero is
decided exactly by reducing the coefficient polynomial modulo the m-th
cyclotomic polynomial.  Only the operations the program runs are here:
`+`, `*`, `is_zero` and `value`; differences, conjugation and the exact
equality, realness and integrality tests built on them are kept with the
tests (tests/cyclotomic_reference.py).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache


@lru_cache(maxsize=None)
def unit_roots(m: int) -> tuple[complex, ...]:
    """zeta_m^e as floats, e = 0 .. m-1."""
    return tuple(cmath.exp(2j * cmath.pi * e / m) for e in range(m))


def _poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num_l = list(num)
    q = [0] * (len(num_l) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        coeff, rem = divmod(num_l[i + len(den) - 1], den[-1])
        if rem:
            raise RuntimeError("non-exact polynomial division")
        q[i] = coeff
        for j, d in enumerate(den):
            num_l[i + j] -= coeff * d
    if any(num_l):
        raise RuntimeError("non-exact polynomial division")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly: tuple[int, ...] = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


class CycloInt:
    """Immutable element of Z[zeta_m]."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != m:
            raise ValueError(f"need {m} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycloInt is immutable")

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls, m: int) -> "CycloInt":
        return cls(m, (0,) * m)

    @classmethod
    def integer(cls, m: int, v: int) -> "CycloInt":
        return cls(m, (v,) + (0,) * (m - 1))

    @classmethod
    def root(cls, m: int, exp: int, coeff: int = 1) -> "CycloInt":
        """coeff * zeta_m^exp."""
        c = [0] * m
        c[exp % m] = coeff
        return cls(m, c)

    # ring operations ---------------------------------------------------
    def _check(self, other: "CycloInt") -> None:
        if self.m != other.m:
            raise ValueError(f"mixed root orders {self.m} and {other.m}")

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.m, (x + y for x, y in zip(self.c, other.c)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.m, (other * x for x in self.c))
        self._check(other)
        out = [0] * self.m
        for e1, c1 in enumerate(self.c):
            if c1 == 0:
                continue
            for e2, c2 in enumerate(other.c):
                if c2 != 0:
                    out[(e1 + e2) % self.m] += c1 * c2
        return CycloInt(self.m, out)

    __rmul__ = __mul__

    # evaluation and exact predicates ------------------------------------
    def value(self) -> complex:
        roots = unit_roots(self.m)
        re = math.fsum(c * roots[e].real for e, c in enumerate(self.c) if c)
        im = math.fsum(c * roots[e].imag for e, c in enumerate(self.c) if c)
        return complex(re, im)

    def _reduced(self) -> list[int]:
        """Coefficients of the remainder of this polynomial mod Phi_m.

        The remainder has degree below phi(m); since 1, zeta, ..,
        zeta^{phi(m)-1} is a basis of Z[zeta_m], it is the unique reduced
        form of the value.
        """
        phi = cyclotomic_polynomial(self.m)
        rem = list(self.c)
        deg_phi = len(phi) - 1
        for i in range(len(rem) - 1, deg_phi - 1, -1):
            coeff = rem[i]  # phi is monic
            if coeff:
                for j, p in enumerate(phi):
                    rem[i - deg_phi + j] -= coeff * p
        return rem[:deg_phi]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._reduced())

    # equality is decided by is_zero of a difference (tests/cyclotomic_reference.py)
    __hash__ = None


@lru_cache(maxsize=None)
def reduced_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e is the reduced form of zeta_m^e mod Phi_m.

    Reduction is linear, so a coefficient vector times this matrix is the
    vector's reduced form.
    """
    return tuple(tuple(CycloInt.root(m, e)._reduced()) for e in range(m))
