"""Exact operations on `CycloInt` values that only the tests use.

`v8npst.cyclotomic` keeps what the program runs: `+`, `*`, `is_zero` and
`value`.  Differences, negation, conjugation and the exact predicates built
on them (realness, integrality, equality) live here; each is decided by
reducing mod Phi_m through `is_zero` or `_reduced`, never by floats.
"""

from __future__ import annotations

from v8npst.cyclotomic import CycloInt


def neg(x: CycloInt) -> CycloInt:
    return -1 * x


def sub(x: CycloInt, y: CycloInt) -> CycloInt:
    return x + neg(y)


def conj(x: CycloInt) -> CycloInt:
    """Complex conjugation, zeta^e -> zeta^{-e}."""
    out = [0] * x.m
    for e, c in enumerate(x.c):
        out[(-e) % x.m] = c
    return CycloInt(x.m, out)


def is_real(x: CycloInt) -> bool:
    """Exactly equal to its complex conjugate.

    Coefficients symmetric under e -> -e give a real value as written; any
    other vector is decided by reducing x - conj(x).
    """
    c = x.c
    return c[1:] == c[:0:-1] or sub(x, conj(x)).is_zero()


def as_integer(x: CycloInt):
    """The exact integer x equals, or None."""
    rem = x._reduced()
    return rem[0] if all(c == 0 for c in rem[1:]) else None


def equal(x: CycloInt, y) -> bool:
    """x == y exactly; y is a CycloInt of the same order or an int."""
    if isinstance(y, int):
        y = CycloInt.integer(x.m, y)
    return x.m == y.m and sub(x, y).is_zero()
