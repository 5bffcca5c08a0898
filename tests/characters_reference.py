"""The paper's printed character tables, as a reference for `v8npst.characters`.

`characters` evaluates every character as the exact trace of a
representation matrix.  This module keeps the independent second source:
`closed_form_character` reproduces the printed character tables entry by
entry, and `character` is the trace of the representation matrix at one
element (no class representative, no table).  Tests compare the two, and
the character table, on every class for n = 1..6.

The printed tables need two repairs, both validated against traces of the
representation matrices (the matrices are the ground truth):

  * in the xi_k rows the alpha exponents are indexed by the row's own k;
  * for even n, the chi_2/chi_4/chi_6/chi_8 entries at the classes {a^n}
    and {a^n b^2} equal theta(a^n) and theta(a^n b^2) = (+-i)^n and its
    negative; the printed tables carry these two entries with the sign
    belonging to the opposite parity case (n = 0 vs 2 mod 4).
"""

from __future__ import annotations

from v8npst.characters import (
    _EVEN_THETA_EXPONENTS,
    _ODD_THETA_SIGNS,
    RepDescriptor,
    _check_descriptor,
    rep_at,
)
from v8npst.cyclotomic import CycloInt
from v8npst.group import ConjugacyClass, GroupElement, GroupParams

from cyclotomic_reference import neg


def character(params: GroupParams, desc: RepDescriptor, x: GroupElement) -> CycloInt:
    """Exact chi_desc(x): the trace of the representation matrix at x."""
    M = rep_at(params, desc, x)
    return sum((M[i][i] for i in range(1, len(M))), M[0][0])


def _column_info(params: GroupParams, cls: ConjugacyClass) -> tuple[str, int]:
    """Table column of a class: one of
    one / b2 / an / anb2 / a(e) / ab2(e) / B / B3 / AB / AB3.

    "a" covers the pure classes {a^e, a^-e} (e even) and the mixed classes
    {a^e, a^-e b^2} (e odd, keyed by the s=0 member); "ab2" is {a^e b^2, ...}.
    """
    members = cls.members
    n = params.n
    if len(members) == 1:
        x = next(iter(members))
        if x == GroupElement(0, 0):
            return "one", 0
        if x == GroupElement(0, 2):
            return "b2", 0
        if x == GroupElement(n, 0):
            return "an", 0
        if x == GroupElement(n, 2):
            return "anb2", 0
        raise AssertionError(f"unrecognised singleton class {cls}")
    s_values = {x.s for x in members}
    if s_values <= {1, 3}:
        for probe, kind in (
            (GroupElement(0, 1), "B"),
            (GroupElement(0, 3), "B3"),
            (GroupElement(1, 1), "AB"),
            (GroupElement(1, 3), "AB3"),
        ):
            if probe in members:
                return kind, 0
        raise AssertionError(f"unrecognised large class {cls}")
    if 0 in s_values:
        e = next(x.r for x in members if x.s == 0)  # unique s=0 member for mixed
        if s_values == {0}:
            e = min(x.r for x in members)
        return "a", e
    if s_values != {2}:
        raise AssertionError(f"unrecognised class {cls}")
    return "ab2", min(x.r for x in members)


def _omega_sum(m: int, exp: int, sign: int = 1) -> CycloInt:
    """omega^exp + sign * omega^{-exp} with omega = zeta^2."""
    return CycloInt.root(m, 2 * exp) + CycloInt.root(m, (-2 * exp) % m, sign)


def closed_form_character(
    params: GroupParams, desc: RepDescriptor, cls: ConjugacyClass
) -> CycloInt:
    """Printed character-table entry for (desc, cls), with the documented repairs."""
    _check_descriptor(params, desc)
    m = 4 * params.n
    n = params.n
    kind, e = _column_info(params, cls)

    if params.is_odd:
        if desc.kind == "theta":
            sa, sb = _ODD_THETA_SIGNS[desc.index]
            value = {
                "one": 1,
                "b2": 1,
                "a": sa if e % 2 else 1,
                "ab2": 1,
                "B": sb,
                "AB": sa * sb,
            }[kind]
            return CycloInt.integer(m, value)
        if desc.kind == "psi":
            j = desc.index
            if kind == "one":
                return CycloInt.integer(m, 2)
            if kind == "b2":
                return CycloInt.integer(m, -2)
            if kind in ("B", "AB"):
                return CycloInt.zero(m)
            if kind == "a":
                if e % 2:  # mixed-class column: omega^{2je} - omega^{-2je}
                    return _omega_sum(m, 2 * j * e, -1)
                return _omega_sum(m, 2 * j * e)
            return neg(_omega_sum(m, 2 * j * e))  # a^{2s} b^2 column
        k = desc.index
        if kind in ("one", "b2"):
            return CycloInt.integer(m, 2)
        if kind in ("B", "AB"):
            return CycloInt.zero(m)
        return _omega_sum(m, k * e)  # identical for the a^e and a^e b^2 columns

    # even n ---------------------------------------------------------------
    if desc.kind == "theta":
        ea, eb = _EVEN_THETA_EXPONENTS[desc.index]
        exp_of = {
            "one": 0,
            "b2": 2 * eb,
            "an": ea * n,  # repaired: theta(a)^n, not the printed sign
            "anb2": ea * n + 2 * eb,
            "a": ea * e,
            "ab2": ea * e + 2 * eb,
            "B": eb,
            "B3": 3 * eb,
            "AB": ea + eb,
            "AB3": ea + 3 * eb,
        }[kind]
        return CycloInt.root(m, (n * exp_of) % m)
    if desc.kind == "psi":
        j = desc.index
        if kind in ("one", "b2"):
            return CycloInt.integer(m, 2)
        if kind in ("an", "anb2"):
            return CycloInt.integer(m, 2 if j % 2 == 0 else -2)
        if kind in ("B", "B3", "AB", "AB3"):
            return CycloInt.zero(m)
        return _omega_sum(m, j * e)  # alpha^{je}; b^2 makes no difference
    k = desc.index
    if kind == "one":
        return CycloInt.integer(m, 2)
    if kind == "b2":
        return CycloInt.integer(m, -2)
    if kind == "an":  # i^n * 2 * (-1)^k, as printed in both parity cases
        return CycloInt.root(m, n * n, 2 if k % 2 == 0 else -2)
    if kind == "anb2":
        return CycloInt.root(m, n * n, -2 if k % 2 == 0 else 2)
    if kind in ("B", "B3", "AB", "AB3"):
        return CycloInt.zero(m)
    i_pow_e = CycloInt.root(m, n * (e % 4))
    if kind == "a":
        return i_pow_e * _omega_sum(m, k * e)  # i^e alpha^{ke}, k-indexed
    return neg(i_pow_e * _omega_sum(m, k * e))
