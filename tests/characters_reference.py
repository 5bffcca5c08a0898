"""References for `v8npst.characters`: the representation matrices and the
paper's printed character tables.

`characters` reads every character value off the diagonals of the powers of
the generator images.  This module keeps the full matrices as the ground
truth: `rep_at` is the product a(rho)^r b(rho)^s of the exact generator
images, with the powers of b built by 2x2 `CycloInt` matrix products;
`character` is its trace at one element (no class representative, no
table) and `character_on_class` the trace at a class's smallest vertex, as
the table reads it.  `closed_form_character` reproduces the printed
character tables entry by entry.  Tests compare the table with the traces
coefficient for coefficient for n = 1..12, and the traces with the printed
tables on every class for n = 1..6.

The printed tables need two repairs, both validated against traces of the
representation matrices (the matrices are the ground truth):

  * in the xi_k rows the alpha exponents are indexed by the row's own k;
  * for even n, the chi_2/chi_4/chi_6/chi_8 entries at the classes {a^n}
    and {a^n b^2} equal theta(a^n) and theta(a^n b^2) = (+-i)^n and its
    negative; the printed tables carry these two entries with the sign
    belonging to the opposite parity case (n = 0 vs 2 mod 4).
"""

from __future__ import annotations

from functools import lru_cache

from v8npst import characters
from v8npst.characters import (
    _EVEN_THETA_EXPONENTS,
    _ODD_THETA_SIGNS,
    Matrix,
    RepDescriptor,
    _Mono,
    rep_descriptors,
)
from v8npst.cyclotomic import CycloInt
from v8npst.group import (
    ConjugacyClass,
    GroupElement,
    GroupParams,
    conjugacy_classes,
    vertex_index,
)

from cyclotomic_reference import neg


# the package's exact generator images, kept per representation here
_generator_images = lru_cache(maxsize=None)(characters._generator_images)


class DescriptorRangeError(ValueError):
    """Representation descriptor inconsistent with the group parameter."""


def _check_descriptor(params: GroupParams, desc: RepDescriptor) -> None:
    if desc not in rep_descriptors(params):
        raise DescriptorRangeError(
            f"{desc} is not a representation of V_{8 * params.n}"
        )


def _matmul(m: int, A: Matrix, B: Matrix) -> Matrix:
    d = len(A)
    return tuple(
        tuple(
            sum((A[i][t] * B[t][j] for t in range(d)), CycloInt.zero(m))
            for j in range(d)
        )
        for i in range(d)
    )


@lru_cache(maxsize=None)
def _b_powers(params: GroupParams, desc: RepDescriptor) -> tuple[Matrix, ...]:
    m = 4 * params.n
    _, Mb = _generator_images(params, desc)
    d = len(Mb)
    ident = tuple(
        tuple(CycloInt.integer(m, 1 if i == j else 0) for j in range(d))
        for i in range(d)
    )
    powers = [ident]
    for _ in range(3):
        powers.append(_matmul(m, powers[-1], Mb))
    return tuple(powers)


def rep_at(params: GroupParams, desc: RepDescriptor, x: GroupElement) -> Matrix:
    """Exact representation matrix theta(a)^r * theta(b)^s at x = a^r b^s."""
    _check_descriptor(params, desc)
    m = 4 * params.n
    a_monos, _ = _generator_images(params, desc)
    r, s = x
    # the a-image is diagonal with monomial entries (c * zeta^e)^r = c^r zeta^{er}
    diag = [
        _Mono(1 if mono.coeff == 1 or r % 2 == 0 else -1, (mono.exp * r) % m)
        for mono in a_monos
    ]
    Mb_s = _b_powers(params, desc)[s]
    return tuple(
        tuple(CycloInt.root(m, diag[i].exp, diag[i].coeff) * Mb_s[i][j]
              for j in range(len(diag)))
        for i in range(len(diag))
    )


def _trace(m: int, M: Matrix) -> CycloInt:
    t = CycloInt.zero(m)
    for i in range(len(M)):
        t = t + M[i][i]
    return t


def character(params: GroupParams, desc: RepDescriptor, x: GroupElement) -> CycloInt:
    """Exact chi_desc(x): the trace of the representation matrix at x."""
    M = rep_at(params, desc, x)
    return sum((M[i][i] for i in range(1, len(M))), M[0][0])


def character_on_class(params: GroupParams, desc: RepDescriptor, class_idx: int) -> CycloInt:
    """The trace of the representation matrix at the class's smallest vertex,
    as the sum `characters.character_table` writes, coefficient for coefficient."""
    cls = conjugacy_classes(params)[class_idx]
    rep = min(cls.members, key=lambda e: vertex_index(params, e))
    return _trace(4 * params.n, rep_at(params, desc, rep))


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
