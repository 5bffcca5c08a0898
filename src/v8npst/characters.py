"""Irreducible representations and characters of V_8n, evaluated exactly.

All scalars are CycloInt values over the 4n-th roots of unity: with
zeta = exp(pi*i/(2n)), the primitive 2n-th root omega = exp(pi*i/n) is
zeta^2 and the imaginary unit is zeta^n, so every table entry lives in
Z[zeta_4n].

The group has three families of irreducible representations:

  odd n:   theta_1..theta_4 (degree 1), psi_j for 0 <= j <= n-1 and
           phi_k for 1 <= k <= n-1 (degree 2);
  even n:  theta_1..theta_8 (degree 1), psi_j and phi_k for
           1 <= j,k <= n-1 (degree 2).

Each character value is the exact trace of a representation matrix, built
from the images of the generators a and b.  The paper's printed character
tables, with the two repairs they need, are kept in
tests/characters_reference.py; the tests compare every entry against these
traces.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import CycloInt
from .group import GroupElement, GroupParams, conjugacy_classes, vertex_index


class DescriptorRangeError(ValueError):
    """Representation descriptor inconsistent with the group parameter."""


class RepDescriptor(NamedTuple):
    kind: str  # "theta" | "psi" | "phi"
    index: int
    degree: int


Matrix = tuple[tuple[CycloInt, ...], ...]


def rep_descriptors(params: GroupParams) -> tuple[RepDescriptor, ...]:
    """All irreducible representations, in the fixed table order."""
    n = params.n
    if params.is_odd:
        thetas = [RepDescriptor("theta", i, 1) for i in range(1, 5)]
        psis = [RepDescriptor("psi", j, 2) for j in range(0, n)]
    else:
        thetas = [RepDescriptor("theta", i, 1) for i in range(1, 9)]
        psis = [RepDescriptor("psi", j, 2) for j in range(1, n)]
    phis = [RepDescriptor("phi", k, 2) for k in range(1, n)]
    return tuple(thetas + psis + phis)


def _check_descriptor(params: GroupParams, desc: RepDescriptor) -> None:
    if desc not in rep_descriptors(params):
        raise DescriptorRangeError(
            f"{desc} is not a representation of V_{8 * params.n}"
        )


# Exact monomial c * zeta^e; generator images only ever need this shape.
class _Mono(NamedTuple):
    coeff: int
    exp: int


# theta index -> multiples of zeta^n (= i) for the a- and b-images: the
# a-images run through 1, i, -1, -i and similarly for b.
_EVEN_THETA_EXPONENTS = {
    1: (0, 0),
    2: (1, 3),
    3: (2, 2),
    4: (3, 1),
    5: (0, 2),
    6: (1, 1),
    7: (2, 0),
    8: (3, 3),
}

_ODD_THETA_SIGNS = {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1)}


@lru_cache(maxsize=None)
def _generator_images(
    params: GroupParams, desc: RepDescriptor
) -> tuple[tuple[_Mono, ...], Matrix]:
    """(diagonal monomials of the a-image, exact matrix of the b-image)."""
    _check_descriptor(params, desc)
    m = 4 * params.n
    n = params.n
    one = CycloInt.integer(m, 1)
    neg = CycloInt.integer(m, -1)
    zero = CycloInt.zero(m)

    if desc.kind == "theta":
        if params.is_odd:
            sa, sb = _ODD_THETA_SIGNS[desc.index]
            return (_Mono(sa, 0),), ((CycloInt.integer(m, sb),),)
        ea, eb = _EVEN_THETA_EXPONENTS[desc.index]
        return (_Mono(1, n * ea),), ((CycloInt.root(m, n * eb),),)

    if desc.kind == "psi":
        j = desc.index
        if params.is_odd:
            a = (_Mono(1, 4 * j), _Mono(-1, (-4 * j) % m))
            b = ((zero, one), (neg, zero))
        else:
            a = (_Mono(1, 2 * j), _Mono(1, (-2 * j) % m))
            b = ((zero, CycloInt.root(m, n)), (CycloInt.root(m, 3 * n), zero))
        return a, b

    k = desc.index
    if params.is_odd:
        a = (_Mono(1, 2 * k), _Mono(1, (-2 * k) % m))
        b = ((zero, one), (one, zero))
    else:
        a = (_Mono(1, (n + 2 * k) % m), _Mono(1, (n - 2 * k) % m))
        b = ((zero, one), (neg, zero))
    return a, b


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


@lru_cache(maxsize=None)
def _character_on_class(
    params: GroupParams, desc: RepDescriptor, class_idx: int
) -> CycloInt:
    cls = conjugacy_classes(params)[class_idx]
    rep = min(cls.members, key=lambda e: vertex_index(params, e))
    return _trace(4 * params.n, rep_at(params, desc, rep))


@lru_cache(maxsize=None)
def character_table(params: GroupParams) -> tuple[tuple[CycloInt, ...], ...]:
    """Full table indexed [representation][conjugacy class]."""
    descs = rep_descriptors(params)
    n_classes = len(conjugacy_classes(params))
    return tuple(
        tuple(_character_on_class(params, d, c) for c in range(n_classes))
        for d in descs
    )
