"""Irreducible representations and characters of V_8n, evaluated exactly.

With zeta = exp(pi*i/(2n)), the primitive 2n-th root omega = exp(pi*i/n)
is zeta^2 and the imaginary unit is zeta^n, so every character value lives
in Z[zeta_4n] and is written as its integer coefficient vector over
zeta^0 .. zeta^{4n-1}.

The group has three families of irreducible representations:

  odd n:   theta_1..theta_4 (degree 1), psi_j for 0 <= j <= n-1 and
           phi_k for 1 <= k <= n-1 (degree 2);
  even n:  theta_1..theta_8 (degree 1), psi_j and phi_k for
           1 <= j,k <= n-1 (degree 2).

Each representation is given by the images of the generators: a diagonal
a-image with monomial entries c * zeta^e (c = +-1) and an exact b-image.
The character at a^r b^s is the trace of a(rho)^r b(rho)^s, that is
sum_i a_i^r (b^s)_ii.  The diagonals of b^s, s = 0..3, are computed once
per representation with `CycloInt` products; the table is then read off
these diagonals in one array pass, into one read-only int64 array.  The
full representation matrices (`rep_at`) and their traces are kept with the
tests (tests/characters_reference.py), which compare every entry against
them, coefficient for coefficient, and the traces against the paper's
printed character tables, with the two repairs they need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclotomic import CycloInt
from .group import GroupParams, class_labels


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


# Exact monomial c * zeta^e; the a-images only ever need this shape.
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


def _generator_images(
    params: GroupParams, desc: RepDescriptor
) -> tuple[tuple[_Mono, ...], Matrix]:
    """(diagonal monomials of the a-image, exact matrix of the b-image)."""
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


def _b_power_diagonals(m: int, B: Matrix) -> tuple[tuple[CycloInt, ...], ...]:
    """The diagonal of B^s for s = 0..3.

    Every b-image squares to a scalar matrix (trivially in degree 1; a
    2-dimensional b-image is antidiagonal), so the diagonal of B^3 is that
    of B^2 times that of B.
    """
    d = len(B)
    square = tuple(sum((B[i][t] * B[t][i] for t in range(d)), CycloInt.zero(m)) for i in range(d))
    return (
        (CycloInt.integer(m, 1),) * d,
        tuple(B[i][i] for i in range(d)),
        square,
        tuple(square[i] * B[i][i] for i in range(d)),
    )


@lru_cache(maxsize=None)
def character_table(params: GroupParams) -> np.ndarray:
    """Full table, read-only int64 (reps, classes, 4n): entry [rho, c] is the
    coefficient vector of the character at the class's smallest vertex a^r b^s:
    sum_i a_i^r (b^s)_ii, where a_i^r = c_i^r zeta^{e_i r} multiplies the
    coefficient vector of (b^s)_ii by c_i^r and shifts it by e_i r.  A
    degree-1 representation has one term; its second slot is padded with
    coefficient 0.
    """
    m = 4 * params.n
    descs = rep_descriptors(params)
    s, r = np.divmod([labels[0] for labels in class_labels(params)], params.two_n)
    a_coeff = np.zeros((len(descs), 1, 2), dtype=np.int64)  # (reps, 1, slots)
    a_exp = np.zeros_like(a_coeff)
    b_diag = np.zeros((len(descs), 4, 2, m), dtype=np.int64)  # (reps, s, slots, m)
    for rho, desc in enumerate(descs):
        monos, B = _generator_images(params, desc)
        for i, mono in enumerate(monos):
            a_coeff[rho, 0, i], a_exp[rho, 0, i] = mono
        for power, diagonal in enumerate(_b_power_diagonals(m, B)):
            b_diag[rho, power, : len(diagonal)] = [entry.c for entry in diagonal]
    # c^r for c = +-1 is c for odd r and c * c = 1 for even r; a padding 0 stays 0
    sign = np.where(r[:, None] % 2 == 1, a_coeff, a_coeff * a_coeff)  # (reps, classes, slots)
    # coefficient k of zeta^{e r} x is coefficient k - e r of x
    source = (np.arange(m) - (a_exp * r[:, None])[..., None]) % m
    terms = np.take_along_axis(b_diag[:, s], source, axis=3) * sign[..., None]
    table = terms.sum(axis=2)
    table.flags.writeable = False
    return table
