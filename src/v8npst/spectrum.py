"""Spectra of normal Cayley graphs Cay(V_8n, S).

Each irreducible representation contributes one eigenvalue

    lambda = (1/d) * sum_{s in S} chi(s)

of multiplicity d^2 (1 for the linear characters, 4 for the 2-dimensional
ones).  Eigenvalues are kept per representation, labelled alpha_i / beta_j /
gamma_k, and never merged across representations even when numerically
equal: the transfer-time decision rules distinguish them by label.

S is a union of classes, so the numerator sum_{c in S} |c| * chi(c) is
linear in the class indicator of S.  The exact character table is turned,
once per n, into an integer map from classes to coefficient vectors over
Z[zeta_4n]: unreduced, and reduced mod Phi_4n.  The table is checked once,
exactly, as the map is built; each spectrum's identities (real values,
alpha_1 = |S|, trace 0, second moment 8n|S|) follow from that check, so no
spectrum is checked again.  A spectrum is then a sum of integer rows over
the classes of S: lambda is an integer iff the reduced row is an integer k
with d | k.  `CycloInt` arithmetic only builds the table and the map.  The
numerical oracle reads its own eigenvalues off the paper's projectors
(`v8npst.oracle`).  The paper's closed-form eigenbasis is kept with the tests
(tests/spectrum_reference.py), which check it against these eigenvalues
and the dense adjacency matrix.

Integrality needs no sum at all.  The rational class of x is the union
of the classes of x^k over every k coprime to 8n, and a normal Cayley
graph is integral iff S is a union of rational classes (Godsil and Spiga,
"Rationality conditions for the eigenvalues of normal finite Cayley
graphs", 2014; `SpectrumTable` gives the short Galois proof).  So
`eigenvalues` decides `all_integral` on the set's class bits and the per-n
rational classes (`group.class_masks`); `search` asks the same criterion
first and builds no table for a set that fails it, most sets (144 of 152
on `search --n 7 --max-classes 4`).  An integral table's `integers`, the
exact eigenvalue k / d of each representation, is the sum of per-n integer
vectors, one per rational class in S, each checked exact as the last of
the five checks made when the class map is built.  The decision reads
only these, so deciding a graph sums no rows and evaluates no float.  A
set's rows are summed only for `values` and `integer_values`, which print
the spectrum of a non-integral graph.  No eigenvalue is kept past its table.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .cyclotomic import reduced_powers, unit_roots
from .group import ConnectionSet, GroupParams, class_masks, conjugacy_classes
from .characters import character_table, rep_descriptors

_KIND_BY_REP = {"theta": "alpha", "psi": "beta", "phi": "gamma"}


class NonRealEigenvalue(ArithmeticError):
    """The character table breaks chi(c^-1) = conj chi(c), so character sums
    over an inverse-closed S would not all be real."""


class CharacterTableError(RuntimeError):
    """The character table fails one of its exact checks other than
    realness: theta_1 = 1, chi(1) = d, or column orthogonality."""


class IntegralityMismatch(ArithmeticError):
    """A union of rational classes has a non-integral eigenvalue, which the
    rationality criterion rules out: the class map is wrong."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _ClassMap(NamedTuple):
    """The spectrum as an integer linear map of the class indicator of S.

    Built once per n from one character table.  For class c and
    representation rho, `stacked[c, rho]` holds two coefficient vectors of
    |c| * chi_rho(c), side by side:

      [:m]    over zeta^0 .. zeta^{m-1}, as the table writes it;
      [m:]    reduced mod Phi_m (row e of the reduction is the reduced form
              of zeta^e).

    Both are linear in the coefficients, so their sums over the classes of
    S are the eigenvalue numerator and its reduced form.  Entries are class
    sizes times coefficients of a few units, so the int64 sums are exact.
    Each class's block is contiguous, so a set's sum is one `take` and one
    sum over the first axis.  `rational` holds the exact eigenvalues of
    each rational class on its own (`_rational_integers`).
    """

    stacked: np.ndarray  # int64, (classes, reps, m + phi(m))
    reps: tuple[tuple[str, str, int, int], ...]  # label, kind, index, multiplicity
    degrees: np.ndarray  # int64, (reps,): the degree d of each representation
    re_roots: np.ndarray  # float, (m,): Re zeta^e for e = 0 .. m-1
    rational: tuple[tuple[int, tuple[int, ...]], ...]  # class bits, eigenvalues


@lru_cache(maxsize=None)
def _class_map(params: GroupParams) -> _ClassMap:
    """The map of `character_table`, built and checked once per n."""
    return _build_class_map(params, character_table(params))


def _class_gram(conj: np.ndarray, column: np.ndarray) -> np.ndarray:
    """(classes, m): coefficient k of row d sums conj[rho, d, i] * column[rho, k - i].

    With `column` the class-size-weighted characters at one class c and
    `conj` those at every class d, conjugated, row d is the coefficient
    vector of sum_rho |c| chi_rho(c) conj(|d| chi_rho(d)).
    """
    m = column.shape[1]
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return np.tensordot(conj, column[:, shift], ([0, 2], [0, 1]))


def _build_class_map(params: GroupParams, table) -> _ClassMap:
    """The map of `table`, built after checking it exactly mod Phi_m.

    The checks, in order: chi(c^-1) = conj chi(c); theta_1 = 1; chi(1) = d;
    column orthogonality; each rational class's eigenvalues are integers
    (`_rational_integers`).  Over an inverse-closed S the first four make
    every lambda real, alpha_1 = |S|, the degrees' squares sum to 8n, the
    trace 0 and the second moment 8n|S| (Isaacs, Character Theory of Finite
    Groups, ch. 2).
    """
    m = 4 * params.n
    classes = conjugacy_classes(params)
    sizes = [len(c) for c in classes]
    unreduced = np.array([[entry.c for entry in row] for row in table], dtype=np.int64)
    unreduced *= np.array(sizes)[:, None]
    reduce = np.array(reduced_powers(m), dtype=np.int64)
    descs = rep_descriptors(params)
    degrees = _read_only(np.array([d.degree for d in descs], dtype=np.int64))

    def is_integer(coeffs, k) -> bool:
        """Each coefficient vector reduces to the integer k (broadcast)."""
        reduced = coeffs @ reduce
        return bool((reduced[..., 0] == k).all() and not reduced[..., 1:].any())

    conj = unreduced[:, :, (-np.arange(m)) % m]
    inverse = [bit.bit_length() - 1 for bit in class_masks(params).inverse_bit]
    if not is_integer(unreduced[:, inverse] - conj, 0):
        raise NonRealEigenvalue("chi(c^-1) != conj chi(c) for some c: eigenvalues not real")
    if not is_integer(unreduced[0], sizes):
        raise CharacterTableError("theta_1 is not 1 on every class: alpha_1 must equal |S|")
    if not is_integer(unreduced[:, 0], degrees):  # class 0 is {1}
        raise CharacterTableError("the identity column of the character table is not the degrees")
    # sum_rho |c| chi_rho(c) conj(|d| chi_rho(d)) = delta_cd 8n |c|, one class c at a
    # time, in float64 so that BLAS sums it.  Every term and every partial sum is
    # an integer of absolute value at most `bound`, so below 2^53 the sums are exact.
    weights = np.abs(unreduced).sum(axis=2)
    bound = int((weights.T @ weights).max())
    if bound >= 2**53:
        raise CharacterTableError(f"column orthogonality sums reach {bound}: not exact in float64")
    conj_f, unreduced_f = conj.astype(float), unreduced.astype(float)
    for c, size in enumerate(sizes):
        gram = _class_gram(conj_f, unreduced_f[:, c]).astype(np.int64)
        if not is_integer(gram, params.order * size * (np.arange(len(sizes)) == c)):
            raise CharacterTableError(f"column orthogonality fails at class {classes[c].tag}")
    stacked = np.concatenate([unreduced, unreduced @ reduce], axis=2).transpose(1, 0, 2)
    stacked = _read_only(np.ascontiguousarray(stacked))
    return _ClassMap(
        stacked=stacked,
        reps=tuple(
            (f"{_KIND_BY_REP[d.kind]}_{d.index}", _KIND_BY_REP[d.kind], d.index, d.degree**2)
            for d in descs
        ),
        degrees=degrees,
        re_roots=_read_only(np.array([z.real for z in unit_roots(m)])),
        rational=_rational_integers(params, stacked, degrees),
    )


def _rational_integers(
    params: GroupParams, stacked: np.ndarray, degrees: np.ndarray
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(class bits, exact eigenvalues) of each rational class on its own.

    A rational class is a union of rational classes, so its summed reduced
    rows of `stacked` are integers that the `degrees` divide, or the map is
    wrong and `IntegralityMismatch` is raised; the quotients are its
    eigenvalues, and a union's are the sums of theirs.
    """
    m = 4 * params.n
    vectors = []
    for bits in class_masks(params).rational:
        indices = [i for i in range(bits.bit_length()) if bits >> i & 1]
        reduced = stacked.take(indices, axis=0).sum(axis=0)[:, m:]
        k, rest = np.divmod(reduced[:, 0], degrees)
        if rest.any() or reduced[:, 1:].any():
            raise IntegralityMismatch(
                "a rational class has a non-integral eigenvalue: "
                "the class map breaks the rationality criterion"
            )
        vectors.append((bits, tuple(k.tolist())))
    return tuple(vectors)


def representations(params: GroupParams) -> tuple[tuple[str, str, int, int], ...]:
    """(label, kind, index, multiplicity) of each representation, in the
    order of every table: alpha_1 first."""
    return _class_map(params).reps


def rep_labels(params: GroupParams) -> tuple[str, ...]:
    """The eigenvalue label of each representation, in the order of every table."""
    return tuple(label for label, *_ in representations(params))


class SpectrumTable:
    """The eigenvalues of Cay(V_8n, S), one per representation, from the
    summed class-map rows of S (reps, m + phi(m)).

    `all_integral` is given: it is whether S is a union of rational classes
    (`group.ClassMasks.rational`).  That holds iff every eigenvalue is an
    integer.  If S is such a union, x -> x^k permutes S for each k coprime
    to 8n and maps each class into a class, and the Galois automorphism
    zeta -> zeta^k sends chi(x) to chi(x^k).  So each numerator
    sum_{s in S} chi(s) is fixed by the Galois group of Q(zeta_8n), hence
    rational; it is an algebraic integer, hence an integer k, and k / d is a
    rational eigenvalue of an integer matrix, hence an integer.  Conversely,
    if every numerator is rational, the class function 1_S and its image
    under x -> x^k have the same inner product with every character, so
    they are equal: S is closed under the k-th powers.

    `integers`, on an integral table, sums the class map's per-n vectors
    of the rational classes in S (`rational`) and reads no rows.
    `values` and `integer_values` read `_sums`, the summed rows, built on
    the first read of either.  `values` is the read-only float vector of
    the eigenvalues, in the order of `rep_labels`: one array pass over the
    nonzero coefficients of the numerator rows, each product the IEEE
    product a scalar loop would make, and each row's products summed by
    `math.fsum`, correctly rounded (+0.0 for a row with none).
    `integer_values` is k / d where a reduced row is an integer k that the
    degree d divides, and None elsewhere, recomputed on each read.
    """

    def __init__(self, connection: ConnectionSet, class_map: _ClassMap, all_integral: bool) -> None:
        self.connection = connection
        self.all_integral = all_integral
        self._class_map = class_map

    @property
    def params(self) -> GroupParams:
        return self.connection.params

    @cached_property
    def _sums(self) -> np.ndarray:
        stacked = self._class_map.stacked
        return stacked.take(self.connection.class_indices, axis=0).sum(axis=0)

    @property
    def integer_values(self) -> list[Optional[int]]:
        reduced = self._sums[:, len(self._class_map.re_roots) :]
        k, rest = np.divmod(reduced[:, 0], self._class_map.degrees)
        is_int = (rest == 0) & ~reduced[:, 1:].any(axis=1)
        return [k if i else None for k, i in zip(k.tolist(), is_int.tolist())]

    @cached_property
    def integers(self) -> tuple[int, ...]:
        if not self.all_integral:
            raise ValueError("only an integral spectrum has integer eigenvalues")
        bits = self.connection.bits
        vectors = self._class_map.rational
        return tuple(map(sum, zip(*[vector for mask, vector in vectors if bits & mask])))

    @cached_property
    def values(self) -> np.ndarray:
        re_roots = self._class_map.re_roots
        coeffs = self._sums[:, : len(re_roots)]
        rows, cols = coeffs.nonzero()  # row-major, so each row's products are one slice
        products = (coeffs[rows, cols] * re_roots[cols]).tolist()
        ends = np.bincount(rows, minlength=len(coeffs)).cumsum().tolist()
        numerators = [math.fsum(products[start:end]) for start, end in zip([0, *ends], ends)]
        return _read_only(np.array(numerators) / self._class_map.degrees)


def eigenvalues(connection: ConnectionSet) -> SpectrumTable:
    """Per-representation eigenvalues of Cay(V_8n, S), exact and numeric.

    Each value is real: the table check gives chi(c^-1) = conj chi(c), and S
    is inverse-closed (`validate_connection_set` and
    `enumerate_connection_sets` ensure it), so each numerator is its conjugate.

    `all_integral` is decided here on the set's class bits alone: S is a
    union of rational classes.  `integers` sums the per-n vectors of those
    rational classes.  The rows of the classes of S are summed on the first
    read of `values` or `integer_values`, once, so a caller that reads only
    `all_integral` or `integers` sums none.
    """
    params = connection.params
    all_integral = class_masks(params).is_rational_union(connection.bits)
    return SpectrumTable(connection, _class_map(params), all_integral)
