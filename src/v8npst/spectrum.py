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
the classes of S, and integrality is decided exactly on the sum: lambda is
an integer iff the reduced row is an integer k with d | k.  `CycloInt`
arithmetic only builds the table and the map.  The float value, evaluated
from the unreduced row, serves only for display and for the numerical
oracle.  The paper's closed-form eigenbasis is kept with the tests
(tests/spectrum_reference.py), which check it against these eigenvalues
and the dense adjacency matrix.

A search rejects most sets on integrality alone, so `eigenvalues` sums
the rows once and decides `all_integral` from the sums at once, exactly;
the per-representation `Eigenvalue` tuple is built only when a table's
`eigenvalues` is first read.  On `search --n 7 --max-classes 4` only 8 of
152 tables are integral, and without `--verify` nothing reads the other
144 past `all_integral`.

Few of the sums are distinct: `search --n 7 --max-classes 4` meets 490
distinct (representation, integer row) pairs among 2,584, and the full
n = 8 search 26,460 among 1,216,512.  Building the tuple therefore reads a
memo from (representation index, numerator row) to the finished
`Eigenvalue`.  The caller owns it: `search` keeps one for one enumeration
and drops it when it returns; nothing keeps one for the life of the
process.  One memo serves one n and one character table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .cyclotomic import reduced_powers, unit_roots
from .group import ConnectionSet, GroupParams, class_masks, conjugacy_classes
from .characters import RepDescriptor, character_table, rep_descriptors

_KIND_BY_REP = {"theta": "alpha", "psi": "beta", "phi": "gamma"}


class NonRealEigenvalue(ArithmeticError):
    """The character table breaks chi(c^-1) = conj chi(c), so character sums
    over an inverse-closed S would not all be real."""


@dataclass(frozen=True)
class Eigenvalue:
    label: str
    kind: str  # alpha | beta | gamma
    index: int
    multiplicity: int
    value: float
    is_integer: bool
    integer_value: Optional[int]


class SpectrumTable:
    """The eigenvalues of Cay(V_8n, S), one per representation.

    `all_integral` is fixed when the table is made.  `eigenvalues` is given
    either as the tuple or as a function of no arguments that returns it;
    the function runs on the first read of `eigenvalues`, and only then.
    """

    def __init__(
        self,
        connection: ConnectionSet,
        eigenvalues: Union[tuple[Eigenvalue, ...], Callable[[], tuple[Eigenvalue, ...]]],
        all_integral: bool,
    ) -> None:
        self.connection = connection
        self.all_integral = all_integral
        self._eigenvalues = eigenvalues

    @cached_property
    def eigenvalues(self) -> tuple[Eigenvalue, ...]:
        entries = self._eigenvalues
        return entries() if callable(entries) else entries

    @property
    def params(self) -> GroupParams:
        return self.connection.params

    def by_label(self, label: str) -> Eigenvalue:
        for ev in self.eigenvalues:
            if ev.label == label:
                return ev
        raise KeyError(label)

    def alpha(self, i: int) -> Eigenvalue:
        return self.by_label(f"alpha_{i}")


class _ClassMap(NamedTuple):
    """The spectrum as an integer linear map of the class indicator of S.

    Built once per n from one character table.  For representation rho and
    class c, `stacked[rho, c]` holds two coefficient vectors of
    |c| * chi_rho(c), side by side:

      [:m]    over zeta^0 .. zeta^{m-1}, as the table writes it;
      [m:]    reduced mod Phi_m (row e of the reduction is the reduced form
              of zeta^e).

    Both are linear in the coefficients, so their sums over the classes of
    S are the eigenvalue numerator and its reduced form.  Entries are class
    sizes times coefficients of a few units, so the int64 sums are exact.
    """

    table: tuple  # the character table the map was built from
    stacked: np.ndarray  # int64, (reps, classes, m + phi(m))
    reps: tuple[tuple[RepDescriptor, str, str], ...]  # descriptor, label, kind
    degrees: np.ndarray  # int64, (reps,): the degree d of each representation
    re_roots: tuple[float, ...]  # Re zeta^e for e = 0 .. m-1


_class_maps: dict[GroupParams, _ClassMap] = {}


def _class_map(params: GroupParams) -> _ClassMap:
    """The cached map, rebuilt whenever `character_table` returns a new table."""
    table = character_table(params)
    cached = _class_maps.get(params)
    if cached is None or cached.table is not table:
        cached = _class_maps[params] = _build_class_map(params, table)
    return cached


def _build_class_map(params: GroupParams, table) -> _ClassMap:
    """The map of `table`, built after checking the table exactly mod Phi_m.

    The checks, in order: chi(c^-1) = conj chi(c); theta_1 = 1; chi(1) = d;
    column orthogonality.  Over an inverse-closed S they make every lambda
    real, alpha_1 = |S|, the degrees' squares sum to 8n, the trace 0 and the
    second moment 8n|S| (Isaacs, Character Theory of Finite Groups, ch. 2).
    """
    m = 4 * params.n
    classes = conjugacy_classes(params)
    sizes = [len(c) for c in classes]
    unreduced = np.array(
        [[[size * x for x in entry.c] for size, entry in zip(sizes, row)] for row in table],
        dtype=np.int64,
    )
    reduce = np.array(reduced_powers(m), dtype=np.int64)
    descs = rep_descriptors(params)

    def is_integer(coeffs, k) -> bool:
        """Each coefficient vector reduces to the integer k (broadcast)."""
        reduced = coeffs @ reduce
        return bool((reduced[..., 0] == k).all() and not reduced[..., 1:].any())

    conj = unreduced[:, :, (-np.arange(m)) % m]
    inverse = [bit.bit_length() - 1 for bit in class_masks(params).inverse_bit]
    if not is_integer(unreduced[:, inverse] - conj, 0):
        raise NonRealEigenvalue("chi(c^-1) != conj chi(c) for some c: eigenvalues not real")
    if not is_integer(unreduced[0], sizes):
        raise RuntimeError("theta_1 is not 1 on every class: alpha_1 must equal |S|")
    if not is_integer(unreduced[:, 0], [d.degree for d in descs]):  # class 0 is {1}
        raise RuntimeError("the identity column of the character table is not the degrees")
    # sum_rho |c| chi_rho(c) conj(|d| chi_rho(d)) = delta_cd 8n |c|, one class c at
    # a time: coefficient k sums conj[rho, d, i] * unreduced[rho, c, k - i]
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    for c, size in enumerate(sizes):
        gram = np.tensordot(conj, unreduced[:, c][:, shift], ([0, 2], [0, 1]))
        if not is_integer(gram, params.order * size * (np.arange(len(sizes)) == c)):
            raise RuntimeError(f"column orthogonality fails at class {classes[c].tag}")
    return _ClassMap(
        table=table,
        stacked=np.concatenate([unreduced, unreduced @ reduce], axis=2),
        reps=tuple(
            (desc, f"{_KIND_BY_REP[desc.kind]}_{desc.index}", _KIND_BY_REP[desc.kind])
            for desc in descs
        ),
        degrees=np.array([d.degree for d in descs], dtype=np.int64),
        re_roots=tuple(z.real for z in unit_roots(m)),
    )


def eigenvalues(
    connection: ConnectionSet, memo: Optional[dict[tuple, Eigenvalue]] = None
) -> SpectrumTable:
    """Per-representation eigenvalues of Cay(V_8n, S), exact and numeric.

    Each value is real: the table check gives chi(c^-1) = conj chi(c), and S
    is inverse-closed (`validate_connection_set` and
    `enumerate_connection_sets` ensure it), so each numerator is its conjugate.

    The rows of the classes of S are summed here, once, and `all_integral`
    is decided on the sums: every reduced row is an integer k with d | k.
    The `Eigenvalue` tuple is built from the same sums and the same class
    map on the first read of the table's `eigenvalues`, so a caller that
    reads only `all_integral` never pays for it.

    `memo` maps (representation index, tuple of the summed numerator row)
    to the finished `Eigenvalue`; pass one dict to every call of one
    enumeration to build each distinct eigenvalue once (None: a fresh dict).
    The reduced row is the image of the numerator row under the same class
    map, so that row alone determines the entry.  The memo holds entries of
    one n and one character table; it must not outlive either.  It is read
    and filled only when a table's tuple is built.
    """
    m = 4 * connection.params.n
    class_map = _class_map(connection.params)
    sums = class_map.stacked.take(connection.class_indices, axis=1).sum(axis=1)
    reduced = sums[:, m:]
    return SpectrumTable(
        connection=connection,
        eigenvalues=partial(_entries, class_map, sums, memo),
        all_integral=not np.count_nonzero(reduced[:, 1:])
        and not np.count_nonzero(reduced[:, 0] % class_map.degrees),
    )


def _entries(
    class_map: _ClassMap, sums: np.ndarray, memo: Optional[dict[tuple, Eigenvalue]]
) -> tuple[Eigenvalue, ...]:
    """The `Eigenvalue` per representation from the summed rows of one set."""
    if memo is None:
        memo = {}
    re_roots = class_map.re_roots
    m = len(re_roots)
    entries = []
    for rep, (row, (desc, label, kind)) in enumerate(zip(sums.tolist(), class_map.reps)):
        num = row[:m]
        key = (rep, tuple(num))
        ev = memo.get(key)
        if ev is None:
            den = desc.degree
            k = row[m]  # the reduced row is row[m:]
            is_int = not any(row[m + 1 :]) and k % den == 0
            ev = memo[key] = Eigenvalue(
                label=label,
                kind=kind,
                index=desc.index,
                multiplicity=den**2,
                value=math.fsum([c * r for c, r in zip(num, re_roots) if c]) / den,
                is_integer=is_int,
                integer_value=k // den if is_int else None,
            )
        entries.append(ev)
    return tuple(entries)
