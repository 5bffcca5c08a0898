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
Z[zeta_4n]: unreduced, reduced mod Phi_4n, and the reduced imaginary part.
A spectrum is then a sum of integer rows over the classes of S, and
realness and integrality are decided exactly on those sums: lambda is real
iff the imaginary row is zero, and an integer iff the reduced row is an
integer k with d | k.  `CycloInt` arithmetic only builds the table and the
map.  The float value, evaluated from the unreduced row, serves only for
display and for the numerical oracle.  The paper's closed-form eigenbasis
is kept with the tests (tests/spectrum_reference.py), which check it
against these eigenvalues and the dense adjacency matrix.

Few of these sums are distinct: `search --n 7 --max-classes 4` meets 490
distinct (representation, integer row) pairs among 2,584, and the full
n = 8 search 26,460 among 1,216,512.  `eigenvalues` therefore takes a memo
from (representation index, numerator row) to the finished `Eigenvalue`.
The caller owns it: `search` keeps one for one enumeration and drops it
when it returns; nothing keeps one for the life of the process.  One memo
serves one n and one character table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cyclotomic import cyclotomic_polynomial, reduced_powers, unit_roots
from .group import ConnectionSet, GroupParams, conjugacy_classes
from .characters import RepDescriptor, character_table, rep_descriptors

_KIND_BY_REP = {"theta": "alpha", "psi": "beta", "phi": "gamma"}


class NonRealEigenvalue(ArithmeticError):
    """A character sum over S is not real: S is not inverse-closed, or the
    character table is wrong."""


@dataclass(frozen=True)
class Eigenvalue:
    label: str
    kind: str  # alpha | beta | gamma
    index: int
    multiplicity: int
    value: float
    is_integer: bool
    integer_value: Optional[int]


@dataclass(frozen=True)
class SpectrumTable:
    connection: ConnectionSet
    eigenvalues: tuple[Eigenvalue, ...]
    all_integral: bool

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
    class c, `stacked[rho, c]` holds three coefficient vectors of
    |c| * chi_rho(c), side by side:

      [:m]           over zeta^0 .. zeta^{m-1}, as the table writes it;
      [m:m+phi]      reduced mod Phi_m (row e of the reduction is the
                     reduced form of zeta^e);
      [m+phi:]       the reduced form of the value minus its conjugate.

    All three are linear in the coefficients, so their sums over the classes
    of S are the eigenvalue numerator, its reduced form and its imaginary
    part.  Entries are class sizes times coefficients of a few units, so the
    int64 sums are exact.
    """

    table: tuple  # the character table the map was built from
    stacked: np.ndarray  # int64, (reps, classes, m + 2 * phi)
    reps: tuple[tuple[RepDescriptor, str, str], ...]  # descriptor, label, kind
    phi: int  # degree of Phi_m
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
    m = 4 * params.n
    sizes = [len(c) for c in conjugacy_classes(params)]
    unreduced = np.array(
        [[[size * x for x in entry.c] for size, entry in zip(sizes, row)] for row in table],
        dtype=np.int64,
    )
    reduce = np.array(reduced_powers(m), dtype=np.int64)
    conj_reduce = reduce[(-np.arange(m)) % m]
    stacked = np.concatenate(
        [unreduced, unreduced @ reduce, unreduced @ (reduce - conj_reduce)], axis=2
    )
    reps = tuple(
        (desc, f"{_KIND_BY_REP[desc.kind]}_{desc.index}", _KIND_BY_REP[desc.kind])
        for desc in rep_descriptors(params)
    )
    return _ClassMap(
        table=table,
        stacked=stacked,
        reps=reps,
        phi=len(cyclotomic_polynomial(m)) - 1,
        re_roots=tuple(z.real for z in unit_roots(m)),
    )


def eigenvalues(
    connection: ConnectionSet, memo: Optional[dict[tuple, Eigenvalue]] = None
) -> SpectrumTable:
    """Per-representation eigenvalues of Cay(V_8n, S), exact and numeric.

    `memo` maps (representation index, tuple of the summed numerator row)
    to the finished `Eigenvalue`; pass one dict to every call of one
    enumeration to build each distinct eigenvalue once (None: a fresh dict).
    The reduced and imaginary rows are images of the numerator row under the
    same class map, so that row alone determines the entry.  An entry is
    stored only after its realness check passes, so a hit never skips a
    `NonRealEigenvalue`.  The memo holds entries of one n and one character
    table; it must not outlive either.
    """
    if memo is None:
        memo = {}
    m = 4 * connection.params.n
    class_map = _class_map(connection.params)
    phi, re_roots = class_map.phi, class_map.re_roots
    sums = class_map.stacked[:, list(connection.class_indices)].sum(axis=1).tolist()
    entries = []
    for rep, (row, (desc, label, kind)) in enumerate(zip(sums, class_map.reps)):
        num = row[:m]
        key = (rep, tuple(num))
        ev = memo.get(key)
        if ev is None:
            reduced, imaginary = row[m : m + phi], row[m + phi :]
            if any(imaginary):
                raise NonRealEigenvalue(
                    f"eigenvalue for {desc} is not real: numerator coefficients {num}"
                )
            den = desc.degree
            k = reduced[0]
            is_int = not any(reduced[1:]) and k % den == 0
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
    table_out = SpectrumTable(
        connection=connection,
        eigenvalues=tuple(entries),
        all_integral=all(e.is_integer for e in entries),
    )
    _check_consistency(table_out)
    return table_out


def _check_consistency(table: SpectrumTable) -> None:
    """The spectral identities every Cayley graph spectrum satisfies."""
    order = table.params.order
    size = len(table.connection)
    total_mult = sum(e.multiplicity for e in table.eigenvalues)
    if total_mult != order:
        raise RuntimeError("eigenvalue multiplicities do not sum to 8n")
    alpha1 = table.alpha(1)
    if not abs(alpha1.value - size) < 1e-9:
        raise RuntimeError("alpha_1 must equal |S|")
    trace = sum(e.multiplicity * e.value for e in table.eigenvalues)
    if not abs(trace) < 1e-7 * max(1.0, size):
        raise RuntimeError("trace identity violated")
    second = sum(e.multiplicity * e.value ** 2 for e in table.eigenvalues)
    if not abs(second - order * size) < 1e-6 * max(1.0, order * size):
        raise RuntimeError("second-moment identity violated")
