"""References for `v8npst.spectrum`.

Two independent pieces:

- `eigenvalues` is the computation as it was before `spectrum` summed rows
  of a per-n integer class map: every numerator is built as a `CycloInt`,
  one addition and scalar product per class per representation, and
  reduced mod Phi_4n on its own.  The character table and the classes are
  read through the `spectrum` module, so a test that patches them patches
  both sides.  Tests compare its `Row`s with the `rows` of a
  `spectrum.SpectrumTable`, floats included, bit for bit.
- `eigenvectors` is the paper's printed orthonormal eigenbasis of C^{8n},
  one labelled column per eigenvalue and multiplicity.  It does not depend
  on S; tests check that it diagonalises the dense adjacency matrix of
  every set with the eigenvalues of `spectrum`, and that the oracle's
  closed-form projectors are its outer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from v8npst import spectrum
from v8npst.characters import rep_descriptors
from v8npst.cyclotomic import CycloInt
from v8npst.group import ConnectionSet
from v8npst.spectrum import NonRealEigenvalue, SpectrumTable

from cyclotomic_reference import as_integer, is_real

_KIND_BY_REP = {"theta": "alpha", "psi": "beta", "phi": "gamma"}


class Row(NamedTuple):  # one representation's eigenvalue
    label: str
    kind: str  # alpha | beta | gamma
    index: int
    multiplicity: int
    value: float
    is_integer: bool
    integer_value: Optional[int]


def rows(table: SpectrumTable) -> tuple[Row, ...]:
    """The rows of a table, alpha_1 first, from `spectrum.representations`,
    `values` and `integer_values`."""
    return tuple(
        Row(*rep, value, k is not None, k)
        for rep, value, k in zip(
            spectrum.representations(table.params), table.values.tolist(), table.integer_values
        )
    )


def eigenvalues(connection: ConnectionSet) -> tuple[Row, ...]:
    """Per-representation eigenvalues of Cay(V_8n, S), exact and numeric."""
    params = connection.params
    classes = spectrum.conjugacy_classes(params)
    table = spectrum.character_table(params)
    m = 4 * params.n
    entries = []
    for row, desc in zip(table, rep_descriptors(params)):
        num = CycloInt.zero(m)
        for ci in connection.class_indices:
            num = num + len(classes[ci]) * row[ci]
        den = desc.degree
        if not is_real(num):
            raise NonRealEigenvalue(f"eigenvalue for {desc} is not real: {num.c}")
        k = as_integer(num)
        is_int = k is not None and k % den == 0
        kind, integer = _KIND_BY_REP[desc.kind], (k // den if is_int else None)
        value = num.value().real / den
        entries.append(Row(f"{kind}_{desc.index}", kind, desc.index, den**2, value, is_int, integer))
    return tuple(entries)


@dataclass(frozen=True)
class EigenvectorSet:
    """Columns of `matrix` are the closed-form eigenvectors; labels[i] names
    the eigenvalue of column i (repeated according to multiplicity)."""

    connection: ConnectionSet
    labels: tuple[str, ...]
    matrix: np.ndarray


def eigenvectors(connection: ConnectionSet) -> EigenvectorSet:
    """The printed orthonormal eigenbasis of C^{8n} (independent of S)."""
    params = connection.params
    n = params.n
    two_n = params.two_n
    r = np.arange(two_n)
    zeros = np.zeros(two_n, dtype=complex)
    cols: list[np.ndarray] = []
    labels: list[str] = []
    s8 = 1.0 / np.sqrt(8 * n)
    s4 = 1.0 / np.sqrt(4 * n)
    omega = np.exp(1j * np.pi / n)

    def add(label: str, v1, v2, v3, v4, scale) -> None:
        cols.append(scale * np.concatenate([v1, v2, v3, v4]))
        labels.append(label)

    ones = np.ones(two_n, dtype=complex)
    alt = (-1.0 + 0j) ** r  # 1, -1, 1, -1, ...

    if params.is_odd:
        add("alpha_1", ones, ones, ones, ones, s8)
        add("alpha_2", ones, -ones, ones, -ones, s8)
        add("alpha_3", alt, alt, alt, alt, s8)
        add("alpha_4", alt, -alt, alt, -alt, s8)
        for j in range(n):
            w = omega ** (2 * r * j)
            wneg = (-omega ** (-2 * j)) ** r
            wpos = (-omega ** (2 * j)) ** r
            add(f"beta_{j}", w, zeros, -w, zeros, s4)
            add(f"beta_{j}", zeros, w, zeros, -w, s4)
            add(f"beta_{j}", zeros, -wneg, zeros, wneg, s4)
            add(f"beta_{j}", wpos, zeros, -wpos, zeros, s4)
        for k in range(1, n):
            w = omega ** (r * k)
            wc = omega ** (-r * k)
            add(f"gamma_{k}", w, zeros, w, zeros, s4)
            add(f"gamma_{k}", zeros, w, zeros, w, s4)
            add(f"gamma_{k}", zeros, wc, zeros, wc, s4)
            add(f"gamma_{k}", wc, zeros, wc, zeros, s4)
    else:
        i_r = 1j ** r
        mi_r = (-1j) ** r
        add("alpha_1", ones, ones, ones, ones, s8)
        add("alpha_2", i_r, i_r * 1j ** 3, -i_r, i_r * 1j, s8)
        add("alpha_3", alt, -alt, alt, -alt, s8)
        add("alpha_4", mi_r, mi_r * (-1j) ** 3, mi_r * (-1j) ** 2, mi_r * (-1j), s8)
        add("alpha_5", ones, -ones, ones, -ones, s8)
        add("alpha_6", i_r, i_r * 1j, i_r * 1j ** 2, i_r * 1j ** 3, s8)
        add("alpha_7", alt, alt, alt, alt, s8)
        add("alpha_8", mi_r, mi_r * (-1j), mi_r * (-1j) ** 2, mi_r * (-1j) ** 3, s8)
        for j in range(1, n):
            w = omega ** (r * j)
            wc = omega ** (-r * j)
            add(f"beta_{j}", w, zeros, w, zeros, s4)
            add(f"beta_{j}", zeros, 1j * w, zeros, 1j * w, s4)
            add(f"beta_{j}", zeros, -1j * wc, zeros, -1j * wc, s4)
            add(f"beta_{j}", wc, zeros, wc, zeros, s4)
        for k in range(1, n):
            z = (1j * omega ** k) ** r
            zc = (1j * omega ** (-k)) ** r
            add(f"gamma_{k}", z, zeros, -z, zeros, s4)
            add(f"gamma_{k}", zeros, z, zeros, -z, s4)
            add(f"gamma_{k}", zeros, -zc, zeros, zc, s4)
            add(f"gamma_{k}", zc, zeros, -zc, zeros, s4)

    V = np.column_stack(cols)
    if V.shape != (params.order, params.order):
        raise RuntimeError(f"eigenbasis has shape {V.shape}, not {params.order} square")
    return EigenvectorSet(connection=connection, labels=tuple(labels), matrix=V)
