"""Per-set cyclotomic reference for `v8npst.spectrum.eigenvalues`.

`eigenvalues` is the computation as it was before `spectrum` summed rows of
a per-n integer class map: every numerator is built as a `CycloInt`, one
addition and scalar product per class per representation, and reduced mod
Phi_4n on its own.  The character table and the classes are read through
the `spectrum` module, so a test that patches them patches both sides.
Tests compare the class map against it, floats included, bit for bit.
"""

from __future__ import annotations

from v8npst import spectrum
from v8npst.characters import rep_descriptors
from v8npst.cyclotomic import CycloInt
from v8npst.group import ConnectionSet
from v8npst.spectrum import Eigenvalue, NonRealEigenvalue, SpectrumTable

_KIND_BY_REP = {"theta": "alpha", "psi": "beta", "phi": "gamma"}


def eigenvalues(connection: ConnectionSet) -> SpectrumTable:
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
        if not num.is_real():
            raise NonRealEigenvalue(f"eigenvalue for {desc} is not real: {num}")
        k = num.as_integer()
        is_int = k is not None and k % den == 0
        entries.append(
            Eigenvalue(
                label=f"{_KIND_BY_REP[desc.kind]}_{desc.index}",
                kind=_KIND_BY_REP[desc.kind],
                index=desc.index,
                multiplicity=desc.degree ** 2,
                value=num.value().real / den,
                is_integer=is_int,
                integer_value=k // den if is_int else None,
            )
        )
    return SpectrumTable(
        connection=connection,
        eigenvalues=tuple(entries),
        all_integral=all(e.is_integer for e in entries),
    )
