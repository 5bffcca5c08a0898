"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from v8npst import spectrum
from v8npst.group import (
    IDENTITY,
    GroupElement,
    GroupParams,
    all_elements,
    conjugacy_classes,
    element,
    enumerate_connection_sets,
    validate_connection_set,
)


@lru_cache(maxsize=None)
def coset_oracle(n: int):
    """Independent multiplication oracle built by coset enumeration.

    The group is handed to sympy as the bare presentation
    <a, b | a^{2n}, b^4, (ba)^2, (b^{-1}a)^2> and the regular action on the
    cosets of the trivial subgroup is returned: columns of the table are the
    actions of a, a^{-1}, b, b^{-1} by right multiplication.  Nothing from
    the package's own arithmetic is involved.
    """
    from sympy.combinatorics.free_groups import free_group
    from sympy.combinatorics.fp_groups import FpGroup

    F, a, b = free_group("a b")
    G = FpGroup(F, [a ** (2 * n), b ** 4, (b * a) ** 2, (b ** -1 * a) ** 2])
    assert G.order() == 8 * n
    return G.coset_table([])


def coset_of(table, r: int, s: int) -> int:
    """Coset index of a^r b^s: act on the identity coset with the word."""
    i = 0
    for _ in range(r):
        i = table[i][0]
    for _ in range(s):
        i = table[i][2]
    return i


def coset_apply(table, i: int, x: GroupElement) -> int:
    """Right-multiply coset i by a^r b^s."""
    for _ in range(x.r):
        i = table[i][0]
    for _ in range(x.s):
        i = table[i][2]
    return i


@lru_cache(maxsize=None)
def valid_sets(n: int):
    """All valid class-union connection sets of V_8n (deterministic order)."""
    params = GroupParams(n)
    budget = len(conjugacy_classes(params))
    return tuple(enumerate_connection_sets(params, budget))


@lru_cache(maxsize=None)
def full_set(n: int):
    """Every element but the identity: the complete graph K_8n."""
    p = GroupParams(n)
    return validate_connection_set(p, [x for x in all_elements(p) if x != IDENTITY])


@lru_cache(maxsize=None)
def cp_set(n: int):
    """Everything except the central involution b^2: the cocktail-party graph."""
    p = GroupParams(n)
    skip = {IDENTITY, element(p, 0, 2)}
    return validate_connection_set(p, [x for x in all_elements(p) if x not in skip])


def eigh_entry_amplitude(lam, V, u: int, v: int, tau: float) -> float:
    """|H(tau)_{uv}| from a dense eigendecomposition of A."""
    return abs(np.sum(V[u, :] * np.exp(-1j * lam * tau) * np.conj(V[v, :])))


def eigh_full_h(lam, V, tau: float) -> np.ndarray:
    return (V * np.exp(-1j * lam * tau)) @ V.conj().T


def eigh_column_max(lam, V, times, chunk: int = 2000) -> np.ndarray:
    """max over times of |H(tau)_{w,0}| for every w, via the eigh basis."""
    c = np.conj(V[0, :])
    best = np.zeros(V.shape[0])
    for start in range(0, len(times), chunk):
        t = times[start : start + chunk]
        phases = np.exp(-1j * np.outer(lam, t)) * c[:, None]
        np.maximum(best, np.abs(V @ phases).max(axis=1), out=best)
    return best


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def fresh_class_map(monkeypatch):
    """`monkeypatch`, with `spectrum._class_map`'s cache cleared before the
    test and again after its patches are undone: a map is built, and
    checked, from a patched character table or rational partition, and is
    never kept past the test."""
    spectrum._class_map.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    spectrum._class_map.cache_clear()
