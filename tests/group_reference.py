"""Element-level reference for connection-set checks in `v8npst.group`.

`enumerate_connection_sets` is the enumeration as it was before `group`
decided symmetry and generation from per-n class bitmasks: every union of
classes is checked element by element for inverse-closure, and its
generated subgroup is computed by `generated_subgroup`, a BFS over the
per-n multiplication table that `product_table` builds once from
`multiply`.  `is_normal_subset` is the Sg = gS
normality test that `validate_connection_set` once asserted against its
class-union test.  `conjugate` gives the conjugation orbits that the
listed conjugacy classes are checked against.  `rational_classes` is the
partition into rational classes by a second definition: x ~ y iff the
cyclic subgroups <x> and <y> are conjugate.  Tests compare the mask-based
code against all four.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from v8npst.group import (
    IDENTITY,
    ConnectionSet,
    GroupElement,
    GroupParams,
    all_elements,
    conjugacy_classes,
    inverse,
    multiply,
    vertex_index,
)


@lru_cache(maxsize=None)
def product_table(params: GroupParams) -> tuple[tuple[int, ...], ...]:
    """T[i][j] = vertex index of g_i g_j, from `multiply`, once per n."""
    elements = all_elements(params)
    return tuple(
        tuple(vertex_index(params, multiply(params, x, y)) for y in elements)
        for x in elements
    )


def generated_subgroup(
    params: GroupParams, members: Iterable[GroupElement]
) -> frozenset[GroupElement]:
    """<members>, by BFS from the identity over `product_table`: each level
    right-multiplies the elements the last level reached first by every
    generator."""
    table = product_table(params)
    gens = [vertex_index(params, x) for x in members]
    seen = {0}
    frontier = {0}
    while frontier:
        frontier = {table[x][g] for x in frontier for g in gens} - seen
        seen |= frontier
    elements = all_elements(params)
    return frozenset(elements[i] for i in seen)


def conjugate(params: GroupParams, g: GroupElement, x: GroupElement) -> GroupElement:
    """g x g^{-1}."""
    return multiply(params, multiply(params, g, x), inverse(params, g))


def is_normal_subset(params: GroupParams, members: frozenset[GroupElement]) -> bool:
    """Sg = gS for every g; must agree with the union-of-classes test."""
    for g in all_elements(params):
        left = {multiply(params, g, s) for s in members}
        right = {multiply(params, s, g) for s in members}
        if left != right:
            return False
    return True


def rational_classes(params: GroupParams) -> set[frozenset[GroupElement]]:
    """The classes of x ~ y iff <x> and <y> are conjugate subgroups."""
    elements = all_elements(params)
    cyclic = {x: generated_subgroup(params, [x]) for x in elements}
    blocks = set()
    placed: set[GroupElement] = set()
    for x in elements:
        if x in placed:
            continue
        conjugates = {frozenset(conjugate(params, g, y) for y in cyclic[x]) for g in elements}
        block = frozenset(y for y in elements if cyclic[y] in conjugates)
        blocks.add(block)
        placed |= block
    return blocks


def enumerate_connection_sets(
    params: GroupParams, max_classes: int
) -> Iterator[ConnectionSet]:
    """All valid connection sets that are unions of <= max_classes classes.

    Deterministic order: by class count, then lexicographically by the tuple
    of class indices.  Invalid unions (non-symmetric or non-generating) are
    skipped.
    """
    classes = conjugacy_classes(params)
    non_identity = [i for i, c in enumerate(classes) if IDENTITY not in c.members]
    full = frozenset(all_elements(params))
    inverses = {x: inverse(params, x) for x in full}
    for k in range(1, min(max_classes, len(non_identity)) + 1):
        for combo in itertools.combinations(non_identity, k):
            members = frozenset().union(*(classes[i].members for i in combo))
            if any(inverses[x] not in members for x in members):
                continue
            if generated_subgroup(params, members) != full:
                continue
            yield ConnectionSet(
                params=params, members=members, class_indices=tuple(combo)
            )
