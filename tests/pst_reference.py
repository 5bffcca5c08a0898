"""References for the transfer decision in `v8npst.pst`.

Three independent pieces:

- The per-pair decision as it was before `pst` decided each graph once:
  every vertex pair is walked through the region no-gos, the displacement
  test, integrality and the valuation pattern on its own.  Tests compare
  the per-graph decision against it.  It reads the valuation patterns
  (`_least_gaps_are` with `ODD_PATTERN`, `classify_graph_type`) and
  `gap_gcd` through the `pst` module.  The decision reads
  `pst._least_gaps_are` too, so a test that patches it patches both sides.
- The valuation patterns as they were before `pst` stated each one as a
  named set of least gaps: per-kind valuation dicts of `nu2`, a baseline
  gap, and lists of groups that must equal it or exceed it
  (`reference_odd_pattern`, `reference_graph_type`).  Tests compare the
  pattern flags against these.
- `PlantedTable`, a spectrum planted as one value per representation,
  holding only what the decision and `gap_gcd` read.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from v8npst import pst
from v8npst.group import GroupParams, region
from v8npst.pst import (
    PstVerdict,
    SameVertex,
    TypeClassification,
    WrongParity,
    gap_gcd,
)
from v8npst.spectrum import SpectrumTable, representations

INF = float("inf")


def nu2(x: int):
    """2-adic valuation; nu2(0) = +infinity."""
    if x == 0:
        return INF
    x = abs(x)
    return (x & -x).bit_length() - 1


class PlantedTable:
    """`params`, `all_integral` and `integers` of a planted spectrum: one
    value per representation, in table order, None where it is not an
    integer.  Like a `SpectrumTable`, it has `integers` only if integral."""

    def __init__(self, params: GroupParams, values: Sequence[Optional[int]]) -> None:
        self.params, self.all_integral, self._values = params, None not in values, tuple(values)

    @property
    def integers(self) -> tuple[int, ...]:
        if not self.all_integral:
            raise ValueError("only an integral spectrum has integer eigenvalues")
        return self._values


class _GapValuations:
    """Valuations nu2(alpha_1 - lambda) of every gap, per kind by index."""

    def __init__(self, table: SpectrumTable) -> None:
        self.alpha, self.beta, self.gamma = {}, {}, {}
        alpha1 = table.integers[0]
        for (_, kind, index, _), k in zip(representations(table.params), table.integers):
            getattr(self, kind)[index] = nu2(alpha1 - k)


def reference_odd_pattern(table: SpectrumTable) -> bool:
    """All beta gaps share nu2(alpha_1 - beta_0); alpha and gamma gaps exceed it."""
    g = _GapValuations(table)
    base = g.beta[0]
    if base == INF:
        return False
    if any(val != base for val in g.beta.values()):
        return False
    others = [g.alpha[i] for i in (2, 3, 4)] + list(g.gamma.values())
    return all(val > base for val in others)


def reference_graph_type(table: SpectrumTable) -> TypeClassification:
    """Type 1/2/3 valuation patterns (even n only)."""
    if table.params.is_odd:
        raise WrongParity("graph types are defined for even n only")
    if not table.all_integral:
        return TypeClassification(False, False, False)
    g = _GapValuations(table)
    beta_odd = [val for j, val in g.beta.items() if j % 2 == 1]
    beta_even = [val for j, val in g.beta.items() if j % 2 == 0]
    gamma_odd = [val for k, val in g.gamma.items() if k % 2 == 1]
    gamma_even = [val for k, val in g.gamma.items() if k % 2 == 0]

    def pattern(base, equal_groups, greater_groups) -> bool:
        if base == INF:
            return False
        equal = [val for grp in equal_groups for val in grp]
        greater = [val for grp in greater_groups for val in grp]
        return all(v == base for v in equal) and all(v > base for v in greater)

    alpha_even = [g.alpha[i] for i in (2, 4, 6, 8)]
    alpha_odd = [g.alpha[i] for i in (3, 5, 7)]

    type1 = pattern(
        g.beta[1] if 1 in g.beta else INF,
        [beta_odd, gamma_odd],
        [alpha_even, alpha_odd, beta_even, gamma_even],
    )
    type2 = pattern(
        g.alpha[2],
        [alpha_even, beta_odd, gamma_even],
        [alpha_odd, beta_even, gamma_odd],
    )
    type3 = pattern(
        g.alpha[2],
        [alpha_even, gamma_odd, gamma_even],
        [alpha_odd, beta_odd, beta_even],
    )
    return TypeClassification(type1, type2, type3)

_BLOCK_PAIRS = ({1, 2}, {1, 4}, {2, 3}, {3, 4})


def _blocked_clause(params, u: int, v: int, same_region_blocked: bool) -> Optional[str]:
    """First region pair that rules the pair out, if any."""
    ru, rv = region(params, u), region(params, v)
    pair = {ru, rv}
    if pair in ({1, 3}, {2, 4}):
        return None
    if len(pair) == 1 and not same_region_blocked:
        return None
    for union in _BLOCK_PAIRS:
        if pair <= union:
            members = sorted(union)
            return f"no-pst:region-block:V{members[0]}V{members[1]}"
    raise AssertionError("unreachable region combination")


def _verdict(u, v, clause, table=None) -> PstVerdict:
    if table is None:
        return PstVerdict(u=u, v=v, has_pst=False, clause=clause)
    M = gap_gcd(table)
    return PstVerdict(
        u=u, v=v, has_pst=True, clause=clause, M=M, min_time=math.pi / M
    )


def classify_pair_odd(table: SpectrumTable, u: int, v: int) -> PstVerdict:
    """Decision for odd n: region no-gos, then displacement +-4n,
    integrality, and the beta-baseline valuation pattern."""
    params = table.params
    if not params.is_odd:
        raise WrongParity("classify_pair_odd requires odd n")
    if u == v:
        raise SameVertex("perfect state transfer needs two distinct vertices")
    blocked = _blocked_clause(params, u, v, same_region_blocked=True)
    if blocked is not None:
        return _verdict(u, v, blocked)
    if u - v not in (4 * params.n, -4 * params.n):
        return _verdict(u, v, "no-pst:displacement")
    if not table.all_integral:
        return _verdict(u, v, "no-pst:non-integral")
    if not pst._least_gaps_are(table, pst.ODD_PATTERN)[1][0]:
        return _verdict(u, v, "no-pst:valuation")
    return _verdict(u, v, "pst:odd-antipodal", table)


def classify_pair_even(table: SpectrumTable, u: int, v: int) -> PstVerdict:
    """Decision for even n via the Type 1/2/3 patterns."""
    params = table.params
    if params.is_odd:
        raise WrongParity("classify_pair_even requires even n")
    if u == v:
        raise SameVertex("perfect state transfer needs two distinct vertices")
    blocked = _blocked_clause(params, u, v, same_region_blocked=False)
    if blocked is not None:
        return _verdict(u, v, blocked)
    n = params.n
    d = u - v
    same_region = region(params, u) == region(params, v)
    if same_region:
        if d not in (n, -n):
            return _verdict(u, v, "no-pst:displacement")
        if not table.all_integral:
            return _verdict(u, v, "no-pst:non-integral")
        types = pst.classify_graph_type(table)
        if n % 4 == 0 and types.type1:
            return _verdict(u, v, "pst:type1-same-region", table)
        if n % 4 == 2 and types.type2:
            return _verdict(u, v, "pst:type2-same-region", table)
        return _verdict(u, v, "no-pst:valuation")
    # opposite blocks V1<->V3 or V2<->V4
    if d in (4 * n, -4 * n):
        if not table.all_integral:
            return _verdict(u, v, "no-pst:non-integral")
        if pst.classify_graph_type(table).type3:
            return _verdict(u, v, "pst:type3-antipodal", table)
        return _verdict(u, v, "no-pst:valuation")
    if d in (3 * n, -3 * n, 5 * n, -5 * n):
        if not table.all_integral:
            return _verdict(u, v, "no-pst:non-integral")
        types = pst.classify_graph_type(table)
        if n % 4 == 0 and types.type2:
            return _verdict(u, v, "pst:type2-cross", table)
        if n % 4 == 2 and types.type1:
            return _verdict(u, v, "pst:type1-cross", table)
        return _verdict(u, v, "no-pst:valuation")
    return _verdict(u, v, "no-pst:displacement")


def classify_pair(table: SpectrumTable, u: int, v: int) -> PstVerdict:
    if table.params.is_odd:
        return classify_pair_odd(table, u, v)
    return classify_pair_even(table, u, v)


def reference_pairs(table: SpectrumTable) -> tuple[PstVerdict, ...]:
    """Every unordered pair (u < v) with perfect state transfer."""
    order = table.params.order
    out = []
    for u in range(order):
        for v in range(u + 1, order):
            verdict = classify_pair(table, u, v)
            if verdict.has_pst:
                out.append(verdict)
    return tuple(out)
