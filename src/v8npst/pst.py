"""Perfect-state-transfer decision procedure for normal Cay(V_8n, S).

The decision works entirely on the integer spectrum, the table's
`integers`: no float is evaluated.  Transfer between a vertex pair
requires the graph to be integral, the pair to sit at one of the
admissible displacements, and the gaps alpha_1 - lambda of least 2-adic
valuation to be exactly those of one named set of (kind, index % 2)
groups:

  odd n    beta even, beta odd                 (transfer at u - v = +-4n)
  Type 1   beta odd, gamma odd                 (even n)
  Type 2   alpha even, beta odd, gamma even    (even n)
  Type 3   alpha even, gamma even, gamma odd   (even n)

M = gcd(alpha_1 - lambda) is computed once per graph, and nu2(M), its
2-adic valuation, is the least valuation of the nonzero gaps: a gap has
it iff it has M's low bit M & -M set, so the least gaps are one int with
a bit per representation, compared with a per-n mask of each named set.
A spectrum has one set of least gaps, so the Types exclude one another.
For even n the admissible displacements depend on the Type and on n mod 4
(+-n within a block, +-3n/+-5n between opposite blocks, or +-4n).

None of this depends on the pair beyond its blocks and displacement, so
each graph is decided once (`decide_graph`): integrality, the odd-n
valuation pattern or the even-n Type flags, and the clause of each of
three displacement families of 4n pairs u < v each.  A non-integral graph
is settled by integrality alone, so all of them share one verdict per n.
The families are:

  antipodal    (u, u + 4n) for u < 4n; odd-antipodal (odd n, pattern) or
               type3-antipodal (even n, Type 3);
  same region  (b*2n + r, b*2n + r + n), b = 0..3, r < n (even n only);
               type1 if n = 0 mod 4, type2 if n = 2 mod 4;
  cross        (b*2n + r, (b+2)*2n + (r+n) mod 2n), b = 0, 1, r < 2n (even
               n only); type2 if n = 0 mod 4, type1 if n = 2 mod 4.

`all_pst_pairs` lists the pairs of the positive families, and
`classify_pair` looks one pair up in the same verdict: region no-go first,
then displacement, then non-integral, then valuation.  The pairs depend
on the verdict alone, so they are built once per verdict with transfer
and shared by every graph that has it: one per odd n and three per even
n for n <= 8.

When transfer exists, the minimum time is pi/M with
M = gcd(alpha_1 - lambda) over the distinct eigenvalues lambda != alpha_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Optional

from .group import GroupParams, region
from .spectrum import SpectrumTable, representations


class NotIntegral(ValueError):
    pass


class DegenerateSpectrum(ValueError):
    pass


class SameVertex(ValueError):
    pass


class WrongParity(ValueError):
    pass


def gap_gcd(table: SpectrumTable) -> int:
    """M = gcd over the distinct eigenvalue values of |alpha_1 - value|.

    Repeated and zero gaps leave a gcd unchanged, so it runs over every gap.
    """
    if not table.all_integral:
        raise NotIntegral("gap gcd requires an integral spectrum")
    alpha1, *rest = table.integers
    M = math.gcd(*[alpha1 - k for k in rest])
    if not M:
        raise DegenerateSpectrum("spectrum has a single distinct eigenvalue")
    return M


class TypeClassification(NamedTuple):
    type1: bool
    type2: bool
    type3: bool


@dataclass(frozen=True)
class PstVerdict:
    u: int
    v: int
    has_pst: bool
    clause: str
    M: Optional[int] = None
    min_time: Optional[float] = None


# The named (kind, index % 2) sets of least gaps in the module docstring.
ODD_PATTERN = frozenset({("beta", 0), ("beta", 1)})
TYPE1_PATTERN = frozenset({("beta", 1), ("gamma", 1)})
TYPE2_PATTERN = frozenset({("alpha", 0), ("beta", 1), ("gamma", 0)})
TYPE3_PATTERN = frozenset({("alpha", 0), ("gamma", 0), ("gamma", 1)})
_TYPE_PATTERNS = (TYPE1_PATTERN, TYPE2_PATTERN, TYPE3_PATTERN)


@lru_cache(maxsize=None)
def _rep_groups(params: GroupParams) -> tuple[tuple[str, int], ...]:
    """The (kind, index % 2) group of each representation, in table order."""
    return tuple((kind, index % 2) for _, kind, index, _ in representations(params))


@lru_cache(maxsize=None)
def _rep_bits(params: GroupParams) -> tuple[int, ...]:
    """Bit i for representation i, in table order."""
    return tuple([1 << i for i in range(len(_rep_groups(params)))])


@lru_cache(maxsize=None)
def _pattern_masks(params: GroupParams, patterns: tuple[frozenset, ...]) -> tuple[int, ...]:
    """Per pattern, the bits of the representations in its groups."""
    groups = _rep_groups(params)
    bits = _rep_bits(params)
    return tuple(
        [sum(bit for bit, group in zip(bits, groups) if group in pattern) for pattern in patterns]
    )


def _least_gaps_are(table: SpectrumTable, *patterns: frozenset) -> tuple[int, tuple[bool, ...]]:
    """M, and per pattern: do its groups hold all and only the gaps of least nu2?

    nu2(M) is the least valuation of the nonzero gaps, so a gap, negative
    or not, has it iff it has the bit M & -M; a zero gap, alpha_1's own
    included, has no bit.  The least gaps are one int, a bit per
    representation, compared with each pattern's per-n mask.  M = 0, when
    every gap is zero, sets no bit and matches no pattern.
    """
    integers = table.integers
    alpha1 = integers[0]
    gaps = [alpha1 - k for k in integers]
    M = math.gcd(*gaps)
    low = M & -M
    least = sum(compress(_rep_bits(table.params), [gap & low for gap in gaps]))
    return M, tuple([least == mask for mask in _pattern_masks(table.params, patterns)])


def classify_graph_type(table: SpectrumTable) -> TypeClassification:
    """Type 1/2/3 valuation patterns (even n only)."""
    if table.params.is_odd:
        raise WrongParity("graph types are defined for even n only")
    if not table.all_integral:
        return TypeClassification(False, False, False)
    return TypeClassification(*_least_gaps_are(table, *_TYPE_PATTERNS)[1])


_BLOCK_PAIRS = ((1, 2), (1, 4), (2, 3), (3, 4))

NON_INTEGRAL = "no-pst:non-integral"
VALUATION = "no-pst:valuation"
DISPLACEMENT = "no-pst:displacement"


@dataclass(frozen=True)
class GraphVerdict:
    """The transfer decision of one graph, shared by all of its vertex pairs.

    Each family field is the clause of every pair in that displacement
    family: a "pst:" clause, "no-pst:non-integral", "no-pst:valuation", or
    "no-pst:displacement" for a family that n's parity never admits.
    """

    params: GroupParams
    types: Optional[TypeClassification]  # None for odd n
    antipodal: str  # u - v = +-4n, opposite blocks
    same_region: str  # u - v = +-n, one block (even n)
    cross: str  # u - v = +-3n or +-5n, opposite blocks (even n)
    M: Optional[int]  # gap gcd, set when some family has transfer


def _is_positive(clause: str) -> bool:
    return clause.startswith("pst:")


@lru_cache(maxsize=None)
def _non_integral_verdict(params: GroupParams) -> GraphVerdict:
    """The verdict of every non-integral graph over V_8n: no family has transfer."""
    if params.is_odd:
        return GraphVerdict(params, None, NON_INTEGRAL, DISPLACEMENT, DISPLACEMENT, None)
    types = TypeClassification(False, False, False)
    return GraphVerdict(params, types, NON_INTEGRAL, NON_INTEGRAL, NON_INTEGRAL, None)


def decide_graph(table: SpectrumTable) -> GraphVerdict:
    """Decide integrality, the valuation pattern or Type 1/2/3 flags, and M once.

    A non-integral table gets the one shared verdict of its n.  The flags
    and M come from one `_least_gaps_are`, so M is not computed again.
    """
    params = table.params
    if not table.all_integral:
        return _non_integral_verdict(params)
    n = params.n

    def family(clause: str, holds: bool) -> str:
        return clause if holds else VALUATION

    if params.is_odd:
        M, (odd,) = _least_gaps_are(table, ODD_PATTERN)
        types = None
        antipodal = family("pst:odd-antipodal", odd)
        same_region = cross = DISPLACEMENT
    else:
        M, flags = _least_gaps_are(table, *_TYPE_PATTERNS)
        types = TypeClassification(*flags)
        antipodal = family("pst:type3-antipodal", types.type3)
        if n % 4 == 0:
            same_region = family("pst:type1-same-region", types.type1)
            cross = family("pst:type2-cross", types.type2)
        else:
            same_region = family("pst:type2-same-region", types.type2)
            cross = family("pst:type1-cross", types.type1)
    positive = any(map(_is_positive, (antipodal, same_region, cross)))
    return GraphVerdict(
        params=params,
        types=types,
        antipodal=antipodal,
        same_region=same_region,
        cross=cross,
        M=M if positive else None,
    )


def _pair_clause(graph: GraphVerdict, u: int, v: int) -> str:
    """Region no-gos first, then the displacement family of the pair."""
    params = graph.params
    n = params.n
    ru, rv = region(params, u), region(params, v)
    d = abs(u - v)
    if abs(ru - rv) == 2:  # opposite blocks V1/V3 or V2/V4
        if d == 4 * n:
            return graph.antipodal
        return graph.cross if d in (3 * n, 5 * n) else DISPLACEMENT
    if ru == rv and not params.is_odd:
        return graph.same_region if d == n else DISPLACEMENT
    low, high = next(p for p in _BLOCK_PAIRS if ru in p and rv in p)
    return f"no-pst:region-block:V{low}V{high}"


def _pair_verdict(graph: GraphVerdict, u: int, v: int) -> PstVerdict:
    if u == v:
        raise SameVertex("perfect state transfer needs two distinct vertices")
    clause = _pair_clause(graph, u, v)
    if not _is_positive(clause):
        return PstVerdict(u=u, v=v, has_pst=False, clause=clause)
    return PstVerdict(
        u=u, v=v, has_pst=True, clause=clause, M=graph.M, min_time=math.pi / graph.M
    )


def classify_pair(table: SpectrumTable, u: int, v: int) -> PstVerdict:
    return _pair_verdict(decide_graph(table), u, v)


def all_pst_pairs(
    table: SpectrumTable, graph: Optional[GraphVerdict] = None
) -> tuple[PstVerdict, ...]:
    """Every unordered pair (u < v) with perfect state transfer, sorted.

    `graph` is the table's `decide_graph` verdict when the caller already
    holds it.  The pairs are built once per verdict (`_transfer_pairs`).
    """
    if graph is None:
        graph = decide_graph(table)
    if graph.M is None:
        return ()
    return _transfer_pairs(graph)


@lru_cache(maxsize=None)
def _transfer_pairs(graph: GraphVerdict) -> tuple[PstVerdict, ...]:
    """The sorted pairs of a verdict with transfer.

    They depend on n, the family clauses and M alone, all of them fields
    of the verdict, which is frozen and hashes its fields (`GroupParams`
    by identity).  Every integral set for n <= 8 has M = 2, so there is
    one verdict with transfer per odd n and three per even n: a table of
    at most three entries per n.
    """
    n, two_n = graph.params.n, graph.params.two_n
    families = (
        (graph.antipodal, ((u, u + 4 * n) for u in range(4 * n))),
        (
            graph.same_region,
            ((b * two_n + r, b * two_n + r + n) for b in range(4) for r in range(n)),
        ),
        (
            graph.cross,
            (
                (b * two_n + r, (b + 2) * two_n + (r + n) % two_n)
                for b in range(2)
                for r in range(two_n)
            ),
        ),
    )
    pairs = sorted(
        (u, v, clause)
        for clause, family in families
        if _is_positive(clause)
        for u, v in family
    )
    min_time = math.pi / graph.M
    return tuple(
        PstVerdict(u=u, v=v, has_pst=True, clause=clause, M=graph.M, min_time=min_time)
        for u, v, clause in pairs
    )
