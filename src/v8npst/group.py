"""Exact structure theory for the groups V_8n.

V_8n = <a, b : a^{2n} = b^4 = 1, ba = a^{-1}b^{-1}, b^{-1}a = a^{-1}b> is a
non-abelian group of order 8n.  Every element has a unique normal form
a^r b^s with 0 <= r < 2n, 0 <= s < 4.  Vertices of Cayley graphs over V_8n
are labelled 0..8n-1 in the order

    1, a, ..., a^{2n-1}, b, ab, ..., a^{2n-1}b, b^2, ..., b^3, ..., a^{2n-1}b^3

so that label = 2n*s + r, and the label range splits into the four blocks
V1 = [0, 2n), V2 = [2n, 4n), V3 = [4n, 6n), V4 = [6n, 8n).

Everything that depends only on n is computed once per n and cached under
the group's `GroupParams`, of which there is one instance per n, so each
lookup hashes and compares in C.  A connection set is a union of classes:
its size and tags come from the per-n class sizes and tags, and a set
enumerated or named by class tags (`class_union`, checked on its class
bits) builds its member frozenset only when something reads it.
`enumerate_connection_sets` holds one int per generating union, its class
mask with class i at bit C - 1 - i of C classes: among unions with the
same class count a larger reversed mask has a lexicographically smaller
index tuple, so two C sorts of the ints give the output order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import getitem
from typing import Iterable, Iterator, NamedTuple, Optional


class GroupElement(NamedTuple):
    r: int
    s: int


IDENTITY = GroupElement(0, 0)

_PARAMS: dict[int, GroupParams] = {}


@dataclass(frozen=True, eq=False, init=False)
class GroupParams:
    """Order parameter; the group V_8n has 8n elements.

    `GroupParams(n)` returns one instance per n, so equal parameters are the
    same object: `==` and `hash` are object identity, and the per-n caches
    below find a group without calling Python-level `__hash__` or `__eq__`.
    """

    n: int

    def __new__(cls, n: int) -> GroupParams:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        params = _PARAMS.get(n)
        if params is None:
            params = _PARAMS[int(n)] = object.__new__(cls)
            object.__setattr__(params, "n", int(n))
        return params

    def __reduce__(self) -> tuple[type, tuple[int]]:  # copies and pickles are the one instance
        return (GroupParams, (self.n,))

    @property
    def order(self) -> int:
        return 8 * self.n

    @property
    def two_n(self) -> int:
        return 2 * self.n

    @property
    def is_odd(self) -> bool:
        return self.n % 2 == 1

    @property
    def parity(self) -> str:
        if self.n % 2 == 1:
            return "odd"
        return "even0mod4" if self.n % 4 == 0 else "even2mod4"


class ConnectionSetError(ValueError):
    """A candidate connection set violates one of the structural hypotheses."""


class IdentityInSet(ConnectionSetError):
    pass


class NotSymmetric(ConnectionSetError):
    pass


class NotNormal(ConnectionSetError):
    pass


class NotGenerating(ConnectionSetError):
    pass


def element(params: GroupParams, r: int, s: int) -> GroupElement:
    """Normal form of a^r b^s (exponents reduced mod 2n and mod 4)."""
    return GroupElement(r % params.two_n, s % 4)


def product_rule(two_n, r1, s1, r2, s2):
    """(r, s) with a^r b^s = a^{r1} b^{s1} a^{r2} b^{s2}, on ints or int arrays.

    The rewriting rules derived from the presentation,
        b   a^r = a^{-r} b^{1 or 3}   (3 when r is odd)
        b^2 a^r = a^{r}  b^2          (b^2 is central)
        b^3 a^r = a^{-r} b^{3 or 1}   (1 when r is odd),
    in one closed form: a^{r1 + r2} b^{s1 + s2} for even s1, and
    a^{r1 - r2} b^{s1 + 2 r2 + s2} for odd s1.
    """
    odd = s1 % 2
    return (r1 + (1 - 2 * odd) * r2) % two_n, (s1 + 2 * odd * r2 + s2) % 4


def multiply(params: GroupParams, x: GroupElement, y: GroupElement) -> GroupElement:
    """Product xy in normal form, by `product_rule`."""
    return GroupElement(*product_rule(params.two_n, x.r, x.s, y.r, y.s))


def inverse(params: GroupParams, x: GroupElement) -> GroupElement:
    """(a^r b^s)^{-1} = b^{-s} a^{-r}, put back into normal form."""
    r, s = x
    return multiply(
        params,
        GroupElement(0, (4 - s) % 4),
        GroupElement((params.two_n - r) % params.two_n, 0),
    )


@lru_cache(maxsize=None)
def _inverse_table(params: GroupParams) -> dict[GroupElement, GroupElement]:
    """Element -> its inverse, for every element, computed once per n."""
    return {x: inverse(params, x) for x in all_elements(params)}


def all_elements(params: GroupParams) -> tuple[GroupElement, ...]:
    """All 8n elements in vertex-label order."""
    return tuple(
        GroupElement(r, s) for s in range(4) for r in range(params.two_n)
    )


def vertex_index(params: GroupParams, x: GroupElement) -> int:
    return 2 * params.n * x.s + x.r


def region(params: GroupParams, idx: int) -> int:
    """Block number 1..4 of a vertex label (V1..V4)."""
    if not 0 <= idx < params.order:
        raise ValueError(f"vertex index {idx} out of range [0, {params.order})")
    return idx // params.two_n + 1


def element_str(x: GroupElement) -> str:
    """Compact rendering: 1, a, a^2, b, a*b, a^2*b^3, ..."""
    r, s = x
    if r == 0 and s == 0:
        return "1"
    parts = []
    if r > 0:
        parts.append("a" if r == 1 else f"a^{r}")
    if s > 0:
        parts.append("b" if s == 1 else f"b^{s}")
    return "*".join(parts)


@lru_cache(maxsize=None)
def element_names(params: GroupParams) -> tuple[str, ...]:
    """`element_str` of every element, indexed by vertex label, once per n."""
    return tuple(element_str(x) for x in all_elements(params))


def parse_element(params: GroupParams, text: str) -> GroupElement:
    """Parse the grammar produced by element_str (also accepts a^r*b^s)."""
    text = text.strip()
    if text == "1":
        return IDENTITY
    r = s = 0
    seen_a = seen_b = False
    for part in text.split("*"):
        part = part.strip()
        if part.startswith("a") and not seen_a and not seen_b:
            seen_a = True
            exp = part[1:]
            if exp == "":
                r = 1
            elif exp.startswith("^"):
                r = int(exp[1:])
            else:
                raise ValueError(f"cannot parse element {text!r}")
        elif part.startswith("b") and not seen_b:
            seen_b = True
            exp = part[1:]
            if exp == "":
                s = 1
            elif exp.startswith("^"):
                s = int(exp[1:])
            else:
                raise ValueError(f"cannot parse element {text!r}")
        else:
            raise ValueError(f"cannot parse element {text!r}")
    if r < 0 or s < 0:
        raise ValueError(f"negative exponent in element {text!r}")
    return element(params, r, s)


@dataclass(frozen=True)
class ConjugacyClass:
    tag: str
    members: frozenset[GroupElement]

    def __len__(self) -> int:
        return len(self.members)


def _paper_partition(params: GroupParams) -> list[frozenset[GroupElement]]:
    n, two_n = params.n, params.two_n
    classes = [frozenset({IDENTITY}), frozenset({GroupElement(0, 2)})]
    if params.is_odd:
        # the two 2n-element classes, a^j b^{1 or 3} by the parity of j
        for base in (0, 1):
            classes.append(
                frozenset(GroupElement(j, k) for j in range(base, two_n, 2) for k in (1, 3))
            )
    else:
        classes += [frozenset({GroupElement(n, 0)}), frozenset({GroupElement(n, 2)})]
        # The four n-element classes; b^{(-1)^k} means b for even k and b^3 for odd k.
        for base, flip in ((0, 0), (0, 1), (1, 0), (1, 1)):
            classes.append(
                frozenset(
                    GroupElement((2 * k + base) % two_n, 1 if (k + flip) % 2 == 0 else 3)
                    for k in range(n)
                )
            )
    for e in range(1, two_n, 2):
        classes.append(frozenset({GroupElement(e, 0), GroupElement(two_n - e, 2)}))
    for e in range(2, n, 2):
        classes.append(frozenset({GroupElement(e, 0), GroupElement(two_n - e, 0)}))
        classes.append(frozenset({GroupElement(e, 2), GroupElement(two_n - e, 2)}))
    return classes


@lru_cache(maxsize=None)
def conjugacy_classes(params: GroupParams) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes, listed from the closed-form partition.

    Classes come out in a fixed listing order (identity, b^2, the large
    classes, then the two-element classes by exponent); each class is tagged
    by its smallest-label member.  The tests check the listing against a
    fresh computation of the conjugation orbits.
    """
    out = []
    for members in _paper_partition(params):
        rep = min(members, key=lambda x: vertex_index(params, x))
        out.append(ConjugacyClass(tag=element_str(rep), members=members))
    return tuple(out)


@lru_cache(maxsize=None)
def class_index_map(params: GroupParams) -> dict[GroupElement, int]:
    """Element -> index of its conjugacy class in conjugacy_classes(params)."""
    mapping: dict[GroupElement, int] = {}
    for i, cls in enumerate(conjugacy_classes(params)):
        for x in cls.members:
            mapping[x] = i
    return mapping


# r mod 2 and s mod 2 are homomorphisms V_8n -> Z/2; the kernels of r, s
# and r + s mod 2 are the only index-2 subgroups, since the abelianisation
# is Z/2 x Z/2 (odd n) or Z/4 x Z/2 (even n) and has no odd prime factor.
_INDEX_TWO_SUBGROUPS = (
    lambda x: x.r % 2 == 0,
    lambda x: x.s % 2 == 0,
    lambda x: (x.r + x.s) % 2 == 0,
)


class ClassMasks(NamedTuple):
    """Per-n bitmasks over class indices: bit i stands for class i.

    Inversion permutes the classes, so a union of classes is inverse-closed
    exactly when it holds the inverse class of each of its classes.  A union
    of classes S generates a normal subgroup <S>; V_8n is solvable, so a
    proper normal subgroup lies in a normal subgroup of prime index, which
    is one of the three index-2 subgroups.  Hence S generates V_8n iff, for
    each of them, S has a class outside it.

    The rational class of x is the union of the classes of x^k over every k
    coprime to 8n; the rational classes partition the classes.  A normal
    Cayley graph is integral iff its connection set is a union of rational
    classes (Godsil and Spiga, 2014; `spectrum` gives the proof).
    """

    inverse_bit: tuple[int, ...]  # class i -> bit of the class of its inverses
    outside: tuple[int, ...]  # per index-2 subgroup, the classes outside it
    rational: tuple[int, ...]  # the class bits of each rational class

    def generates(self, bits: int) -> bool:
        """The union of the classes whose bits are set generates V_8n."""
        return all(map(bits.__and__, self.outside))

    def is_rational_union(self, bits: int) -> bool:
        """The union of the classes whose bits are set is a union of rational
        classes: it meets each rational class wholly or not at all."""
        for mask in self.rational:
            part = bits & mask
            if part and part != mask:
                return False
        return True


@lru_cache(maxsize=None)
def class_masks(params: GroupParams) -> ClassMasks:
    """Inverse-class bits, index-2-subgroup masks and rational classes,
    computed once per n."""
    cmap = class_index_map(params)
    # a normal subgroup holds a class wholly or not at all, so any member
    # decides for the class
    reps = [min(c.members) for c in conjugacy_classes(params)]
    order = params.order
    rational = []
    covered = 0
    for i, x in enumerate(reps):
        if covered >> i & 1:
            continue
        bits, power = 0, x
        for k in range(1, order + 1):  # one pass of powers: power = x^k
            if math.gcd(k, order) == 1:
                bits |= 1 << cmap[power]  # several k share a class: OR, never add
            power = multiply(params, power, x)
        rational.append(bits)
        covered |= bits
    return ClassMasks(
        inverse_bit=tuple(1 << cmap[inverse(params, x)] for x in reps),
        outside=tuple(
            sum(1 << i for i, x in enumerate(reps) if not inside(x))
            for inside in _INDEX_TWO_SUBGROUPS
        ),
        rational=tuple(rational),
    )


@lru_cache(maxsize=None)
def class_sizes(params: GroupParams) -> tuple[int, ...]:
    """The size of each conjugacy class, in class order."""
    return tuple([len(c) for c in conjugacy_classes(params)])


@lru_cache(maxsize=None)
def class_tags(params: GroupParams) -> tuple[str, ...]:
    """The tag of each conjugacy class, in class order."""
    return tuple([c.tag for c in conjugacy_classes(params)])


@lru_cache(maxsize=None)
def tag_index(params: GroupParams) -> dict[str, int]:
    """Class tag -> class index."""
    return {tag: i for i, tag in enumerate(class_tags(params))}


@lru_cache(maxsize=None)
def class_labels(params: GroupParams) -> tuple[tuple[int, ...], ...]:
    """The sorted vertex labels of each conjugacy class, in class order."""
    two_n = params.two_n
    return tuple(
        [tuple(sorted([two_n * s + r for r, s in c.members])) for c in conjugacy_classes(params)]
    )


class ConnectionSet:
    """Validated connection set: identity-free, symmetric, normal, generating.

    S is the union of the conjugacy classes `class_indices`.  `members` is
    the frozenset given to the constructor, and `bits` the class bits (bit
    i for class i); when either is not given, it is built from the classes
    on first read.  `len` and `class_tags` read only the per-n class sizes
    and tags, so deciding, listing and reporting a set never builds its
    members.
    """

    def __init__(
        self,
        params: GroupParams,
        members: Optional[frozenset[GroupElement]],
        class_indices: tuple[int, ...],
        bits: Optional[int] = None,
    ) -> None:
        self.params = params
        self.class_indices = class_indices
        if members is not None:
            self.members = members
        if bits is not None:
            self.bits = bits

    @cached_property
    def members(self) -> frozenset[GroupElement]:
        classes = conjugacy_classes(self.params)
        return frozenset().union(*[classes[i].members for i in self.class_indices])

    @cached_property
    def bits(self) -> int:
        return sum(map((1).__lshift__, self.class_indices))

    def __len__(self) -> int:
        return sum(map(class_sizes(self.params).__getitem__, self.class_indices))

    @property
    def class_tags(self) -> tuple[str, ...]:
        return tuple(map(class_tags(self.params).__getitem__, self.class_indices))


def generated_subgroup(
    params: GroupParams, members: Iterable[GroupElement]
) -> frozenset[GroupElement]:
    """Closure of <members> computed by fixpoint iteration."""
    gens = list(members)
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(params, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def validate_connection_set(
    params: GroupParams,
    members: Iterable[GroupElement | tuple[int, int]],
) -> ConnectionSet:
    """Check identity-freeness, symmetry, normality and generation.

    Raises the ConnectionSetError subclass naming the first violated
    hypothesis, in that order.
    """
    mset = frozenset(
        x if isinstance(x, GroupElement) else element(params, *x) for x in members
    )
    for x in mset:
        if not (0 <= x.r < params.two_n and 0 <= x.s < 4):
            raise ValueError(f"element {x} not in normal form for n={params.n}")
    if IDENTITY in mset:
        raise IdentityInSet("the identity element is not allowed in a connection set")
    inv = _inverse_table(params)
    missing = [x for x in mset if inv[x] not in mset]
    if missing:
        x = min(missing, key=lambda e: vertex_index(params, e))
        raise NotSymmetric(
            f"set is not inverse-closed: {element_str(x)} in S but "
            f"{element_str(inv[x])} is not"
        )

    cmap = class_index_map(params)
    sizes = class_sizes(params)
    idxs = sorted({cmap[x] for x in mset})
    # mset lies inside the union of its classes, so equal sizes mean equality
    if sum(sizes[i] for i in idxs) != len(mset):
        raise NotNormal("set is not a union of conjugacy classes (Sg != gS)")
    bits = sum(1 << i for i in idxs)
    if not class_masks(params).generates(bits):
        raise NotGenerating("set does not generate the whole group")
    return ConnectionSet(params, mset, tuple(idxs), bits)


def class_union(params: GroupParams, class_indices: Iterable[int]) -> ConnectionSet:
    """The connection set that is the union of the classes `class_indices`.

    Checked on the class bits with the per-n `ClassMasks`: class 0 is the
    identity's; inversion permutes the classes, so the union is
    inverse-closed iff the inverse classes of its classes are its classes;
    it generates iff `ClassMasks.generates`; and a union of classes is
    normal.  Its members are not built.  A union that fails a check is
    handed, as its members, to `validate_connection_set`, which raises the
    error it raises for that element list.
    """
    indices = tuple(sorted(set(class_indices)))
    bits = sum(map((1).__lshift__, indices))
    masks = class_masks(params)
    if (
        bits & 1
        or sum(map(masks.inverse_bit.__getitem__, indices)) != bits
        or not masks.generates(bits)
    ):
        classes = conjugacy_classes(params)
        members = frozenset().union(*[classes[i].members for i in indices])
        return validate_connection_set(params, members)
    return ConnectionSet(params, None, indices, bits)


def enumerate_connection_sets(
    params: GroupParams, max_classes: int
) -> Iterator[ConnectionSet]:
    """All valid connection sets that are unions of <= max_classes classes.

    Deterministic order: by class count, then lexicographically by the tuple
    of class indices.  Only inverse-closed unions are visited: each is a
    union of inverse orbits (a self-inverse class, or a class with its
    inverse class), and the orbits' masks are disjoint, so the sums of
    their combinations list each such union once.  Each sum of p inverse
    pairs is added to the per-call sums of s self-inverse classes with
    2p + s <= max_classes, so only unions within the class budget are
    summed.  Unions that do not generate are skipped, decided on the per-n
    class masks.

    The unions are held as reversed masks, class i at bit C - 1 - i of C
    classes, one int per generating union and nothing else.  Of two sets
    with the same class count, the one holding the smallest index of their
    symmetric difference has the smaller index tuple; in reversed bits that
    index is the highest differing bit, so that set has the larger mask.
    Sorting the masks in decreasing order, then stably by class count,
    therefore gives the order above.  Sets are yielded with their index
    tuple and class bits, looked up per byte of the mask, and without
    members, which are built from the classes only if read.
    """
    pairs, singles, (o0, o1, o2), index_tables, bit_tables = _reversed_tables(params)
    single_sums = [
        list(map(sum, combinations(singles, s)))
        for s in range(min(len(singles), max_classes) + 1)
    ]
    unions = [
        u
        for p in range(min(len(pairs), max_classes // 2) + 1)
        for a in map(sum, combinations(pairs, p))
        for sums in single_sums[: max_classes - 2 * p + 1]
        for u in map(a.__add__, sums)
        if u & o0 and u & o1 and u & o2  # the empty union meets none
    ]
    unions.sort(reverse=True)
    unions.sort(key=int.bit_count)
    for key in map(int.to_bytes, unions, repeat(len(index_tables)), repeat("big")):
        yield ConnectionSet(
            params,
            None,
            sum(map(getitem, index_tables, key), ()),
            sum(map(getitem, bit_tables, key)),
        )


@lru_cache(maxsize=None)
def _reversed_tables(params: GroupParams) -> tuple[
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[tuple[tuple[int, ...], ...], ...],
    tuple[tuple[int, ...], ...],
]:
    """The enumeration's per-n masks and tables, in reversed class bits.

    Returns the masks of the inverse orbits but the identity's, in class
    order: first those of the inverse pairs, then those of the self-inverse
    classes; `ClassMasks.outside`; and, per byte of a reversed mask, most
    significant first, the index tuple and the class bits of each of its
    256 values.  A mask's index tuple is its bytes' tuples joined in that
    order, and its class bits the sum of theirs: ceil(C / 8) tables of 256
    entries, whatever n is.  Built on the first enumeration for n.
    """
    masks = class_masks(params)
    count = len(masks.inverse_bit)

    def reverse(mask: int) -> int:
        return int(f"{mask:0{count}b}"[::-1], 2)

    orbits = [
        1 << i | inv
        for i, inv in enumerate(masks.inverse_bit)
        if i and 1 << i <= inv  # class 0 is the identity's
    ]
    pairs = tuple([reverse(orbit) for orbit in orbits if orbit.bit_count() == 2])
    singles = tuple([reverse(orbit) for orbit in orbits if orbit.bit_count() == 1])
    index_tables = tuple(
        tuple(
            tuple(  # bit j of the byte is class count - 1 - low - j
                count - 1 - low - j
                for j in reversed(range(min(8, count - low)))
                if value >> j & 1
            )
            for value in range(256)
        )
        for low in reversed(range(0, count, 8))
    )
    bit_tables = tuple(
        tuple(sum(map((1).__lshift__, indices)) for indices in table)
        for table in index_tables
    )
    return pairs, singles, tuple(map(reverse, masks.outside)), index_tables, bit_tables
