"""Group arithmetic, conjugacy classes and connection-set validation."""

import copy
import functools
import itertools
import pickle

import pytest

from v8npst import group
from v8npst.cli import MAX_GRAPH_N
from v8npst.group import (
    IDENTITY,
    ConnectionSet,
    ConnectionSetError,
    GroupElement,
    GroupParams,
    IdentityInSet,
    NotGenerating,
    NotNormal,
    NotSymmetric,
    all_elements,
    class_labels,
    class_masks,
    class_union,
    conjugacy_classes,
    element,
    element_names,
    element_str,
    enumerate_connection_sets,
    generated_subgroup,
    inverse,
    multiply,
    parse_element,
    tag_index,
    validate_connection_set,
    vertex_index,
)

import group_reference
from conftest import coset_apply, coset_of, coset_oracle
from group_reference import conjugate, is_normal_subset


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_identity_is_neutral(n):
    p = GroupParams(n)
    for x in all_elements(p):
        assert multiply(p, IDENTITY, x) == x
        assert multiply(p, x, IDENTITY) == x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_defining_relations(n):
    p = GroupParams(n)
    a = element(p, 1, 0)
    b = element(p, 0, 1)
    x = IDENTITY
    for _ in range(2 * n):
        x = multiply(p, x, a)
    assert x == IDENTITY  # a^{2n} = 1
    y = IDENTITY
    for _ in range(4):
        y = multiply(p, y, b)
    assert y == IDENTITY  # b^4 = 1
    assert multiply(p, b, a) == multiply(p, inverse(p, a), inverse(p, b))
    assert multiply(p, inverse(p, b), a) == multiply(p, inverse(p, a), b)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_b_times_a_normal_form(n):
    p = GroupParams(n)
    # ba = a^{-1}b^{-1} = a^{2n-1} b^3
    assert multiply(p, element(p, 0, 1), element(p, 1, 0)) == GroupElement(2 * n - 1, 3)


def test_b_squared_is_central_n3_against_coset_table():
    p = GroupParams(3)
    table = coset_oracle(3)
    b2 = element(p, 0, 2)
    for r in range(6):
        ar = element(p, r, 0)
        assert multiply(p, b2, ar) == element(p, r, 2)
        lhs = coset_apply(table, coset_of(table, 0, 2), ar)
        rhs = coset_apply(table, coset_of(table, r, 0), b2)
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiplication_matches_coset_enumeration(n):
    """Every product agrees with the independent coset-table regular action."""
    p = GroupParams(n)
    table = coset_oracle(n)
    elems = all_elements(p)
    cosets = {x: coset_of(table, x.r, x.s) for x in elems}
    assert len(set(cosets.values())) == 8 * n  # normal forms are distinct
    for x in elems:
        for y in elems:
            assert cosets[multiply(p, x, y)] == coset_apply(table, cosets[x], y)


@pytest.mark.parametrize("n", range(1, 7))
def test_normal_form_count(n):
    p = GroupParams(n)
    elems = all_elements(p)
    assert len(elems) == len(set(elems)) == 8 * n
    assert [vertex_index(p, x) for x in elems] == list(range(8 * n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_associativity_exhaustive(n):
    p = GroupParams(n)
    elems = all_elements(p)
    for x, y, z in itertools.product(elems, repeat=3):
        assert multiply(p, multiply(p, x, y), z) == multiply(p, x, multiply(p, y, z))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_left_multiplication_is_bijection(n):
    p = GroupParams(n)
    elems = all_elements(p)
    for g in elems:
        assert len({multiply(p, g, x) for x in elems}) == 8 * n


def test_inverse_trivial_cases():
    p = GroupParams(3)
    assert inverse(p, IDENTITY) == IDENTITY
    assert inverse(p, element(p, 1, 0)) == element(p, 5, 0)  # <a> is cyclic of order 6


def test_inverse_exhaustive_v24_by_table_search():
    p = GroupParams(3)
    elems = all_elements(p)
    for x in elems:
        solutions = [y for y in elems if multiply(p, x, y) == IDENTITY]
        assert solutions == [inverse(p, x)]


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_table_matches_inverse(n):
    """The per-n table that `validate_connection_set` reads is `inverse`."""
    p = GroupParams(n)
    table = group._inverse_table(p)
    assert table == {x: inverse(p, x) for x in all_elements(p)}


def test_conjugacy_classes_n1_exact():
    p = GroupParams(1)
    got = {frozenset(c.members) for c in conjugacy_classes(p)}
    e = lambda r, s: GroupElement(r % 2, s % 4)
    expected = {
        frozenset({e(0, 0)}),
        frozenset({e(0, 2)}),
        frozenset({e(0, 1), e(0, 3)}),
        frozenset({e(1, 1), e(1, 3)}),
        frozenset({e(1, 0), e(1, 2)}),
    }
    assert got == expected


@pytest.mark.parametrize(
    "n,count", [(1, 5), (2, 10), (3, 9), (4, 14), (5, 13), (6, 18)]
)
def test_conjugacy_class_counts(n, count):
    assert len(conjugacy_classes(GroupParams(n))) == count
    assert count == 2 * n + (3 if n % 2 else 6)


@pytest.mark.parametrize("n", [2, 3])
def test_classes_partition_group(n):
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    union = set()
    total = 0
    for c in classes:
        assert not (union & c.members)
        union |= c.members
        total += len(c)
    assert union == set(all_elements(p)) and total == 8 * n


@pytest.mark.parametrize("n", range(1, MAX_GRAPH_N + 1))
def test_classes_match_fresh_orbit_computation(n):
    """The closed-form listing is the conjugation orbits, each listed once,
    for every n that a command accepts."""
    p = GroupParams(n)
    listed = conjugacy_classes(p)
    classes = {frozenset(c.members) for c in listed}
    elems = all_elements(p)
    seen = set()
    orbits = set()
    for x in elems:
        if x in seen:
            continue
        orbit = frozenset(conjugate(p, g, x) for g in elems)
        orbits.add(orbit)
        seen |= orbit
    assert classes == orbits and len(listed) == len(orbits)


def _symmetric_closure(p, subset):
    return frozenset(subset) | {inverse(p, x) for x in subset}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_normal_iff_class_union(n, rng):
    """Sg = gS holds exactly when the subset is a union of conjugacy classes,
    and validate_connection_set's class-union test agrees with Sg = gS."""
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    elems = all_elements(p)
    non_identity = [c for c in classes if IDENTITY not in c.members]
    candidates = []
    for _ in range(40):
        size = int(rng.integers(1, 8 * n))
        candidates.append(
            frozenset(elems[i] for i in rng.choice(8 * n, size=size, replace=False))
        )
        # a symmetric class union, and the same union with one inverse
        # pair dropped (symmetric, normal only by coincidence)
        k = int(rng.integers(1, len(non_identity) + 1))
        picks = rng.choice(len(non_identity), size=k, replace=False)
        union = _symmetric_closure(
            p, frozenset().union(*(non_identity[i].members for i in picks))
        )
        x = sorted(union)[int(rng.integers(len(union)))]
        candidates += [union, union - {x, inverse(p, x)}]
    for subset in candidates:
        is_union = all(
            c.members <= subset or not (c.members & subset) for c in classes
        )
        assert is_normal_subset(p, subset) == is_union
        symmetric = _symmetric_closure(p, subset) - {IDENTITY}
        try:
            validate_connection_set(p, symmetric)
        except NotNormal:
            assert not is_normal_subset(p, symmetric)
        except NotGenerating:  # raised only once the normality check passed
            assert is_normal_subset(p, symmetric)
        else:
            assert is_normal_subset(p, symmetric)


def test_validate_full_set_n1_is_k8():
    p = GroupParams(1)
    members = [x for x in all_elements(p) if x != IDENTITY]
    conn = validate_connection_set(p, members)
    assert len(conn) == 7
    assert len(conn.class_indices) == 4


def test_validate_rejections():
    p = GroupParams(1)
    with pytest.raises(NotGenerating):
        validate_connection_set(p, [element(p, 0, 2)])  # <b^2> has order 2
    with pytest.raises(NotSymmetric):
        validate_connection_set(p, [element(p, 0, 1)])  # b^{-1} = b^3 missing
    with pytest.raises(IdentityInSet):
        validate_connection_set(p, [IDENTITY, element(p, 0, 1), element(p, 0, 3)])
    p2 = GroupParams(2)
    with pytest.raises(NotNormal):
        # {a, a^3} is symmetric but not a class union (class of a is {a, a^3 b^2})
        validate_connection_set(p2, [element(p2, 1, 0), element(p2, 3, 0)])
    assert issubclass(NotNormal, ConnectionSetError)


def test_validate_reports_offending_element():
    p = GroupParams(2)
    with pytest.raises(NotSymmetric, match="a"):
        validate_connection_set(p, [element(p, 1, 0)])


def test_enumerate_n1_contents():
    p = GroupParams(1)
    sets = list(enumerate_connection_sets(p, 4))
    as_members = [conn.members for conn in sets]
    two_class = frozenset(
        {element(p, 0, 1), element(p, 0, 3), element(p, 1, 0), element(p, 1, 2)}
    )
    full = frozenset(x for x in all_elements(p) if x != IDENTITY)
    assert two_class in as_members
    assert full in as_members
    assert all(IDENTITY not in m for m in as_members)


def test_enumerate_single_class_n1_none_generate():
    """For n=1 no single conjugacy class generates the group.

    Checked against an independent closure computation: every non-identity
    class closes into a proper subgroup of order 4 at most.
    """
    p = GroupParams(1)
    assert list(enumerate_connection_sets(p, 1)) == []
    for c in conjugacy_classes(p):
        if IDENTITY in c.members:
            continue
        closure = generated_subgroup(p, c.members)
        assert len(closure) in (2, 4)


def test_enumerate_max_classes_zero_is_empty():
    assert list(enumerate_connection_sets(GroupParams(2), 0)) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_deterministic_validated_and_complete(n):
    p = GroupParams(n)
    budget = len(conjugacy_classes(p))
    first = list(enumerate_connection_sets(p, budget))
    second = list(enumerate_connection_sets(p, budget))
    assert [c.class_indices for c in first] == [c.class_indices for c in second]
    for conn in first:
        revalidated = validate_connection_set(p, conn.members)
        assert revalidated.members == conn.members
    # brute force over all class subsets finds exactly the same collection
    classes = conjugacy_classes(p)
    non_identity = [i for i, c in enumerate(classes) if IDENTITY not in c.members]
    expected = set()
    for k in range(1, len(non_identity) + 1):
        for combo in itertools.combinations(non_identity, k):
            members = frozenset().union(*(classes[i].members for i in combo))
            try:
                validate_connection_set(p, members)
            except ConnectionSetError:
                continue
            expected.add(members)
    assert {c.members for c in first} == expected


def outcome(check, built: bool):
    """(class indices, bits, size, members) of the set `check()` returns, or
    the type and message of the ConnectionSetError it raises; whether the
    set held its members before they were read must be `built`."""
    try:
        conn = check()
    except ConnectionSetError as exc:
        return type(exc), str(exc)
    assert ("members" in vars(conn)) is built
    return conn.class_indices, conn.bits, len(conn), conn.members


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_union_agrees_with_element_validation(n):
    """Every union of classes, repeated indices included, checked on its
    class bits gives the set, or the error, that the element-level check
    gives for its members; a valid union's members are built only on read."""
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    for bits in range(1, 1 << len(classes)):
        indices = [i for i in range(len(classes)) if bits >> i & 1]
        members = frozenset().union(*(classes[i].members for i in indices))
        assert outcome(lambda: class_union(p, indices[::-1] + indices[:1]), False) == outcome(
            lambda: validate_connection_set(p, members), True
        )


def test_class_union_raises_what_validation_raises():
    p = GroupParams(2)
    for indices, error in (([0, 4], IdentityInSet), ([4], NotSymmetric), ([1], NotGenerating)):
        with pytest.raises(error):
            class_union(p, indices)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_tag_index_and_class_labels(n):
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    assert tag_index(p) == {c.tag: i for i, c in enumerate(classes)}
    assert class_labels(p) == tuple(
        tuple(sorted(vertex_index(p, x) for x in c.members)) for c in classes
    )


@pytest.mark.parametrize(
    "n,max_classes",
    [(n, 99) for n in range(1, 6)] + [(6, 3), (7, 3), (8, 3), (6, 99), (8, 4), (7, 4), (6, 5)],
)
def test_enumerate_matches_reference(n, max_classes):
    """The orbit-union enumeration yields the BFS reference's sets, in order."""
    p = GroupParams(n)

    def fields(c):
        return c.class_indices, c.bits, len(c), c.class_tags, c.members

    got = [fields(c) for c in enumerate_connection_sets(p, max_classes)]
    want = [fields(c) for c in group_reference.enumerate_connection_sets(p, max_classes)]
    assert got == want


@functools.lru_cache(maxsize=None)
def full_enumeration(n):
    """(class_indices, bits) of every set at the full class budget."""
    p = GroupParams(n)
    budget = len(conjugacy_classes(p))
    return tuple((c.class_indices, c.bits) for c in enumerate_connection_sets(p, budget))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_order_and_bits(n):
    """Strictly increasing by (class count, index tuple), each set's bits
    those of its classes: the order with no BFS reference."""
    sets = full_enumeration(n)
    keys = [(len(indices), indices) for indices, _ in sets]
    assert all(a < b for a, b in itertools.pairwise(keys))
    for indices, bits in sets:
        assert bits == sum(1 << i for i in indices)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_budget_is_a_filter_of_the_full_list(n):
    p = GroupParams(n)
    full = full_enumeration(n)
    for k in range(len(conjugacy_classes(p)) + 2):
        got = tuple((c.class_indices, c.bits) for c in enumerate_connection_sets(p, k))
        assert got == tuple(s for s in full if len(s[0]) <= k)


@pytest.mark.parametrize(
    "n,count", [(5, 704), (6, 6_656), (7, 5_888), (8, 55_296), (9, 48_128)]
)
def test_enumerate_counts(n, count):
    assert len(full_enumeration(n)) == count


def test_connection_set_keeps_the_members_it_is_given():
    """perfbench passes (params, members, ()) positionally and by keyword."""
    p = GroupParams(2)
    members = frozenset(all_elements(p)) - {IDENTITY}
    for conn in (
        ConnectionSet(p, members, ()),
        ConnectionSet(params=p, members=members, class_indices=()),
    ):
        assert conn.members is members
        assert conn.class_indices == ()
    given = validate_connection_set(p, members)
    assert given.members == members and "members" in vars(given)
    assert given.bits == sum(1 << i for i in given.class_indices) and "bits" in vars(given)


def test_group_params_is_one_instance_per_n():
    assert GroupParams(4) is GroupParams(4) == GroupParams(4)
    assert GroupParams(4) != GroupParams(5)
    assert {GroupParams(4): 1}[GroupParams(4)] == 1
    assert GroupParams(True) is GroupParams(1)


@pytest.mark.parametrize("n", range(1, 9))
def test_copies_and_pickles_are_the_one_instance(n):
    """Every per-n cache keys on identity, so a copy or an unpickled
    GroupParams must be the instance itself, under every pickle protocol."""
    params = GroupParams(n)
    assert copy.copy(params) is params
    assert copy.deepcopy(params) is params
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(params, protocol)) is params


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_masks_match_element_checks(n):
    """On every union of non-identity classes, the mask tests give the
    element-level inverse-closure and the BFS generation verdicts."""
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    masks = class_masks(p)
    full = frozenset(all_elements(p))
    non_identity = [i for i, c in enumerate(classes) if IDENTITY not in c.members]
    for k in range(1, len(non_identity) + 1):
        for combo in itertools.combinations(non_identity, k):
            members = frozenset().union(*(classes[i].members for i in combo))
            symmetric = all(inverse(p, x) in members for x in members)
            bits = sum(1 << i for i in combo)
            inverse_mask = sum(masks.inverse_bit[i] for i in combo)
            assert (inverse_mask == bits) == symmetric
            assert masks.generates(bits) == (group_reference.generated_subgroup(p, members) == full)


@pytest.mark.parametrize("n", [*range(1, 13), 16, 24, MAX_GRAPH_N])
def test_rational_classes_match_conjugate_cyclic_subgroups(n):
    """The rational classes, from the classes of the powers x^k with k
    coprime to 8n, are the classes of x ~ y iff <x> and <y> are conjugate."""
    p = GroupParams(n)
    classes = conjugacy_classes(p)
    got = [
        frozenset().union(*(c.members for i, c in enumerate(classes) if mask >> i & 1))
        for mask in class_masks(p).rational
    ]
    assert len(set(got)) == len(got)
    assert set(got) == group_reference.rational_classes(p)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "inside",
    [
        lambda x: x.r % 2 == 0,
        lambda x: x.s % 2 == 0,
        lambda x: (x.r + x.s) % 2 == 0,
    ],
    ids=["r-even", "s-even", "r+s-even"],
)
def test_validate_rejects_index_two_subgroup(n, inside):
    """Each index-2 subgroup minus the identity is a symmetric class union
    that does not generate."""
    p = GroupParams(n)
    members = frozenset(x for x in all_elements(p) if inside(x)) - {IDENTITY}
    assert len(members) == 4 * n - 1
    assert generated_subgroup(p, members) == members | {IDENTITY}
    with pytest.raises(NotGenerating):
        validate_connection_set(p, members)
    # generation is the only hypothesis it fails
    assert all(inverse(p, x) in members for x in members)
    assert is_normal_subset(p, members)


def test_element_str_round_trip():
    p = GroupParams(3)
    for x in all_elements(p):
        assert parse_element(p, element_str(x)) == x
    assert element_str(GroupElement(0, 0)) == "1"
    assert element_str(GroupElement(2, 1)) == "a^2*b"


@pytest.mark.parametrize("n", range(1, 9))
def test_element_names_are_element_str_by_vertex_label(n):
    p = GroupParams(n)
    names = element_names(p)
    assert len(names) == p.order
    for x in all_elements(p):
        assert names[vertex_index(p, x)] == element_str(x)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        GroupParams(0)
    with pytest.raises(ValueError):
        GroupParams(-3)
    for bad in (3.0, "3", None):
        with pytest.raises(ValueError):
            GroupParams(bad)
