"""Group construction, element orders, spectra, and the spec grammar."""
import hashlib
import itertools
import random
from collections import Counter
from math import gcd, lcm

import numpy as np
import pytest

from powertree import (GroupSpecError, OrderCapError, alternating_group,
                       build_group, build_power_graph, compute_kappa, cyclic_group,
                       dihedral_group, direct_product,
                       elementary_abelian_group, psl2_group,
                       quaternion_group, spec_order, symmetric_group)
from powertree import groups
from powertree.arith import euler_phi, prime_power
from powertree.checks import load_manifest

TABLE_GROUPS = [
    "cyclic:1", "cyclic:2", "cyclic:12", "cyclic:17",
    "dihedral:2", "dihedral:4", "dihedral:16",
    "quaternion:8", "quaternion:24",
    "elemabelian:2:3", "elemabelian:3:2",
    "sym:3", "sym:4", "alt:4", "alt:5",
    "psl2:2", "psl2:3", "psl2:5",
    "cyclic:2 x cyclic:4", "sym:3 x cyclic:2",
]
# groups whose power graphs have large blocks that are not complete
KAPPA_BLOCK_GROUPS = ["quaternion:256", "sym:6", "psl2:13", "alt:6",
                      "sym:5 x cyclic:3", "alt:6 x cyclic:2"]


def _table(group) -> np.ndarray:
    return np.array(
        [[group.mul(a, b) for b in range(group.n)] for a in range(group.n)]
    )


@pytest.mark.parametrize("spec", TABLE_GROUPS)
def test_group_axioms_exhaustive(spec):
    group = build_group(spec)
    t = _table(group)
    n = group.n
    assert spec_order(spec) == n
    # associativity over every triple
    assert np.array_equal(t[t], t[:, t])
    # rows and columns are permutations (cancellation)
    expected = np.arange(n)
    assert np.array_equal(np.sort(t, axis=0), np.tile(expected[:, None], n))
    assert np.array_equal(np.sort(t, axis=1), np.tile(expected, (n, 1)))
    # exactly one identity
    identities = [e for e in range(n) if np.array_equal(t[e], expected)]
    assert identities == [group.identity]
    assert np.array_equal(t[:, group.identity], expected)
    # inverses through the public helpers
    for a in range(n):
        assert group.mul(a, group.inverse(a)) == group.identity
        assert group.power(a, group.order_of(a)) == group.identity
        assert group.power(a, -1) == group.inverse(a)


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "psl2:8"])
def test_group_axioms_sampled(spec):
    group = build_group(spec)
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (rng.randrange(group.n) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    for _ in range(100):
        a = rng.randrange(group.n)
        assert group.mul(a, group.inverse(a)) == group.identity


def test_cyclic_orders():
    group = build_group("cyclic:12")
    for g in range(12):
        assert group.order_of(g) == 12 // gcd(12, g)
    assert group.cyclic_subgroup(2) == {0, 2, 4, 6, 8, 10}


@pytest.mark.parametrize("spec", ["cyclic:12", "quaternion:16", "alt:5"])
def test_generators_of_a_cyclic_subgroup_share_its_profile(spec):
    group = build_group(spec)
    which = group.cyclic_subgroups().which
    for a in range(group.n):
        order = group.order_of(a)
        for k in range(1, order):
            same = which[group.power(a, k)] == which[a]
            assert same == (gcd(k, order) == 1)


@pytest.mark.parametrize("a", [-1, -6, 6, 7])
def test_element_lookups_refuse_indices_outside_the_group(a):
    # a negative index must not wrap round to another element's answers
    group = build_group("cyclic:6")
    with pytest.raises(IndexError, match="not an index of cyclic:6's 6 elements"):
        group.order_of(a)
    with pytest.raises(IndexError, match="not an index"):
        group.cyclic_subgroup(a)
    assert group.order_of(5) == 6 and group.cyclic_subgroup(0) == {0}


def _order_histogram(group) -> dict[int, int]:
    return dict(Counter(group.order_of(g) for g in range(group.n)))


def test_frozen_spectra():
    z6 = build_group("cyclic:6")
    s = z6.spectrum()
    assert s.orders == {1, 2, 3, 6}
    assert s.maximal_orders == {6}
    assert s.primes == {2, 3}
    assert s.cyclic_counts == {1: 1, 2: 1, 3: 1, 6: 1}

    q8 = build_group("quaternion:8")
    assert _order_histogram(q8) == {1: 1, 2: 1, 4: 6}
    assert q8.spectrum().maximal_orders == {4}

    a5 = build_group("alt:5")
    assert _order_histogram(a5) == {1: 1, 2: 15, 3: 20, 5: 24}
    assert a5.spectrum().maximal_orders == {2, 3, 5}

    a6 = build_group("alt:6")
    assert _order_histogram(a6) == {1: 1, 2: 45, 3: 80, 4: 90, 5: 144}
    spectrum = a6.spectrum()
    assert spectrum.maximal_orders == {3, 4, 5}
    assert spectrum.cyclic_counts == {1: 1, 2: 45, 3: 40, 4: 45, 5: 36}

    l27 = build_group("psl2:7")
    assert l27.n == 168
    assert _order_histogram(l27)[7] == 48
    assert l27.spectrum().maximal_orders == {3, 4, 7}


@pytest.mark.parametrize("spec", TABLE_GROUPS)
def test_cyclic_subgroups_partition_the_generators(spec):
    group = build_group(spec)
    counts = group.spectrum().cyclic_counts
    assert sum(c * euler_phi(m) for m, c in counts.items()) == group.n
    table = group.cyclic_subgroups()
    assert group.cyclic_subgroups() is table  # built once and kept
    assert len(table.which) == group.n
    assert len(table.orders) == len(table.members) == len(table.generators)
    smallest = [generators[0] for generators in table.generators]
    assert smallest == sorted(smallest)
    assert sorted(itertools.chain(*table.generators)) == list(range(group.n))
    for i, generators in enumerate(table.generators):
        assert generators == [g for g in range(group.n)
                              if group.cyclic_subgroup(g) == frozenset(table.members[i])]
        assert all(table.which[g] == i for g in generators)


@pytest.mark.parametrize("spec", TABLE_GROUPS + KAPPA_BLOCK_GROUPS + ["sym:1", "alt:1", "alt:2"])
def test_cyclic_subgroup_table_matches_the_powers_of_each_element(spec):
    group = build_group(spec)
    walks = []  # 1, a, a^2, ... for each a, by group.mul alone
    for a in range(group.n):
        members, x = [group.identity], a
        while x != group.identity:
            members.append(x)
            x = group.mul(x, a)
        walks.append(members)
    powers = [frozenset(walk) for walk in walks]  # <a> for each a
    expected: dict[frozenset, list[int]] = {}  # keyed in order of smallest generator
    for a, members in enumerate(powers):
        expected.setdefault(members, []).append(a)
    table = group.cyclic_subgroups()
    assert [group.order_of(a) for a in range(group.n)] == [len(m) for m in powers]
    assert [group.cyclic_subgroup(a) for a in range(group.n)] == powers
    assert [(order, frozenset(members), generators) for order, members, generators
            in zip(table.orders, table.members, table.generators)] == [
        (len(members), members, generators) for members, generators in expected.items()]
    # each subgroup's members in power order: those of the generator members[i][1]
    for members in table.members:
        assert members == (walks[members[1]] if len(members) > 1 else [group.identity])


@pytest.mark.parametrize("spec, labels", [
    ("sym:1", ["e"]), ("alt:1", ["e"]), ("alt:2", ["e"]), ("sym:2", ["e", "(0 1)"]),
])
def test_permutation_groups_of_degree_one_and_two(spec, labels):
    group = build_group(spec)
    n = group.n
    assert [group.element_label(a) for a in range(n)] == labels
    assert group.identity == 0
    # on one point the product of the identity with itself is the
    # identity (0,), not the bare point 0, which the index would not find
    assert [[group.mul(a, b) for b in range(n)] for a in range(n)] == (
        [[0]] if n == 1 else [[0, 1], [1, 0]])
    assert compute_kappa(build_power_graph(group)).kappa.value == 1


def test_psl2_orders_and_small_isomorphism_types():
    for q, order in [(2, 6), (3, 12), (4, 60), (5, 60), (7, 168), (8, 504), (9, 360)]:
        assert spec_order(f"psl2:{q}") == order
    assert _order_histogram(build_group("psl2:2")) == {1: 1, 2: 3, 3: 2}
    assert _order_histogram(build_group("psl2:3")) == {1: 1, 2: 3, 3: 8}
    assert _order_histogram(build_group("psl2:4")) == _order_histogram(build_group("alt:5"))
    assert _order_histogram(build_group("psl2:5")) == _order_histogram(build_group("alt:5"))


def _cycle_lengths(perm) -> list[int]:
    lengths, seen = [], set()
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


@pytest.mark.parametrize("q", [q for q in range(2, 258) if prime_power(q)])
def test_psl2_generators_from_the_field_tables(q):
    translations, scalings, flip = groups._psl2_generators(q)
    # x -> lam^2*x; for q = 2 and 3 that is the identity, their only scaling
    translate, scale = translations[1], scalings[1 % len(scalings)]
    infinity = q
    p, _ = prime_power(q)
    # x -> x + 1: q/p p-cycles on the field (one q-cycle for prime q), fixing infinity
    assert translate[infinity] == infinity
    assert sorted(_cycle_lengths(translate)) == [1] + [p] * (q // p)
    # x -> u*x with u = lam^2: fixes 0 and infinity, order (q - 1)/gcd(2, q - 1)
    assert scale[0] == 0 and scale[infinity] == infinity
    assert sorted(scale) == list(range(q + 1))
    assert lcm(*_cycle_lengths(scale)) == (q - 1) // gcd(2, q - 1)
    # x -> -1/x: an involution swapping 0 and infinity
    assert flip[0] == infinity and flip[infinity] == 0
    assert all(flip[flip[x]] == x for x in range(q + 1))


# sha256 of the element labels in index order (the sorted permutations, in
# cycle notation), for the fields GF(p^k) with k > 1
PSL2_ELEMENT_DIGESTS = {
    4: "e46aabc153f62483b54b2ff024a267639474d21a2a98502ad87d5efc2de4cd61",
    8: "f7f55c8982c66d34255a2f37e2f84d8a8a4454672b12ad6545a55d919914ab97",
    9: "78480afdaaad690e16467bd3e362e1a41d5430ed99598e88d66ee6d9d6192fce",
    16: "d0927ce161edc9d328532f1ab64419bbd783f8b860eec7c73de2dac2fa31cbb1",
    27: "23af3404d56f3cb0d2bd9df833d4e31c0e6ec6b87df8b6d719582ef517b326d8",
}


@pytest.mark.parametrize("q", sorted(PSL2_ELEMENT_DIGESTS))
def test_psl2_element_lists_are_pinned(q):
    group = psl2_group(q)
    labels = "\n".join(group.element_label(g) for g in range(group.n))
    assert hashlib.sha256(labels.encode()).hexdigest() == PSL2_ELEMENT_DIGESTS[q]


def _parity_filter(n):
    """The permutations of n points with an even number of inversions, in
    itertools.permutations order."""
    return [perm for perm in itertools.permutations(range(n))
            if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0]


@pytest.mark.parametrize("n", range(1, 9))
def test_alternating_group_is_the_parity_filter(n):
    assert alternating_group(n)._elements == _parity_filter(n)


def _closure_of_the_psl2_generators(q):
    """PSL(2, q) as the breadth-first closure of x -> x+1, x -> lam^2*x and
    x -> -1/x under right multiplication, sorted."""
    translations, scalings, flip = groups._psl2_generators(q)
    maps = [translations[1], scalings[1 % len(scalings)], flip]
    seen, frontier = set(), [tuple(range(q + 1))]
    while frontier:
        fresh = [g for g in set(frontier) if g not in seen]
        seen.update(fresh)
        frontier = [tuple(g[x] for x in m) for g in fresh for m in maps]
    return sorted(seen)


# every prime power q with |PSL(2, q)| <= 2000, and two fields GF(p^k) beyond it
PSL2_CLOSURE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27]


def test_psl2_group_is_the_closure_of_its_generators():
    for q in PSL2_CLOSURE_FIELDS:
        group = psl2_group(q)
        assert group.n == spec_order(f"psl2:{q}")
        assert group._elements == _closure_of_the_psl2_generators(q)


def _tuple_elementary_abelian(p, k):
    """(Z_p)^k on digit tuples in itertools.product order, added mod p."""
    elements = list(itertools.product(range(p), repeat=k))
    index = {t: i for i, t in enumerate(elements)}

    def mul(a, b):
        return index[tuple((x + y) % p for x, y in zip(elements[a], elements[b]))]

    return elements, mul


# every (p, k) with p^k <= 729 for p in 2, 3, 5, 7; 2p - 2 is a power of two
# for p = 2, 3 and 5, so the sum p - 1 + p - 1 fills its field's lower bits
SMALL_ELEMENTARY_ABELIAN = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 10)
                            if p ** k <= 729]


@pytest.mark.parametrize("p,k", SMALL_ELEMENTARY_ABELIAN)
def test_elementary_abelian_products_match_tuple_addition(p, k):
    group = elementary_abelian_group(p, k)
    elements, mul = _tuple_elementary_abelian(p, k)
    assert group.n == len(elements) and group.identity == 0
    for a in range(group.n):
        assert [group.mul(a, b) for b in range(group.n)] == [mul(a, b) for b in range(group.n)]


# too large for all pairs: random pairs only
LARGE_ELEMENTARY_ABELIAN = [(17, 1), (17, 2), (43, 1), (43, 2), (1999, 1)]


@pytest.mark.parametrize("p,k", SMALL_ELEMENTARY_ABELIAN + LARGE_ELEMENTARY_ABELIAN)
def test_elementary_abelian_labels_in_product_order(p, k):
    group = elementary_abelian_group(p, k)
    elements, _ = _tuple_elementary_abelian(p, k)
    assert [group.element_label(g) for g in range(group.n)] == [
        "(" + ",".join(map(str, t)) + ")" for t in elements]
    assert group.element_label(group.identity) == "(" + ",".join("0" * k) + ")"


@pytest.mark.parametrize("p,k", LARGE_ELEMENTARY_ABELIAN)
def test_elementary_abelian_products_on_random_pairs(p, k):
    group = build_group(f"elemabelian:{p}:{k}")
    _, mul = _tuple_elementary_abelian(p, k)
    rng = random.Random(p ** k)
    for _ in range(5000):
        a, b = rng.randrange(group.n), rng.randrange(group.n)
        assert group.mul(a, b) == mul(a, b)
    assert all(group.mul(0, a) == a for a in range(group.n))


def test_is_abelian():
    for spec in ["cyclic:30", "elemabelian:3:3", "dihedral:4", "cyclic:2 x cyclic:4"]:
        assert build_group(spec).is_abelian()
    for spec in ["sym:3", "alt:4", "quaternion:8", "dihedral:6", "psl2:7"]:
        assert not build_group(spec).is_abelian()


def test_conjugacy_classes():
    s3 = build_group("sym:3")
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    s4 = build_group("sym:4")
    classes = s4.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sorted(g for c in classes for g in c) == list(range(24))


def test_is_nonabelian_simple():
    for spec in ["alt:5", "alt:6", "psl2:7", "psl2:8", "psl2:11", "psl2:13"]:
        assert build_group(spec).is_nonabelian_simple()
    for spec in ["cyclic:13", "sym:4", "alt:4", "quaternion:8", "psl2:2", "psl2:3",
                 "sym:5", "alt:5 x cyclic:2", "dihedral:10", "sym:5 x cyclic:3"]:
        assert not build_group(spec).is_nonabelian_simple()


def _brute_closure(group, gens) -> set[int]:
    """Closure of {e} under right multiplication by gens, one element at a time."""
    members = {group.identity}
    stack = [group.identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                stack.append(y)
    return members


# three-prime orders, not simple: an element of order n/p, for p the smallest
# prime dividing n, stops dihedral:30, quaternion:60 and cyclic:30, and the
# class sizes of the others leave the sieve a candidate divisor, so closures decide
SIEVE_CANDIDATES = ["sym:5", "alt:5 x cyclic:2", "sym:5 x cyclic:3", "psl2:7 x cyclic:2",
                    "dihedral:30", "quaternion:60", "cyclic:30"]


@pytest.mark.parametrize("spec", load_manifest() + SIEVE_CANDIDATES)
def test_is_nonabelian_simple_matches_the_definition(spec):
    group = build_group(spec)
    n = group.n
    by_definition = (
        n > 1
        and any(group.mul(a, b) != group.mul(b, a) for a in range(n) for b in range(a))
        and all(_brute_closure(group, cls) == set(range(n))
                for cls in group.conjugacy_classes() if cls[0] != group.identity)
    )
    assert group.is_nonabelian_simple() == by_definition


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of the FiniteGroup method `name` while the test runs."""
    calls = []
    method = getattr(groups.FiniteGroup, name)

    def counted(self, *args):
        calls.append((self.label, *args))
        return method(self, *args)

    monkeypatch.setattr(groups.FiniteGroup, name, counted)
    return calls


def test_class_equation_proves_the_corpus_simple_groups_without_closures(monkeypatch):
    simple = [build_group(spec) for spec in [
        "alt:5", "alt:6", "psl2:4", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11"]]
    calls = _count_calls(monkeypatch, "normal_closure")
    assert all(group.is_nonabelian_simple() for group in simple)
    assert calls == []


BLOCK_SPECS = list(dict.fromkeys(load_manifest() + SIEVE_CANDIDATES + [
    "alt:6", "psl2:8", "psl2:9", "psl2:11", "psl2:13", "sym:6"]))


@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_conjugate_blocks_partition_the_group_into_unions_of_classes(spec):
    group = build_group(spec)
    table = group.cyclic_subgroups()
    blocks = group.conjugate_blocks()
    elements = [sorted(g for i in block for g in table.generators[i]) for block in blocks]
    assert sorted(g for block in elements for g in block) == [
        g for g in range(group.n) if g != group.identity]
    block_of = {g: k for k, block in enumerate(elements) for g in block}
    covered = [[] for _ in blocks]
    for cls in group.conjugacy_classes():
        if cls[0] != group.identity:
            (k,) = {block_of[g] for g in cls}
            covered[k] += cls
    assert [sorted(c) for c in covered] == elements
    # each block is one orbit: the conjugates of its first subgroup by all of G
    for block in blocks:
        h = table.generators[block[0]][0]
        conjugates = {table.which[group.mul(group.mul(x, h), group.inverse(x))]
                      for x in range(group.n)}
        assert sorted(conjugates) == block


@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_simplicity_takes_no_conjugacy_classes(monkeypatch, spec):
    group = build_group(spec)
    calls = _count_calls(monkeypatch, "conjugacy_classes")
    group.is_nonabelian_simple()
    assert calls == []


def test_sym5_takes_at_most_one_normal_closure_per_block(monkeypatch):
    group = build_group("sym:5")
    blocks = group.conjugate_blocks()
    generators = group.cyclic_subgroups().generators
    block_of = {g: k for k, block in enumerate(blocks) for i in block for g in generators[i]}
    calls = _count_calls(monkeypatch, "normal_closure")
    assert not group.is_nonabelian_simple()
    assert 0 < len(calls) <= len(blocks)
    closed = [block_of[g] for _, g in calls]
    assert len(set(closed)) == len(closed)


def test_two_prime_orders_are_not_simple_without_generators(monkeypatch):
    # Burnside's p^a q^b theorem: the order alone decides
    solvable = [build_group(spec) for spec in [
        "sym:4", "dihedral:200", "quaternion:256", "elemabelian:2:10", "cyclic:1849"]]
    calls = _count_calls(monkeypatch, "generating_set")
    assert not any(group.is_nonabelian_simple() for group in solvable)
    assert calls == []


@pytest.mark.parametrize("spec", ["dihedral:30", "dihedral:60", "dihedral:360",
                                  "quaternion:60", "quaternion:1980", "cyclic:210"])
def test_a_subgroup_of_smallest_prime_index_is_normal(monkeypatch, spec):
    # an element of order n/p, with p the smallest prime dividing n, generates
    # a normal subgroup of index p: the spectrum decides, with no products
    group = build_group(spec)
    p = min(group.spectrum().primes)
    assert group.n // p in group.spectrum().orders
    calls = [_count_calls(monkeypatch, name)
             for name in ("generating_set", "conjugacy_classes", "normal_closure")]
    assert not group.is_nonabelian_simple()
    assert calls == [[], [], []]


def _sole_identity(group) -> int:
    """The one element fixing every element on both sides; fails unless there is exactly one."""
    (identity,) = [e for e in range(group.n)
                   if all(group.mul(e, x) == x == group.mul(x, e) for x in range(group.n))]
    return identity


@pytest.mark.parametrize("spec", TABLE_GROUPS + [
    "sym:5", "psl2:7", "psl2:8", "alt:6", "sym:3 x cyclic:3",
])
def test_group_routines_match_brute_force(spec):
    group = build_group(spec)
    n = group.n
    assert _sole_identity(group) == group.identity
    assert _brute_closure(group, group.generating_set()) == set(range(n))
    classes = group.conjugacy_classes()
    assert sorted(g for cls in classes for g in cls) == list(range(n))
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    for cls in classes:
        g = cls[0]
        conjugates = {group.mul(group.mul(x, g), group.inverse(x)) for x in range(n)}
        assert conjugates == set(cls)
        if n <= 120:  # closure of the class, n*|class| products per class
            assert group.normal_closure(g) == _brute_closure(group, cls)


def _shifted_cyclic(n: int) -> groups.FiniteGroup:
    """Z_n with the elements listed from 1, so its identity 0 sits at the last index."""
    return groups.FiniteGroup(f"shifted:{n}", [*range(1, n), 0],
                              lambda a, b: (a + b) % n, n - 1)


def test_identity_index_is_passed_through_subgroups_and_products():
    z6 = _shifted_cyclic(6)
    assert z6.identity == 5 == _sole_identity(z6)
    for left, right in [(z6, cyclic_group(3)), (cyclic_group(4), z6), (z6, z6)]:
        product = direct_product(left, right)
        assert product.identity == _sole_identity(product)
        assert product.element_label(product.identity) == (
            f"({left.element_label(left.identity)},{right.element_label(right.identity)})")
    with pytest.raises(ValueError):
        groups.FiniteGroup("bad", [0, 1], lambda a, b: (a + b) % 2, 2)


def test_generated_subgroup_and_generating_set():
    s3 = build_group("sym:3")
    flip = next(g for g in range(6) if s3.order_of(g) == 2)
    rotation = next(g for g in range(6) if s3.order_of(g) == 3)
    assert len(_brute_closure(s3, [flip, rotation])) == 6
    q8 = build_group("quaternion:8")
    involution = next(g for g in range(8) if q8.order_of(g) == 2)
    assert _brute_closure(q8, [involution]) == {q8.identity, involution}
    for spec in ["sym:3", "quaternion:8", "cyclic:12", "dihedral:16", "alt:4"]:
        group = build_group(spec)
        gens = group.generating_set()
        assert _brute_closure(group, gens) == set(range(group.n))
        # greedy: each generator is the smallest element outside the closure of the earlier ones
        for i, g in enumerate(gens):
            assert g == min(set(range(group.n)) - _brute_closure(group, gens[:i]))


def test_direct_product_structure():
    product = direct_product(cyclic_group(2), cyclic_group(4))
    assert product.n == 8
    assert product.label == "cyclic:2 x cyclic:4"
    assert _order_histogram(product) == {1: 1, 2: 3, 4: 4}
    assert product.element_label(product.identity) == "(0,0)"


def test_family_labels():
    d8 = dihedral_group(8)
    assert d8.element_label(d8.identity) == "e"
    labels = {d8.element_label(g) for g in range(8)}
    assert {"e", "r1", "r2", "r3", "s", "r1s", "r2s", "r3s"} == labels
    q8 = quaternion_group(8)
    assert {"e", "a1", "a2", "a3", "b", "a1b", "a2b", "a3b"} == {
        q8.element_label(g) for g in range(8)
    }
    s3 = symmetric_group(3)
    assert s3.element_label(s3.identity) == "e"
    assert any("(" in s3.element_label(g) for g in range(6))


def _labels_and_table(group):
    """The labels in index order, then each row of the product table."""
    lines = [" ".join(group.element_label(g) for g in range(group.n))]
    lines += [" ".join(str(group.mul(a, b)) for b in range(group.n)) for a in range(group.n)]
    return "\n".join(lines)


# family -> (the orders covered, sha256 of their labels and product tables)
TURN_AND_FLIP_DIGESTS = {
    "dihedral": (range(2, 65, 2),
                 "e59b74ea6aafc86c7b8b7515075d79c6b3ed6f8d2b8be9272dc6b0ce310b15d3"),
    "quaternion": (range(8, 65, 4),
                   "be3363e7ea46babb502518f42c74e9b40351f3f471d03b15e8d9bf0bdae5a396"),
}


@pytest.mark.parametrize("family", sorted(TURN_AND_FLIP_DIGESTS))
def test_dihedral_and_quaternion_tables_are_pinned(family):
    # the two families share one constructor; every label and product is pinned
    orders, digest = TURN_AND_FLIP_DIGESTS[family]
    text = "\n".join(_labels_and_table(build_group(f"{family}:{order}")) for order in orders)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spec_order_without_building():
    assert spec_order("sym:8") == 40320
    assert spec_order("alt:6") == 360
    assert spec_order("quaternion:16 x cyclic:3") == 48
    assert spec_order("elemabelian:2:6") == 64


# spec -> the family constructor call with the same bad parameters
BAD_PARAMETERS = {
    "dihedral:7": (dihedral_group, 7),
    "quaternion:6": (quaternion_group, 6),
    "quaternion:4": (quaternion_group, 4),
    "elemabelian:4:2": (elementary_abelian_group, 4, 2),
    "psl2:6": (psl2_group, 6),
    "cyclic:0": (cyclic_group, 0),
    "sym:0": (symmetric_group, 0),
    "alt:0": (alternating_group, 0),
}


@pytest.mark.parametrize("spec", [
    "frobnicate:7", "cyclic:abc", "cyclic", "dihedral:7", "quaternion:6",
    "quaternion:4", "elemabelian:4:2", "elemabelian:3", "cyclic:3:4",
    "psl2:6", "cyclic:0", "", "cyclic:2 x  x cyclic:3", "sym:0", "alt:0",
    # Arabic-Indic three: a Unicode digit that int() reads as 3
    "cyclic:\u0663", "elemabelian:2:\u0663",
])
def test_grammar_rejects_bad_specs(spec):
    with pytest.raises(GroupSpecError):
        build_group(spec)
    if spec in BAD_PARAMETERS:
        constructor, *params = BAD_PARAMETERS[spec]
        with pytest.raises(GroupSpecError):
            constructor(*params)


def test_order_cap():
    with pytest.raises(OrderCapError):
        build_group("sym:8")
    with pytest.raises(OrderCapError):
        build_group("cyclic:6", order_cap=5)
    assert build_group("cyclic:6", order_cap=6).n == 6
    # 2000! has 5736 digits, past Python's 4300-digit int-to-str limit
    with pytest.raises(OrderCapError, match="above the cap 2000"):
        build_group("sym:2000")


@pytest.mark.parametrize("spec", [
    "sym:1000000", "elemabelian:2:100000000", "cyclic:2 x sym:1000000",
    "psl2:1000000000000000000000007", "elemabelian:1000000000000000000000007:1",
    # a rank of 2^63 or more, past what itertools.repeat accepts as a count
    "elemabelian:2:99999999999999999999",
    # parameters past Python's 4300-digit str-to-int limit
    pytest.param("cyclic:" + "9" * 5000, id="cyclic:9x5000"),
    pytest.param("elemabelian:2:" + "9" * 5000, id="elemabelian:2:9x5000"),
    pytest.param("psl2:" + "9" * 5000, id="psl2:9x5000"),
])
def test_over_cap_specs_are_rejected_without_their_order(spec):
    # multiplied out, these orders have millions of digits or more; the prime
    # parameters would take about 10^12 trial divisions to validate
    with pytest.raises(OrderCapError, match="above the cap 2000"):
        build_group(spec)
    assert spec_order(spec, cap=2000) > 2000


def test_long_specs_are_abbreviated_in_errors():
    # a spec is quoted whole up to 80 characters; past that a long number is
    # given by its digit count, and what is still long is cut
    nines = "9" * 5000
    for spec, message in [
        ("cyclic:" + nines, "group 'cyclic:<5000 digits>' has order above the cap 2000"),
        ("elemabelian:2:" + nines,
         "group 'elemabelian:2:<5000 digits>' has order above the cap 2000"),
        ("cyclic:" + "9" * 70, f"group 'cyclic:{'9' * 70}' has order above the cap 2000"),
    ]:
        with pytest.raises(OrderCapError) as info:
            build_group(spec)
        assert str(info.value) == message
    long_product = " x ".join(["cyclic:2"] * 400)
    with pytest.raises(OrderCapError) as info:
        build_group(long_product)
    assert str(info.value).endswith(f"... ({len(long_product)} characters) "
                                    "has order above the cap 2000")
    assert len(str(info.value)) < 200
    with pytest.raises(GroupSpecError) as info:
        build_group("cyclic:2:" + nines)
    assert str(info.value) == "family 'cyclic' takes one parameter in 'cyclic:2:<5000 digits>'"


def test_capped_spec_order():
    for spec in ["sym:7", "alt:7", "elemabelian:3:7", "elemabelian:2:11", "psl2:13",
                 "sym:3 x alt:5", "alt:2"]:
        exact = spec_order(spec)
        for cap in (1, exact - 1, exact, exact + 1, 10 ** 6):
            capped = spec_order(spec, cap=cap)
            assert capped == exact if exact <= cap else capped > cap
    with pytest.raises(GroupSpecError):  # atoms past the cap are still checked
        spec_order("sym:1000 x dihedral:7", cap=2000)
    # a parameter above the cap bounds the order from below before it is factored
    assert spec_order("psl2:2002", cap=2000) > 2000
    with pytest.raises(GroupSpecError):
        spec_order("psl2:2002")


def test_build_group_parses_each_atom_once(monkeypatch):
    parsed = []
    parse_atom = groups._parse_atom

    def counting(token):
        parsed.append(token)
        return parse_atom(token)

    monkeypatch.setattr(groups, "_parse_atom", counting)
    group = build_group("sym:3 x cyclic:3 x elemabelian:2:2")
    assert group.label == "sym:3 x cyclic:3 x elemabelian:2:2"
    assert group.n == 72
    assert parsed == ["sym:3", "cyclic:3", "elemabelian:2:2"]


def test_power_graph_smoke_on_products():
    group = build_group("sym:3 x cyclic:3")
    graph = build_power_graph(group)
    assert graph.n == 18
    assert graph.is_connected()
