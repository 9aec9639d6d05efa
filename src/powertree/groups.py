"""Finite groups on integer element indices, with a small construction grammar."""
from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .arith import parse_decimal, prime_factors, prime_power

DEFAULT_ORDER_CAP = 2000


class GroupSpecError(ValueError):
    """Raised when a group spec string cannot be parsed or validated."""


class OrderCapError(ValueError):
    """Raised when a requested group would exceed the order cap."""


class CyclicSubgroups(NamedTuple):
    """A group's cyclic subgroups as four parallel lists, in order of smallest generator.

    Element g generates subgroup `which[g]`. Subgroup i has order
    `orders[i]`, its members `members[i]` in power order (the identity,
    then a, a^2, ... for a generator a, so `members[i][1]` generates it
    unless it is trivial) and its generators `generators[i]`, ascending.
    """

    which: list[int]
    orders: list[int]
    members: list[list[int]]
    generators: list[list[int]]


@dataclass(frozen=True)
class Spectrum:
    """Element-order statistics of a finite group."""

    orders: frozenset[int]  # all element orders
    maximal_orders: frozenset[int]  # maximal under divisibility
    primes: frozenset[int]  # primes dividing the group order
    cyclic_counts: dict[int, int]  # order m -> number of distinct cyclic subgroups


def _grow(members: set, frontier: list, maps, stop: int | None = None) -> set:
    """Add the frontier to `members` in place, then its images under `maps`,
    breadth first, until nothing new appears; return `members`.

    Each image of an old member under `maps` must already be a member or in
    the frontier. In a finite group the closure of a set containing the
    identity under right multiplications is the subgroup they generate. With `stop`, the search ends after the
    first round that leaves more than `stop` members.
    """
    while frontier:
        fresh = []
        for y in frontier:
            if y not in members:
                members.add(y)
                fresh.append(y)
        if stop is not None and len(members) > stop:
            break
        frontier = [f(x) for x in fresh for f in maps]
    return members


class FiniteGroup:
    """A finite group whose elements are indices 0..n-1.

    A product multiplies the underlying element objects and looks the
    result up: permutations compose by one itemgetter call, and (Z_p)^k's
    integers, one bit field per coordinate, add with one carry mask and one
    subtraction (elementary_abelian_group). Building a group of order n
    costs n index entries and no products. The routines the claims use are
    sized by the generating set: about n*|gens| products each.

    `cyclic_subgroups()` walks the powers of one element per cyclic
    subgroup that no earlier walk reached, and keeps the result as four
    flat lists (CyclicSubgroups); `order_of`, `cyclic_subgroup`,
    `spectrum`, the power graph and the claims all read them.
    """

    def __init__(self, label, elements, mul_elem, identity: int, repr_elem=None):
        self.label = label
        self._elements = list(elements)
        self.n = len(self._elements)
        if self.n == 0:
            raise ValueError("a group needs at least one element")
        self._index = {g: i for i, g in enumerate(self._elements)}
        if len(self._index) != self.n:
            raise ValueError(f"duplicate elements in {label}")
        if not 0 <= identity < self.n:
            raise ValueError(f"identity index {identity} out of range for {label}")
        self._mul_elem = mul_elem
        self._repr_elem = repr_elem if repr_elem is not None else str
        self.identity = identity
        self._table: CyclicSubgroups | None = None
        self._spectrum: Spectrum | None = None
        self._generators: list[int] | None = None
        self._simple: bool | None = None

    # -- core operations --

    def mul(self, a: int, b: int) -> int:
        return self._index[self._mul_elem(self._elements[a], self._elements[b])]

    def power(self, a: int, e: int) -> int:
        result = self.identity
        x = a
        e %= self.order_of(a)
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def inverse(self, a: int) -> int:
        return self.power(a, self.order_of(a) - 1)

    def element_label(self, a: int) -> str:
        return self._repr_elem(self._elements[a])

    # -- element orders and cyclic subgroups --

    def _subgroup_of(self, a: int) -> int:
        if not 0 <= a < self.n:
            raise IndexError(f"element {a} is not an index of {self.label}'s {self.n} elements")
        return self.cyclic_subgroups().which[a]

    def order_of(self, a: int) -> int:
        return self.cyclic_subgroups().orders[self._subgroup_of(a)]

    def cyclic_subgroup(self, a: int) -> frozenset[int]:
        return frozenset(self.cyclic_subgroups().members[self._subgroup_of(a)])

    def cyclic_subgroups(self) -> CyclicSubgroups:
        """The table of cyclic subgroups, built once and kept.

        One walk a, a^2, ... per element a that no earlier walk reached
        covers all of <a>: with m = |<a>|, the power a^k generates <a^d>
        for d = gcd(k, m), whose members are every d-th power. An element
        no walk has reached yet is given the subgroup of a^d, which it
        shares with every generator of <a^d>; when a^d itself is new, the
        walk makes <a^d> with the members walk[::d]. The subgroups are
        numbered in order of smallest generator as a sweep over the
        elements reaches them.
        """
        if self._table is None:
            elements, index, mul_elem = self._elements, self._index, self._mul_elem
            identity = self.identity
            walks = [[identity]]  # each subgroup's members, numbered as the walks make them
            made: list[int | None] = [None] * self.n  # element -> its subgroup's walk number
            made[identity] = 0
            gcd_rows: dict[int, list[int]] = {}  # m -> [gcd(k, m) for k < m]
            place = [-1]  # walk number -> index in the table, once the sweep reaches it
            which = [0] * self.n
            orders: list[int] = []
            members: list[list[int]] = []
            generators: list[list[int]] = []
            for a in range(self.n):
                t = made[a]
                if t is None:
                    walk = [identity]
                    e_a = y = elements[a]
                    x = a
                    while x != identity:
                        walk.append(x)
                        y = mul_elem(y, e_a)
                        x = index[y]
                    m = len(walk)
                    row = gcd_rows.get(m)
                    if row is None:
                        row = gcd_rows[m] = [gcd(k, m) for k in range(m)]
                    for x, d in zip(walk, row):  # the identity, where d = m, is made already
                        if made[x] is None:
                            t = made[walk[d]]
                            if t is None:  # x = a^d, the first generator of <a^d> reached
                                t = len(walks)
                                walks.append(walk[::d] if d > 1 else walk)
                                place.append(-1)
                            made[x] = t
                    t = made[a]
                i = place[t]
                if i < 0:
                    i = place[t] = len(generators)
                    orders.append(len(walks[t]))
                    members.append(walks[t])
                    generators.append([a])
                else:
                    generators[i].append(a)
                which[a] = i
            self._table = CyclicSubgroups(which, orders, members, generators)
        return self._table

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            per_order = Counter(self.cyclic_subgroups().orders)
            orders = frozenset(per_order)
            maximal = frozenset(
                m for m in orders if not any(k != m and k % m == 0 for k in orders)
            )
            self._spectrum = Spectrum(
                orders, maximal, frozenset(prime_factors(self.n)),
                dict(sorted(per_order.items())),
            )
        return self._spectrum

    # -- generators --

    def generating_set(self) -> list[int]:
        """Greedy generators: each is the smallest index outside the closure so far."""
        if self._generators is None:
            self._generators = [g for g, _ in self._greedy_closures(range(self.n))]
        return self._generators

    def is_subgroup(self, members: set[int] | frozenset[int]) -> bool:
        """True iff the set `members` is a subgroup: the closure of greedy
        generators taken from it never leaves it. The search stops as soon as
        the closure does, and takes about |members| * log2 |members| products."""
        return self.identity in members and all(
            closure <= members for _, closure in self._greedy_closures(members, len(members)))

    def _greedy_closures(self, candidates, stop: int | None = None):
        """Yield each candidate outside the closure so far, with the closure
        grown by it (one set, grown in place). The old members are closed
        under the old generators, so only the new generator is applied to
        them, and each element is multiplied by each generator about once;
        `stop` is passed to ``_grow``."""
        maps = []
        closure = {self.identity}
        for g in candidates:
            if g not in closure:
                maps.append(lambda x, g=g: self.mul(x, g))
                _grow(closure, [self.mul(x, g) for x in closure], maps, stop)
                yield g, closure

    def is_abelian(self) -> bool:
        gens = self.generating_set()
        return all(
            self.mul(a, b) == self.mul(b, a) for a, b in itertools.combinations(gens, 2)
        )

    def _conjugators(self) -> list:
        """h -> x*h*x^-1 for each generator x: these generate conjugation by G."""
        return [lambda h, x=x, x_inv=self.inverse(x): self.mul(self.mul(x, h), x_inv)
                for x in self.generating_set()]

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes in order of their smallest element, each ascending.

        Each class is the orbit of its smallest element under conjugation by
        the generating set: 2*|gens| products per element.
        """
        conjugators = self._conjugators()
        seen: set[int] = set()
        classes = []
        for g in range(self.n):
            if g not in seen:
                cls = _grow(set(), [g], conjugators)
                seen |= cls
                classes.append(sorted(cls))
        return classes

    def conjugate_blocks(self) -> list[list[int]]:
        """The conjugacy orbits of the nontrivial cyclic subgroups, each as a
        list of table indices, in order of their first subgroup, ascending.

        A block's elements are the generators of its subgroups: it holds the
        conjugacy class of each of them, so it is a union of classes, and the
        blocks partition G minus the identity. A normal subgroup holding h
        holds every generator of <h> and all their conjugates, so it is {1}
        and a union of blocks. Each orbit is grown by conjugating one
        generator of each subgroup by each generator of G: 2*|gens| products
        per cyclic subgroup.
        """
        table = self.cyclic_subgroups()
        which, members = table.which, table.members
        conjugators = self._conjugators()
        maps = [lambda i, f=f: which[f(members[i][1])] for f in conjugators]
        seen = {which[self.identity]}
        blocks = []
        for i in range(len(members)):
            if i not in seen:
                block = _grow(set(), [i], maps)
                seen |= block
                blocks.append(sorted(block))
        return blocks

    def normal_closure(self, g: int) -> set[int]:
        """The smallest normal subgroup containing g.

        Breadth-first from the identity under h -> h*g and h -> x*h*x^-1 for
        each generator x. The set reached is closed under conjugation, so for
        any conjugate y*g*y^-1 it holds h*y*g*y^-1 = y*(y^-1*h*y*g)*y^-1 as
        well: it is closed under right multiplication by every conjugate of
        g, which makes it the subgroup they generate. Each member costs
        1 + 2*|gens| products, and the search stops once it passes half the
        group: a subgroup of index below 2 is the whole group.
        """
        maps = [lambda h: self.mul(h, g)] + self._conjugators()
        members = _grow(set(), [self.identity], maps, stop=self.n // 2)
        return set(range(self.n)) if len(members) > self.n // 2 else members

    def is_nonabelian_simple(self) -> bool:
        """True iff the group is nonabelian with no proper nontrivial normal subgroup.

        The cheapest exact test goes first. By Burnside's p^a q^b theorem
        (Isaacs, Character Theory of Finite Groups, Thm 3.10) a group whose
        order has at most two prime divisors is solvable, so not nonabelian
        simple; n = 1, with no prime divisor, fails the same test. Then the
        spectrum: with p the smallest prime dividing n, a subgroup of index p
        is normal (Dummit & Foote, Abstract Algebra, §4.2, Cor. 5), so an
        element of order n/p generates a proper nontrivial normal subgroup.
        Then the abelian test. Then the class equation, over blocks: a normal
        subgroup is {1} and a union of the conjugate_blocks, and its order
        divides n. If no such sum 1 + s is a divisor d of n with 1 < d < n,
        there is no proper nontrivial normal subgroup (Dummit & Foote, §4.6,
        for A5 with classes). The blocks are unions of classes, so their sums
        are among the classes' sums. Only when the sieve leaves a candidate
        are normal closures computed, one per block: g's normal closure
        holds g's block, so it depends only on the block.
        """
        if self._simple is None:
            self._simple = False
            primes = prime_factors(self.n)
            if (len(primes) >= 3 and self.n // min(primes) not in self.spectrum().orders
                    and not self.is_abelian()):
                generators = self.cyclic_subgroups().generators
                blocks = self.conjugate_blocks()
                sums = 1  # bit s: some union of the blocks seen has s elements
                for block in blocks:
                    sums |= sums << sum(len(generators[i]) for i in block)
                self._simple = not any(
                    sums >> (d - 1) & 1 for d in range(2, self.n) if self.n % d == 0
                ) or all(len(self.normal_closure(generators[block[0]][0])) == self.n
                         for block in blocks)
        return self._simple

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, n={self.n})"


# -- family constructions --
#
# Each family has one order function: it checks the family's parameters and
# returns the group order. The constructor calls it before building, and
# spec_order calls it without building. Given a cap, an order function may
# return any value above the cap in place of a larger order, so that an
# over-cap spec is rejected without multiplying its order out or factoring
# its parameters.


def _capped_product(factors, cap: int | None) -> int:
    """The product of the factors, or with a cap, the running product once it passes the cap."""
    out = 1
    for f in factors:
        out *= f
        if cap is not None and out > cap:
            break
    return out


def _cyclic_order(n: int, cap: int | None = None) -> int:
    if n < 1:
        raise GroupSpecError(f"cyclic order must be positive, got {n}")
    return n


def cyclic_group(n: int) -> FiniteGroup:
    _cyclic_order(n)
    return FiniteGroup(f"cyclic:{n}", range(n), lambda a, b: (a + b) % n, 0, str)


def _turns_and_flips(label: str, m: int, flip_square: int, turn: str, flip: str) -> FiniteGroup:
    """Z_m and a flip f with f t f^-1 = t^-1 and f^2 = t^flip_square, for a turn t
    of order m: (i, j) is t^i f^j, labelled e, {turn}i, {flip} or {turn}i{flip}."""
    elements = [(i, j) for j in (0, 1) for i in range(m)]

    def mul(u, v):
        (i1, j1), (i2, j2) = u, v
        if j1 == 0:
            return ((i1 + i2) % m, j2)
        if j2 == 0:
            return ((i1 - i2) % m, 1)
        return ((i1 - i2 + flip_square) % m, 0)

    def name(g):
        i, j = g
        power = f"{turn}{i}" if i else ""
        return power + flip if j else power or "e"

    return FiniteGroup(label, elements, mul, 0, name)


def _dihedral_order(order: int, cap: int | None = None) -> int:
    if order < 2 or order % 2:
        raise GroupSpecError(f"dihedral order must be even and >= 2, got {order}")
    return order


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: rotations r^i and reflections r^i s."""
    _dihedral_order(order)
    return _turns_and_flips(f"dihedral:{order}", order // 2, 0, "r", "s")


def _quaternion_order(order: int, cap: int | None = None) -> int:
    if order % 4 or order < 8:
        raise GroupSpecError(f"quaternion order must be 4n with n >= 2, got {order}")
    return order


def quaternion_group(order: int) -> FiniteGroup:
    """Generalized quaternion (dicyclic) group of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1."""
    _quaternion_order(order)
    return _turns_and_flips(f"quaternion:{order}", order // 2, order // 4, "a", "b")


def _elementary_abelian_order(p: int, k: int, cap: int | None = None) -> int:
    if k < 1:
        raise GroupSpecError(f"elemabelian rank must be positive, got {k}")
    if cap is not None and p > cap:  # the order p^k is at least p
        return p
    fac = prime_power(p)
    if fac is None or fac[1] != 1:
        raise GroupSpecError(f"elemabelian base {p} is not prime")
    if cap is not None:
        k = min(k, cap.bit_length())  # p >= 2, so p^bitlen(cap) > cap already
    return p ** k


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    """(Z_p)^k on integers: digit c_i sits in a field of w bits, c_0 highest.

    With w = bitlen(2p - 2) + 1, a field sum is at most 2p - 2 < 2^(w-1), so
    u + v carries into no neighbour. Adding lift's 2^(w-1) - p to every
    field sets its top (guard) bit exactly where the sum reached p, and
    still carries nowhere; the guard bits, shifted down to the fields' lowest
    bits, say where to subtract p. The integers sort as the digit tuples
    of itertools.product do, so the element indices follow product order.
    """
    _elementary_abelian_order(p, k)
    w = (2 * p - 2).bit_length() + 1
    ones = sum(1 << (w * i) for i in range(k))
    lift = ones * ((1 << (w - 1)) - p)
    digit = (1 << w) - 1
    elements = [0]
    for _ in range(k):
        elements = [g << w | c for g in elements for c in range(p)]

    def mul(u, v):
        s = u + v
        return s - ((s + lift) >> (w - 1) & ones) * p

    def label(g):
        return "(" + ",".join(str(g >> (w * i) & digit) for i in reversed(range(k))) + ")"

    return FiniteGroup(f"elemabelian:{p}:{k}", elements, mul, 0, label)


def _compose(a, b):
    # apply b first, then a; on one point itemgetter(0) would return a bare 0
    return itemgetter(*b)(a) if len(b) > 1 else a


def cycle_notation(perm) -> str:
    """Cycle notation on point indices, 'e' for the identity."""
    parts = []
    seen = set()
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cycle = [i]
        j = perm[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "e"


def _symmetric_order(n: int, cap: int | None = None) -> int:
    if n < 1:
        raise GroupSpecError(f"sym degree must be positive, got {n}")
    return _capped_product(range(2, n + 1), cap)


def symmetric_group(n: int) -> FiniteGroup:
    _symmetric_order(n)
    elements = list(itertools.permutations(range(n)))  # lexicographic: the identity first
    return FiniteGroup(f"sym:{n}", elements, _compose, 0, cycle_notation)


def _alternating_order(n: int, cap: int | None = None) -> int:
    if n < 1:
        raise GroupSpecError(f"alt degree must be positive, got {n}")
    return _capped_product(range(3, n + 1), cap)  # n!/2 = 3*4*...*n, and 1 for n <= 2


def alternating_group(n: int) -> FiniteGroup:
    """The even permutations, in itertools.permutations order. The k-th one's
    Lehmer code is the factorial-base digits of k, so its parity is their sum
    mod 2: the mask for n points is n blocks of the mask for n - 1, the
    odd-numbered blocks (first digit odd) flipped."""
    _alternating_order(n)
    mask, flip = b"\1", bytes.maketrans(b"\0\1", b"\1\0")
    for m in range(2, n + 1):
        mask = (mask + mask.translate(flip)) * (m // 2) + mask * (m % 2)
    elements = itertools.compress(itertools.permutations(range(n)), mask)
    return FiniteGroup(f"alt:{n}", elements, _compose, 0, cycle_notation)


def _psl2_order(q: int, cap: int | None = None) -> int:
    if cap is not None and q > cap:  # the order q(q^2-1)/gcd(2, q-1) is at least q
        return q
    if prime_power(q) is None:
        raise GroupSpecError(f"psl2 parameter {q} is not a prime power")
    return q * (q * q - 1) // gcd(2, q - 1)


def _psl2_generators(q: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], tuple]:
    """The translations x -> x+c (c = 0, 1, ..., q-1), the scalings
    x -> lam^(2i)*x (0 <= i < (q-1)/gcd(2, q-1)) and the flip x -> -1/x of the
    projective line over GF(q), on field indices sum c_i * p^i with q for infinity.

    GF(p^k) is taken modulo the monic irreducible of degree k with the smallest
    encoding, found by trial division by every monic polynomial of degree at
    most k/2. The primitive element lam is the one with the smallest index, and
    its exp/log tables give lam^(2i)*x = lam^(log x + 2i) and
    -1/x = -lam^(-log x); addition is digit by digit.
    """
    p, k = prime_power(q)

    def digits(x, length=k):  # the coefficients c_i, lowest first
        return [x // p ** i % p for i in range(length)]

    def index(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    def monic(encoding, degree):  # x^degree plus the polynomial of that encoding
        return digits(encoding, degree) + [1]

    def remainder(num, den):  # num modulo the monic den, coefficients lowest first
        num = list(num)
        d = len(den) - 1
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
        return num[:d]

    def irreducible(f):  # no monic factor of degree 1 .. k/2
        return all(any(remainder(f, monic(e, d)))
                   for d in range(1, k // 2 + 1) for e in range(p ** d))

    modulus = next(f for f in (monic(e, k) for e in range(q)) if irreducible(f))

    def times(x, y):
        product = [0] * (2 * k - 1)
        for i, a in enumerate(digits(x)):
            for j, b in enumerate(digits(y)):
                product[i + j] = (product[i + j] + a * b) % p
        return index(remainder(product, modulus))

    for lam in range(1, q):
        exp = [1]  # exp[e] = lam^e
        while (x := times(exp[-1], lam)) != 1:
            exp.append(x)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for e, x in enumerate(exp):
        log[x] = e

    # adds[c][x] = x + c, lowest digit fastest in both c and x, from one digit's table
    adds = digit = [[(a + c) % p for a in range(p)] for c in range(p)]
    for _ in range(k - 1):
        adds = [[p * h + lo for h in high for lo in low] for high in adds for low in digit]
    translations = [tuple(row) + (q,) for row in adds]
    scalings = [(0,) + tuple(exp[(log[x] + 2 * i) % (q - 1)] for x in range(1, q)) + (q,)
                for i in range((q - 1) // gcd(2, q - 1))]
    flip = (q,) + tuple(adds[exp[-log[x] % (q - 1)]].index(0) for x in range(1, q)) + (0,)
    return translations, scalings, flip


def psl2_group(q: int) -> FiniteGroup:
    """PSL(2, q) acting on the projective line: q+1 points, field indices plus q for infinity.

    Built from the Bruhat decomposition PSL(2, q) = B ⊔ B·w·U: U is the q
    translations x -> x+c, B = {x -> lam^(2i)*(x+c)} and w is x -> -1/x. Each
    lies in PSL(2, q) (the scaling by lam^(2i) is diag(lam^i, lam^-i)), so
    |B|·(q+1) = |PSL(2, q)| distinct products are the whole group. Each is one
    itemgetter call on a product already built.
    """
    expected = _psl2_order(q)
    translations, scalings, flip = _psl2_generators(q)
    add_first = [itemgetter(*u) for u in translations]  # g -> g∘u: x -> g(x + c)
    flip_first = itemgetter(*flip)  # b -> b∘w: x -> b(-1/x)
    borel = [u(s) for s in scalings for u in add_first]
    elements = set(borel)
    elements.update(u(flip_first(b)) for b in borel for u in add_first)
    if len(elements) != expected:
        raise RuntimeError(f"psl2:{q} has {len(elements)} distinct products, expected {expected}")
    # the identity permutation sorts first
    return FiniteGroup(f"psl2:{q}", sorted(elements), _compose, 0, cycle_notation)


def direct_product(left: FiniteGroup, right: FiniteGroup) -> FiniteGroup:
    elements = list(itertools.product(range(left.n), range(right.n)))

    def mul(u, v):
        return (left.mul(u[0], v[0]), right.mul(u[1], v[1]))

    def label(g):
        return f"({left.element_label(g[0])},{right.element_label(g[1])})"

    return FiniteGroup(f"{left.label} x {right.label}", elements, mul,
                       left.identity * right.n + right.identity, label)


# -- spec grammar --

# [0-9], not \d: \d also matches other Unicode digits, which parse_decimal
# refuses with an untyped ValueError
_ATOM_RE = re.compile(r"([a-z0-9]+):([0-9]+)(?::([0-9]+))?\Z")

# family -> (order function, constructor); both take the atom's parameters
_FAMILIES = {
    "cyclic": (_cyclic_order, cyclic_group),
    "dihedral": (_dihedral_order, dihedral_group),
    "quaternion": (_quaternion_order, quaternion_group),
    "elemabelian": (_elementary_abelian_order, elementary_abelian_group),
    "sym": (_symmetric_order, symmetric_group),
    "alt": (_alternating_order, alternating_group),
    "psl2": (_psl2_order, psl2_group),
}


# specs up to this length are quoted whole in error messages
_QUOTED_SPEC_LIMIT = 80
_LONG_NUMBER_RE = re.compile(r"[0-9]{21,}")


def _quoted(spec: str) -> str:
    """A spec for an error message: quoted whole up to _QUOTED_SPEC_LIMIT
    characters; above it, each number of more than 20 digits is given by its
    digit count, and what is still too long is cut with its length given."""
    short = spec
    if len(short) > _QUOTED_SPEC_LIMIT:
        short = _LONG_NUMBER_RE.sub(lambda m: f"<{len(m.group())} digits>", short)
    if len(short) > _QUOTED_SPEC_LIMIT:
        return f"{short[:_QUOTED_SPEC_LIMIT]!r}... ({len(spec)} characters)"
    return repr(short)


def _parse_atom(token: str) -> tuple[str, tuple[int, ...]]:
    m = _ATOM_RE.match(token)
    if not m:
        raise GroupSpecError(f"cannot parse group spec atom {_quoted(token)}")
    family, first, second = m.group(1), parse_decimal(m.group(2)), m.group(3)
    second = parse_decimal(second) if second is not None else None
    if family not in _FAMILIES:
        raise GroupSpecError(f"unknown group family {_quoted(family)} in {_quoted(token)}")
    if family == "elemabelian":
        if second is None:
            raise GroupSpecError(f"elemabelian needs two parameters in {_quoted(token)}")
    elif second is not None:
        raise GroupSpecError(f"family {family!r} takes one parameter in {_quoted(token)}")
    return family, (first,) if second is None else (first, second)


def _parse_spec(spec: str, cap: int | None) -> tuple[list, int]:
    """A spec's atoms, each as (constructor, parameters), and the order of
    the group it describes, capped as in spec_order."""
    atoms = [a.strip() for a in spec.split(" x ")]
    if not all(atoms):
        raise GroupSpecError(f"cannot parse group spec {_quoted(spec)}")
    parsed, orders = [], []
    for atom in atoms:  # every atom is checked, even past the cap
        family, params = _parse_atom(atom)
        order, build = _FAMILIES[family]
        orders.append(order(*params, cap=cap))
        parsed.append((build, params))
    return parsed, _capped_product(orders, cap)


def spec_order(spec: str, cap: int | None = None) -> int:
    """Order of the group a spec describes, without building it.

    With a cap, an order above the cap may come back as any value above it:
    the factors stop being multiplied once their product passes the cap.
    """
    return _parse_spec(spec, cap)[1]


def build_group(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a spec like ``quaternion:8`` or ``cyclic:2 x cyclic:4``."""
    atoms, order = _parse_spec(spec, order_cap)
    if order > order_cap:
        raise OrderCapError(f"group {_quoted(spec)} has order above the cap {order_cap}")
    (build, params), *rest = atoms
    group = build(*params)
    for build, params in rest:
        group = direct_product(group, build(*params))
    return group
