"""Machine verification of divisibility and structure claims about power graphs.

Each claim known to hold for every finite group (or every p-group, simple
group, ...) gets a verifier returning a :class:`VerificationResult`; the
corpus runner applies all of them to a manifest of group specs.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .arith import (DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt, decimal_short,
                    euler_phi, is_prime, smallest_prime_power_above)
from .determinant import closed_twin_kappa
from .graphs import (Component, PowerGraph, build_power_graph, component_decomposition,
                     full_degree_vertices)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, build_group
from .treecount import kappa_decomposed

@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one claim checked on one group."""

    claim_id: str
    group_label: str
    holds: bool
    witness: str
    applicable: bool = True

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "group": self.group_label,
            "holds": self.holds,
            "witness": self.witness,
            "applicable": self.applicable,
        }


class GroupBundle:
    """A group, from a spec or as built, and its power graph, components and counts,
    each computed on first use and kept; the CLI and the claims build through it."""

    def __init__(self, source, order_cap: int = DEFAULT_ORDER_CAP,
                 factor_bound: int = DEFAULT_FACTOR_BOUND):
        self._source = source
        self.order_cap = order_cap
        self.factor_bound = factor_bound
        self._det_jq = None
        self._kappa = None

    @cached_property
    def group(self) -> FiniteGroup:
        if isinstance(self._source, FiniteGroup):
            return self._source
        return build_group(self._source, self.order_cap)

    @property
    def label(self) -> str:
        return self.group.label

    @cached_property
    def graph(self) -> PowerGraph:
        return build_power_graph(self.group)

    @cached_property
    def decomposition(self) -> tuple[Component, ...]:
        return component_decomposition(self.graph)

    @property
    def det_jq(self) -> int:
        """det(J + Q) = n^2 * kappa of the full power graph, from its class Laplacian
        rooted at a class of smallest closed degree: a different elimination
        from the one ``kappa`` runs rooted at the identity's class, keyed, as
        that one is, by the graph's twin sets and their closed neighbourhoods.
        The count is read as an integer, at a factor bound of 1: nothing is
        trial-divided."""
        if self._det_jq is None:
            graph = self.graph
            n = graph.n
            det_jq = n * n * closed_twin_kappa(graph.closed, graph.twin_sets,
                                               factor_bound=1).value
            self._compare(det_jq, self._kappa)
            self._det_jq = det_jq
        return self._det_jq

    @property
    def kappa(self) -> FactoredInt:
        if self._kappa is None:
            kappa = kappa_decomposed(self.graph, self.factor_bound)
            self._compare(self._det_jq, kappa)
            self._kappa = kappa
        return self._kappa

    def _compare(self, det_jq, kappa) -> None:
        """Once both routes have run, det(J + Q) must equal n^2 * kappa; neither
        is computed only to check the other."""
        if det_jq is None or kappa is None:
            return
        n = self.graph.n
        if det_jq != n * n * kappa.value:
            raise ExactnessError(
                f"{self.label}: det(J+Q) = {decimal_short(det_jq)} is not "
                f"{n}^2 * kappa = {decimal_short(n * n * kappa.value)}")


def _as_bundle(source) -> GroupBundle:
    if isinstance(source, GroupBundle):
        return source
    return GroupBundle(source)


def _p_group_prime(group: FiniteGroup) -> int | None:
    """The prime p of a p-group, read from the cached spectrum; None for any
    other group, the trivial group included."""
    primes = group.spectrum().primes
    return next(iter(primes)) if len(primes) == 1 else None


def verify_component_count(source) -> VerificationResult:
    """p-groups: the reduced power graph has exactly c_p connected components."""
    bundle = _as_bundle(source)
    p = _p_group_prime(bundle.group)
    if p is None:
        raise ValueError(f"{bundle.label} is not a p-group")
    count = len(bundle.decomposition)
    expected = bundle.group.spectrum().cyclic_counts.get(p, 0)
    return VerificationResult(
        "pgroup-component-count", bundle.label, count == expected,
        f"{count} components; c_{p} = {expected}",
    )


def verify_maximal_prime_divisor(source) -> VerificationResult:
    """Every prime p maximal among element orders forces p^(p-2) | kappa."""
    bundle = _as_bundle(source)
    primes = sorted(m for m in bundle.group.spectrum().maximal_orders if is_prime(m))
    if not primes:
        return VerificationResult(
            "maximal-prime-kappa-divisor", bundle.label, True,
            "no maximal element order is prime",
        )
    kappa = bundle.kappa
    holds = all(kappa.valuation(p) >= p - 2 for p in primes)
    parts = ", ".join(f"{p}^{p - 2}" for p in primes)
    return VerificationResult(
        "maximal-prime-kappa-divisor", bundle.label, holds,
        f"{parts} divide kappa = {kappa}" if holds
        else f"some of {parts} fail to divide kappa = {kappa}",
    )


def _det_divisor_row(bundle: GroupBundle, claim_id: str, lead: str, divisor: int,
                     note: str = "") -> VerificationResult:
    """The row of a claim that `divisor` divides det(J+Q); `lead` names the
    divisor in the witness and `note` ends it."""
    det = bundle.det_jq
    holds = det % divisor == 0
    return VerificationResult(
        claim_id, bundle.label, holds,
        f"{lead} {'divides' if holds else 'does not divide'} det(J+Q) = "
        f"{decimal_short(det)}{note}",
    )


def verify_full_degree_divisor(source) -> VerificationResult:
    """k full-degree vertices force n^k | det(J+Q)."""
    bundle = _as_bundle(source)
    n = bundle.graph.n
    k = len(full_degree_vertices(bundle.graph))
    return _det_divisor_row(bundle, "full-degree-det-divisor", f"{n}^{k}", n ** k)


def verify_maximal_order_divisor(source, m: int) -> VerificationResult:
    """m maximal among element orders forces |G| * m^phi(m) | det(J+Q)."""
    bundle = _as_bundle(source)
    if m not in bundle.group.spectrum().maximal_orders:
        raise ValueError(f"{m} is not a maximal element order of {bundle.label}")
    n = bundle.group.n
    phi = euler_phi(m)
    divisor = n * m ** phi
    return _det_divisor_row(bundle, "maximal-order-det-divisor",
                            f"{n}*{m}^{phi} = {decimal_short(divisor)}", divisor)


def _element_degree_divisor(n: int, k: int, order: int) -> tuple[int, int]:
    """(phi(order), n * (k+1)^phi(order)): the det(J+Q) divisor that an
    element of degree k and that order gives, with its exponent."""
    phi = euler_phi(order)
    return phi, n * (k + 1) ** phi


def verify_element_degree_divisor(source, g: int) -> VerificationResult:
    """Degree k of an element g forces |G| * (k+1)^phi(order(g)) | det(J+Q)."""
    bundle = _as_bundle(source)
    group = bundle.group
    n = group.n
    if not 0 <= g < n:
        raise ValueError(f"element {g} is not an index of {bundle.label}'s {n} elements")
    if g == group.identity:
        raise ValueError("the identity element is excluded")
    k = bundle.graph.degree(g)
    phi, divisor = _element_degree_divisor(n, k, group.order_of(g))
    return _det_divisor_row(
        bundle, "element-degree-det-divisor",
        f"element {group.element_label(g)}: {n}*{k + 1}^{phi} = {decimal_short(divisor)}",
        divisor)


def verify_clique_components(source) -> VerificationResult:
    """p-groups whose reduced components are all cliques have kappa a power of p.

    Groups outside the precondition yield a passing result marked not
    applicable rather than a failure.
    """
    bundle = _as_bundle(source)
    p = _p_group_prime(bundle.group)
    if p is None:
        return VerificationResult(
            "clique-components-single-prime", bundle.label, True,
            "not applicable: not a p-group", applicable=False,
        )
    non_clique = next((c for c in bundle.decomposition if not c.is_clique), None)
    if non_clique is not None:
        return VerificationResult(
            "clique-components-single-prime", bundle.label, True,
            f"not applicable: a component of size {non_clique.size} is not a clique",
            applicable=False,
        )
    exponent = bundle.kappa.valuation(p)
    holds = bundle.kappa.value == p ** exponent
    witness = (f"kappa = {bundle.kappa}; prime support {{{p}}}" if exponent
               else "kappa = 1; empty prime support")
    if not holds:
        witness = f"kappa = {bundle.kappa} has a factor coprime to {p}"
    return VerificationResult(
        "clique-components-single-prime", bundle.label, holds, witness,
    )


def verify_product_bound(source, subgroups) -> VerificationResult:
    """Pairwise trivially intersecting proper subgroups H_i force
    kappa(G) > kappa(H_1) * ... * kappa(H_t).

    Each given set is checked to be a nontrivial proper subgroup, and the
    sets to meet only in the identity; then ``_product_bound_row`` counts.
    """
    bundle = _as_bundle(source)
    group = bundle.group
    member_sets = [frozenset(members) for members in subgroups]
    for members in member_sets:
        outside = next((g for g in members if not 0 <= g < group.n), None)
        if outside is not None:
            raise ValueError(f"element {outside} is not an index of "
                             f"{bundle.label}'s {group.n} elements")
        if len(members) <= 1:
            raise ValueError("subgroups must be nontrivial")
        if len(members) >= group.n:
            raise ValueError("subgroups must be proper")
        if group.identity not in members:
            raise ValueError("subgroups must contain the identity")
        if not group.is_subgroup(members):
            raise ValueError(f"a set of {len(members)} elements of {bundle.label} is not closed")
    for i in range(len(member_sets)):
        for j in range(i + 1, len(member_sets)):
            if member_sets[i] & member_sets[j] != {group.identity}:
                raise ValueError("subgroup intersections must be trivial")
    return _product_bound_row(bundle, member_sets)


def _product_bound_row(bundle: GroupBundle, subgroups) -> VerificationResult:
    """The product bound's row for subgroups already known to be nontrivial,
    proper and pairwise trivially intersecting, each given as its distinct
    elements. P(H) is P(G) induced on H, so each kappa(H_i) is counted on the
    group's own power graph, by ``_subgroup_kappa``."""
    product = 1
    for members in subgroups:
        product *= _subgroup_kappa(bundle.graph, members)
    kappa = bundle.kappa
    holds = kappa.value > product
    return VerificationResult(
        "trivial-intersection-product-bound", bundle.label, holds,
        f"kappa = {kappa} {'>' if holds else '<='} {decimal_short(product)} "
        f"(product over subgroups of orders {[len(members) for members in subgroups]})",
    )


def _subgroup_kappa(graph: PowerGraph, members) -> int:
    """kappa(H), as an integer, of a subgroup H given as its elements: g in H
    puts <g> in H, so H is a union of the graph's twin sets. They are counted
    with their closed neighbourhoods cut down to H, rooted at the identity,
    and the kernel merges those that become closed twins in P(H)."""
    mask = sum(1 << g for g in members)
    inside = sorted({graph.which[g] for g in members})
    return closed_twin_kappa([graph.closed[i] & mask for i in inside],
                             [graph.twin_sets[i] for i in inside],
                             graph.identity_vertex, factor_bound=1).value


def verify_factorial_cap(source) -> VerificationResult:
    """The smallest prime p with kappa < p^(p-2) bounds the primes of |G|
    by p-1 (they all divide (p-1)!)."""
    bundle = _as_bundle(source)
    cap = smallest_prime_power_above(bundle.kappa.value, lambda p: p - 2)
    primes = sorted(bundle.group.spectrum().primes)
    holds = all(q < cap for q in primes)
    return VerificationResult(
        "smallest-prime-factorial-cap", bundle.label, holds,
        f"smallest prime with kappa < p^(p-2) is {cap}; "
        f"group primes {primes} {'all divide' if holds else 'do not all divide'} "
        f"{cap - 1}!",
    )


def verify_simple_order_count(source, p: int) -> VerificationResult:
    """Nonabelian simple groups have at least p^2 - 1 elements of order p
    for every prime p dividing the group order."""
    bundle = _as_bundle(source)
    group = bundle.group
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if not group.is_nonabelian_simple():
        raise ValueError(f"{bundle.label} is not a nonabelian simple group")
    if group.n % p != 0:
        raise ValueError(f"{p} does not divide |{bundle.label}|")
    # each cyclic subgroup of order p holds p - 1 elements of order p
    count = group.spectrum().cyclic_counts.get(p, 0) * (p - 1)
    bound = p * p - 1
    return VerificationResult(
        "simple-order-p-count", bundle.label, count >= bound,
        f"{count} elements of order {p} (bound {bound})",
    )


# -- corpus runner --


def load_manifest(path=None) -> list[str]:
    """Group specs from a manifest file; defaults to the packaged corpus."""
    if path is None:
        text = (importlib.resources.files("powertree") / "data" / "corpus.txt"
                ).read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    specs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            specs.append(line)
    return specs


def _element_degree_rows(bundle: GroupBundle) -> list[VerificationResult]:
    # The degree bound is only guaranteed for elements whose neighbours all
    # lie inside their own cyclic subgroup (equivalently, the subgroup is
    # maximal cyclic); other elements can and do violate it.  One row per
    # group, covering the smallest generator of each maximal cyclic subgroup.
    # The identity (degree n - 1, order 1) never qualifies once n > 1.
    # A subgroup's generators are one twin set, whose closed neighbourhood
    # holds the subgroup, and the subgroup is maximal when it holds nothing
    # more. Then k = m - 1 for the order m, so the divisor n * m^phi(m)
    # depends on the order alone and is tested once per order.
    group = bundle.group
    if group.n == 1:
        return []
    det = bundle.det_jq
    n = group.n
    count = 0
    tested = set()  # the orders whose divisor divides det
    best = None  # (divisor, order, phi), the first of the largest divisors
    table = group.cyclic_subgroups()
    for order, generators, closed in zip(table.orders, table.generators, bundle.graph.closed):
        if closed.bit_count() != order:
            continue
        count += 1
        if order in tested:
            continue
        phi, divisor = _element_degree_divisor(n, order - 1, order)
        if det % divisor != 0:
            return [verify_element_degree_divisor(bundle, generators[0])]
        tested.add(order)
        if best is None or divisor > best[0]:
            best = (divisor, order, phi)
    divisor, order, phi = best
    plural = "s" if count != 1 else ""
    return [_det_divisor_row(
        bundle, "element-degree-det-divisor",
        f"{n}*{order}^{phi} = {decimal_short(divisor)}", divisor,
        f" (largest divisor over {count} maximal cyclic subgroup{plural})")]


def _product_bound_instance(bundle: GroupBundle):
    """Choose subgroup families whose product bound is provably strict.

    The bound degenerates to equality exactly when every element outside the
    chosen subgroups is adjacent only to the identity; the selection below
    guarantees some outside vertex of degree at least two, which forces the
    strict inequality. Groups admitting no such family (prime order, trivial,
    elementary abelian 2-groups) are reported as not applicable.
    """
    group = bundle.group
    n = group.n
    if n == 1:
        return None, "the trivial group has no nontrivial subgroup"
    if is_prime(n):
        return None, "the only nontrivial subgroup is the whole group"
    spectrum = group.spectrum()
    if spectrum.orders <= {1, 2}:
        return None, ("kappa = 1 equals every admissible product bound "
                      "(star-shaped power graph)")
    primes = sorted(spectrum.primes)
    # members of the cyclic subgroups of prime order, in order of their smallest generator
    table = group.cyclic_subgroups()
    prime_subgroups = [members for order, members in zip(table.orders, table.members)
                       if order in spectrum.primes]
    if len(primes) == 1:
        chosen = prime_subgroups[:2]
    else:
        chosen = [next(s for s in prime_subgroups if len(s) == p) for p in primes]
    if not _has_outside_witness(bundle, chosen):
        # drop the largest odd-prime subgroup: its generator becomes an
        # outside vertex adjacent to at least two others
        chosen = chosen[:-1]
    return chosen, None


def _has_outside_witness(bundle: GroupBundle, chosen) -> bool:
    union = set()
    for sub in chosen:
        union.update(sub)
    return any(bundle.graph.degree(v) >= 2
               for v in range(bundle.group.n) if v not in union)


def _product_bound_rows(bundle: GroupBundle) -> list[VerificationResult]:
    chosen, reason = _product_bound_instance(bundle)
    if chosen is None:
        return [VerificationResult(
            "trivial-intersection-product-bound", bundle.label, True,
            f"not applicable: {reason}", applicable=False,
        )]
    # the table's subgroups of distinct prime orders, or of one prime order
    # and distinct, are subgroups meeting only in the identity
    return [_product_bound_row(bundle, chosen)]


# claim id -> the rows it adds for one group, in the runner's order
_CLAIM_ROWS = {
    "pgroup-component-count": lambda b: (
        [verify_component_count(b)] if _p_group_prime(b.group) is not None else []),
    "maximal-prime-kappa-divisor": lambda b: [verify_maximal_prime_divisor(b)],
    "full-degree-det-divisor": lambda b: [verify_full_degree_divisor(b)],
    "maximal-order-det-divisor": lambda b: [
        verify_maximal_order_divisor(b, m) for m in sorted(b.group.spectrum().maximal_orders)],
    "element-degree-det-divisor": _element_degree_rows,
    "clique-components-single-prime": lambda b: [verify_clique_components(b)],
    "trivial-intersection-product-bound": _product_bound_rows,
    "smallest-prime-factorial-cap": lambda b: [verify_factorial_cap(b)],
    "simple-order-p-count": lambda b: (
        [verify_simple_order_count(b, p) for p in sorted(b.group.spectrum().primes)]
        if b.group.is_nonabelian_simple() else []),
}
CLAIM_IDS = tuple(_CLAIM_ROWS)


def run_verifications(specs=None, claims=None, order_cap: int = DEFAULT_ORDER_CAP,
                      factor_bound: int = DEFAULT_FACTOR_BOUND) -> list[VerificationResult]:
    """Apply the claim suite to every group in the manifest, in manifest order."""
    if specs is None:
        specs = load_manifest()
    if claims is None:
        selected = CLAIM_IDS
    else:
        for claim in claims:
            if claim not in _CLAIM_ROWS:
                raise ValueError(f"unknown claim id {claim!r}")
        selected = tuple(claims)
    results = []
    for spec in specs:
        bundle = GroupBundle(spec, order_cap=order_cap, factor_bound=factor_bound)
        for claim in selected:
            results.extend(_CLAIM_ROWS[claim](bundle))
    return results
