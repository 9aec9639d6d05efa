"""Machine verification of divisibility and structure claims about power graphs.

Each claim known to hold for every finite group (or every p-group, simple
group, ...) gets a verifier returning a :class:`VerificationResult`; the
corpus runner applies all of them to a manifest of group specs.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

from .arith import (DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt, decimal_short,
                    euler_phi, is_prime, prime_power, smallest_prime_power_above)
from .determinant import twin_class_kappa
from .graphs import (ComponentDecomposition, PowerGraph, build_power_graph,
                     component_decomposition, full_degree_vertices)
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
    """A group together with lazily computed graphs, counts and determinants."""

    def __init__(self, source, order_cap: int = DEFAULT_ORDER_CAP,
                 factor_bound: int = DEFAULT_FACTOR_BOUND):
        if isinstance(source, FiniteGroup):
            self._group = source
        else:
            self._group = None
            self._spec = source
        self.order_cap = order_cap
        self.factor_bound = factor_bound
        self._graph = None
        self._decomposition = None
        self._det_jq = None
        self._kappa = None

    @property
    def group(self) -> FiniteGroup:
        if self._group is None:
            self._group = build_group(self._spec, self.order_cap)
        return self._group

    @property
    def label(self) -> str:
        return self.group.label

    @property
    def graph(self) -> PowerGraph:
        if self._graph is None:
            self._graph = build_power_graph(self.group)
        return self._graph

    @property
    def decomposition(self) -> ComponentDecomposition:
        if self._decomposition is None:
            self._decomposition = component_decomposition(self.group, self.graph)
        return self._decomposition

    @property
    def det_jq(self) -> int:
        """det(J + Q) = n^2 * kappa of the full power graph, from its class Laplacian
        rooted at a class of smallest closed degree: a different elimination
        from the one ``kappa`` runs rooted at the identity's class. The count
        is read as an integer, at a factor bound of 1: nothing is trial-divided."""
        if self._det_jq is None:
            n = self.graph.n
            det_jq = n * n * twin_class_kappa(self.graph.rows, range(n), factor_bound=1).value
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


def verify_component_count(source) -> VerificationResult:
    """p-groups: the reduced power graph has exactly c_p connected components."""
    bundle = _as_bundle(source)
    pk = prime_power(bundle.group.n)
    if pk is None:
        raise ValueError(f"{bundle.label} is not a p-group")
    p = pk[0]
    count = bundle.decomposition.count
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


def verify_full_degree_divisor(source) -> VerificationResult:
    """k full-degree vertices force n^k | det(J+Q)."""
    bundle = _as_bundle(source)
    n = bundle.graph.n
    k = len(full_degree_vertices(bundle.graph))
    det = bundle.det_jq
    holds = det % n ** k == 0
    return VerificationResult(
        "full-degree-det-divisor", bundle.label, holds,
        f"{n}^{k} {'divides' if holds else 'does not divide'} det(J+Q) = {decimal_short(det)}",
    )


def verify_maximal_order_divisor(source, m: int) -> VerificationResult:
    """m maximal among element orders forces |G| * m^phi(m) | det(J+Q)."""
    bundle = _as_bundle(source)
    if m not in bundle.group.spectrum().maximal_orders:
        raise ValueError(f"{m} is not a maximal element order of {bundle.label}")
    n = bundle.group.n
    phi = euler_phi(m)
    divisor = n * m ** phi
    holds = bundle.det_jq % divisor == 0
    return VerificationResult(
        "maximal-order-det-divisor", bundle.label, holds,
        f"{n}*{m}^{phi} = {decimal_short(divisor)} "
        f"{'divides' if holds else 'does not divide'} det(J+Q) = {decimal_short(bundle.det_jq)}",
    )


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
    phi = euler_phi(group.order_of(g))
    divisor = n * (k + 1) ** phi
    holds = bundle.det_jq % divisor == 0
    return VerificationResult(
        "element-degree-det-divisor", bundle.label, holds,
        f"element {group.element_label(g)}: {n}*{k + 1}^{phi} = {decimal_short(divisor)} "
        f"{'divides' if holds else 'does not divide'} det(J+Q) = {decimal_short(bundle.det_jq)}",
    )


def verify_clique_components(source) -> VerificationResult:
    """p-groups whose reduced components are all cliques have kappa a power of p.

    Groups outside the precondition yield a passing result marked not
    applicable rather than a failure.
    """
    bundle = _as_bundle(source)
    pk = prime_power(bundle.group.n)
    if pk is None:
        return VerificationResult(
            "clique-components-single-prime", bundle.label, True,
            "not applicable: not a p-group", applicable=False,
        )
    non_clique = next((c for c in bundle.decomposition.components if not c.is_clique), None)
    if non_clique is not None:
        return VerificationResult(
            "clique-components-single-prime", bundle.label, True,
            f"not applicable: a component of size {non_clique.size} is not a clique",
            applicable=False,
        )
    p = pk[0]
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

    P(H) is P(G) induced on H, so each kappa(H_i) is counted on the rows of
    the group's own power graph.
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
        if any(group.mul(a, b) not in members for a in members for b in members):
            raise ValueError(f"a set of {len(members)} elements of {bundle.label} is not closed")
    for i in range(len(member_sets)):
        for j in range(i + 1, len(member_sets)):
            if member_sets[i] & member_sets[j] != {group.identity}:
                raise ValueError("subgroup intersections must be trivial")
    product = 1
    for members in member_sets:
        product *= twin_class_kappa(bundle.graph.rows, members, group.identity,
                                    factor_bound=1).value
    kappa = bundle.kappa
    holds = kappa.value > product
    return VerificationResult(
        "trivial-intersection-product-bound", bundle.label, holds,
        f"kappa = {kappa} {'>' if holds else '<='} {decimal_short(product)} "
        f"(product over subgroups of orders {[len(members) for members in member_sets]})",
    )


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
    group = bundle.group
    if group.n == 1:
        return []
    det = bundle.det_jq
    n = group.n
    count = 0
    best = None  # (divisor, element, degree, phi)
    for prof, generators in group.cyclic_subgroups().items():
        g = generators[0]
        k = bundle.graph.degree(g)
        if k != prof.order - 1:
            continue
        count += 1
        phi = euler_phi(prof.order)
        divisor = n * (k + 1) ** phi
        if det % divisor != 0:
            return [verify_element_degree_divisor(bundle, g)]
        if best is None or divisor > best[0]:
            best = (divisor, g, k, phi)
    divisor, g, k, phi = best
    plural = "s" if count != 1 else ""
    witness = (f"{n}*{k + 1}^{phi} = {decimal_short(divisor)} divides det(J+Q) = "
               f"{decimal_short(det)} (largest divisor over {count} maximal cyclic "
               f"subgroup{plural})")
    return [VerificationResult("element-degree-det-divisor", bundle.label, True, witness)]


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
    # cyclic subgroups of prime order, in order of their smallest generator
    prime_subgroups = [prof.subgroup for prof in group.cyclic_subgroups()
                       if prof.order in spectrum.primes]
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
        union |= sub
    return any(bundle.graph.degree(v) >= 2
               for v in range(bundle.group.n) if v not in union)


def _product_bound_rows(bundle: GroupBundle) -> list[VerificationResult]:
    chosen, reason = _product_bound_instance(bundle)
    if chosen is None:
        return [VerificationResult(
            "trivial-intersection-product-bound", bundle.label, True,
            f"not applicable: {reason}", applicable=False,
        )]
    return [verify_product_bound(bundle, chosen)]


# claim id -> the rows it adds for one group, in the runner's order
_CLAIM_ROWS = {
    "pgroup-component-count": lambda b: (
        [verify_component_count(b)] if prime_power(b.group.n) is not None else []),
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
