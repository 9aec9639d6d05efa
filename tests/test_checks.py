"""Claim verifiers and the corpus runner."""
import hashlib
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertree import (CLAIM_IDS, DEFAULT_ORDER_CAP, GroupBundle, GroupSpecError,
                       OrderCapError, VerificationResult, build_group, build_power_graph,
                       det_bareiss, load_manifest, ones_plus_laplacian,
                       run_verifications, spec_order, verify_clique_components,
                       verify_component_count, verify_element_degree_divisor,
                       verify_factorial_cap, verify_full_degree_divisor,
                       verify_maximal_order_divisor,
                       verify_maximal_prime_divisor, verify_product_bound,
                       verify_simple_order_count)
from powertree.arith import decimal_short, euler_phi
from powertree.checks import _product_bound_instance, _subgroup_kappa
from powertree.treecount import kappa_decomposed


def _subgroups_of_order(group, order, limit=None):
    found = []
    for g in range(group.n):
        if group.order_of(g) == order:
            sub = group.cyclic_subgroup(g)
            if sub not in found:
                found.append(sub)
            if limit is not None and len(found) == limit:
                break
    return found


def test_bundle_caches_and_shortcuts():
    bundle = GroupBundle("cyclic:5")
    assert bundle.label == "cyclic:5"
    assert bundle.kappa.value == 125
    assert bundle.det_jq == 5 ** 5  # complete graph, so J + Q = 5I
    direct = det_bareiss(ones_plus_laplacian(bundle.graph))
    assert direct == bundle.det_jq
    from_group = GroupBundle(build_group("cyclic:6"))
    assert from_group.kappa.value == 540
    assert from_group.det_jq == 540 * 36


def test_bundle_keeps_its_group_graph_and_components():
    group = build_group("dihedral:8")
    bundle = GroupBundle(group)
    assert bundle.group is group
    assert bundle.graph is bundle.graph
    assert bundle.graph.group is group
    decomposition = bundle.decomposition
    assert isinstance(decomposition, tuple) and len(decomposition) == 5
    assert bundle.decomposition is decomposition
    # a spec is built on first use: an over-cap one is refused then, and again
    over = GroupBundle("cyclic:6", order_cap=5)
    for _ in range(2):
        with pytest.raises(OrderCapError):
            over.group


def test_component_count_claim():
    assert verify_component_count("quaternion:8").holds
    d8 = verify_component_count("dihedral:8")
    assert d8.holds and "5 components; c_2 = 5" in d8.witness
    assert verify_component_count("cyclic:16").holds
    assert verify_component_count("elemabelian:2:4").holds
    with pytest.raises(ValueError):
        verify_component_count("cyclic:6")


def test_maximal_prime_divisor_claim():
    result = verify_maximal_prime_divisor("alt:5")
    assert result.holds
    assert "divide kappa" in result.witness
    assert verify_maximal_prime_divisor("sym:3").holds
    vacuous = verify_maximal_prime_divisor("cyclic:6")
    assert vacuous.holds
    assert vacuous.witness == "no maximal element order is prime"


def test_full_degree_divisor_claim():
    result = verify_full_degree_divisor("quaternion:8")
    assert result.holds
    assert "8^2" in result.witness
    assert verify_full_degree_divisor("cyclic:6").holds
    assert verify_full_degree_divisor("elemabelian:3:2").holds


def test_maximal_order_divisor_claim():
    result = verify_maximal_order_divisor("cyclic:6", 6)
    assert result.holds
    assert "6*6^2 = 216" in result.witness
    assert verify_maximal_order_divisor("quaternion:8", 4).holds
    with pytest.raises(ValueError):
        verify_maximal_order_divisor("quaternion:8", 2)  # 2 divides 4


def test_element_degree_divisor_claim():
    group = build_group("quaternion:8")
    bundle = GroupBundle(group)
    generator = next(g for g in range(8) if group.order_of(g) == 4)
    result = verify_element_degree_divisor(bundle, generator)
    assert result.holds
    assert "8*4^2 = 128" in result.witness
    with pytest.raises(ValueError):
        verify_element_degree_divisor(bundle, group.identity)
    # -1 would otherwise read element 7, and 8 raise an IndexError
    for g in (-1, -8, 8, 100):
        with pytest.raises(ValueError, match="is not an index of"):
            verify_element_degree_divisor(bundle, g)


def test_element_degree_divisor_fails_off_maximal_subgroups():
    # honest report: an order-3 element of Z6 has degree 4, and
    # 6*5^2 = 150 does not divide det(J+Q) = 19440
    result = verify_element_degree_divisor("cyclic:6", 2)
    assert not result.holds
    assert "6*5^2 = 150 does not divide" in result.witness
    # the corpus row only covers maximal cyclic subgroups, where the
    # bound always holds, so the aggregate still passes
    (row,) = run_verifications(["cyclic:6"],
                               claims=["element-degree-det-divisor"])
    assert row.holds
    assert "over 1 maximal cyclic subgroup)" in row.witness


@pytest.mark.parametrize("spec,det,full,maximal,element", [
    # det(J+Q) is 19440 on cyclic:6 and 1024 on dihedral:8
    ("cyclic:6", 19441, (False, "6^3 does not divide det(J+Q) = 19441"),
     "6*6^2 = 216 does not divide det(J+Q) = 19441",
     "element 1: 6*6^2 = 216 does not divide det(J+Q) = 19441"),
    ("dihedral:8", 48, (True, "8^1 divides det(J+Q) = 48"),
     "8*4^2 = 128 does not divide det(J+Q) = 48",
     "element r1: 8*4^2 = 128 does not divide det(J+Q) = 48"),
])
def test_det_divisor_rows_report_a_failure(monkeypatch, spec, det, full, maximal, element):
    # no group fails these claims, so det(J+Q) is replaced by a value they miss
    monkeypatch.setattr(GroupBundle, "det_jq", property(lambda self: det))
    bundle = GroupBundle(spec)
    row = verify_full_degree_divisor(bundle)
    assert (row.holds, row.witness) == full
    (m,) = bundle.group.spectrum().maximal_orders
    row = verify_maximal_order_divisor(bundle, m)
    assert (row.holds, row.witness) == (False, maximal)
    # the runner hands back the verifier's row for the first failing subgroup
    (row,) = run_verifications([spec], ["element-degree-det-divisor"])
    assert (row.holds, row.witness) == (False, element)
    # subgroup 1, <1> or <r1>, is maximal and the first to fail
    first = bundle.group.cyclic_subgroups().generators[1][0]
    assert row == verify_element_degree_divisor(bundle, first)


def test_element_degree_summary_row_names_the_largest_divisor(monkeypatch):
    # dihedral:8's maximal cyclic subgroups: <r1>, giving 8*4^2 = 128, and
    # four reflections, each giving 8*2^1 = 16
    monkeypatch.setattr(GroupBundle, "det_jq", property(lambda self: 384))
    (row,) = run_verifications(["dihedral:8"], ["element-degree-det-divisor"])
    assert row.holds
    assert row.witness == ("8*4^2 = 128 divides det(J+Q) = 384 "
                           "(largest divisor over 5 maximal cyclic subgroups)")


def _maximal_cyclic_generators(group) -> list[int]:
    """The smallest generator of each maximal cyclic subgroup, in table order:
    one that no cyclic subgroup of larger order contains. The identity is left out."""
    table = group.cyclic_subgroups()
    member_sets = [frozenset(members) for members in table.members]
    return [generators[0] for order, generators in zip(table.orders, table.generators)
            if generators[0] != group.identity
            and not any(other > order and generators[0] in members
                        for other, members in zip(table.orders, member_sets))]


@pytest.mark.parametrize("spec", load_manifest() + ["dihedral:1980", "elemabelian:2:10"])
def test_element_degree_row_is_the_brute_force_row(spec):
    # every maximal cyclic subgroup's own verifier holds, and the runner's one
    # row names their number and the first of the largest divisors
    rows = run_verifications([spec], ["element-degree-det-divisor"])
    bundle = GroupBundle(spec)
    group = bundle.group
    maximal = _maximal_cyclic_generators(group)
    if not maximal:
        assert group.n == 1 and rows == []
        return
    assert all(verify_element_degree_divisor(bundle, g).holds for g in maximal)
    n = group.n
    divisor, g = max(((n * group.order_of(g) ** euler_phi(group.order_of(g)), g)
                      for g in maximal), key=lambda pair: pair[0])
    m = group.order_of(g)
    plural = "s" if len(maximal) != 1 else ""
    assert rows == [VerificationResult(
        "element-degree-det-divisor", bundle.label, True,
        f"{n}*{m}^{euler_phi(m)} = {decimal_short(divisor)} divides det(J+Q) = "
        f"{decimal_short(bundle.det_jq)} (largest divisor over {len(maximal)} "
        f"maximal cyclic subgroup{plural})")]


def test_clique_components_claim():
    result = verify_clique_components("cyclic:8")
    assert result.holds and result.applicable
    assert "prime support {2}" in result.witness

    threes = verify_clique_components("elemabelian:3:2")
    assert threes.holds and threes.applicable
    assert "prime support {3}" in threes.witness

    ones = verify_clique_components("elemabelian:2:3")
    assert ones.holds and ones.applicable
    assert ones.witness == "kappa = 1; empty prime support"

    quaternion = verify_clique_components("quaternion:8")
    assert quaternion.holds and not quaternion.applicable
    assert quaternion.witness.startswith("not applicable: a component of size 7")

    composite = verify_clique_components("cyclic:6")
    assert composite.holds and not composite.applicable
    assert composite.witness == "not applicable: not a p-group"


def test_product_bound_claim_strict_cases():
    z6 = build_group("cyclic:6")
    halves = _subgroups_of_order(z6, 2) + _subgroups_of_order(z6, 3)
    result = verify_product_bound(z6, halves)
    assert result.holds
    assert "kappa = 2^2*3^3*5 >" in result.witness

    a5 = build_group("alt:5")
    fives = _subgroups_of_order(a5, 5, limit=3)
    assert verify_product_bound(a5, fives).holds


def test_product_bound_claim_reports_equality_faithfully():
    s3 = build_group("sym:3")
    assert not verify_product_bound(s3, _subgroups_of_order(s3, 3)).holds
    d10 = build_group("dihedral:10")
    assert not verify_product_bound(d10, _subgroups_of_order(d10, 5)).holds


def test_product_bound_claim_validates_input():
    z12 = build_group("cyclic:12")
    with pytest.raises(ValueError):
        verify_product_bound(z12, [{0}])  # trivial
    with pytest.raises(ValueError):
        verify_product_bound(z12, [set(range(12))])  # not proper
    with pytest.raises(ValueError):
        verify_product_bound(z12, [{0, 3, 6, 9}, {0, 6}])  # shared involution
    c6 = GroupBundle("cyclic:6")
    for outside in (99, 6, -1):
        with pytest.raises(ValueError, match=f"element {outside} is not an index"):
            verify_product_bound(c6, [[0, outside]])
    s3 = build_group("sym:3")
    rotation = next(g for g in range(6) if s3.order_of(g) == 3)
    with pytest.raises(ValueError, match="not closed"):
        verify_product_bound(s3, [{s3.identity, rotation}])
    with pytest.raises(ValueError, match="identity"):
        verify_product_bound(s3, [{rotation, s3.inverse(rotation)}])


def _closure(group, generators) -> frozenset[int]:
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = {group.mul(x, g) for x in frontier for g in generators} - members
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def _standalone_kappa(spec) -> int:
    return kappa_decomposed(build_power_graph(build_group(spec))).value


@pytest.mark.parametrize("spec", ["dihedral:10", "alt:5", "quaternion:16"])
def test_kappa_on_a_cyclic_subgroup_of_the_power_graph(spec):
    # P(H) is P(G) induced on H: the product bound counts kappa(H) on G's
    # twin sets inside H, their closed neighbourhoods cut down to H
    group = build_group(spec)
    graph = build_power_graph(group)
    for g in range(group.n):
        members = _closure(group, [g])
        assert _subgroup_kappa(graph, members) == _standalone_kappa(f"cyclic:{len(members)}")


def test_kappa_on_a_noncyclic_subgroup_of_the_power_graph():
    a4 = build_group("alt:4")
    involutions = [g for g in range(a4.n) if a4.order_of(g) == 2]
    klein = _closure(a4, involutions)
    assert len(klein) == 4
    kappa = _subgroup_kappa(build_power_graph(a4), klein)
    assert kappa == _standalone_kappa("elemabelian:2:2") == 1
    q16 = build_group("quaternion:16")
    by_label = {q16.element_label(g): g for g in range(q16.n)}
    q8 = _closure(q16, [by_label["a2"], by_label["b"]])  # <a^2, b>
    assert len(q8) == 8
    kappa = _subgroup_kappa(build_power_graph(q16), q8)
    assert kappa == _standalone_kappa("quaternion:8") == 2 ** 11


def test_factorial_cap_claim():
    s3 = verify_factorial_cap("sym:3")
    assert s3.holds and "is 5" in s3.witness
    q8 = verify_factorial_cap("quaternion:8")
    assert q8.holds and "is 7" in q8.witness
    klein = verify_factorial_cap("elemabelian:2:2")
    assert klein.holds and "is 3" in klein.witness


def test_simple_order_count_claim():
    counts = {2: 15, 3: 20, 5: 24}
    for p, count in counts.items():
        result = verify_simple_order_count("alt:5", p)
        assert result.holds
        assert result.witness == f"{count} elements of order {p} (bound {p * p - 1})"
    sevens = verify_simple_order_count("psl2:7", 7)
    assert sevens.holds and sevens.witness.startswith("48 elements")
    with pytest.raises(ValueError):
        verify_simple_order_count("sym:4", 2)
    with pytest.raises(ValueError):
        verify_simple_order_count("alt:5", 7)
    # a p that is not prime: 4 divides |A5| = 60, and 1 would pass vacuously
    for p in (4, 1, 0, -2, 6, 15):
        with pytest.raises(ValueError, match="is not a prime"):
            verify_simple_order_count("alt:5", p)


@pytest.mark.parametrize("spec", ["alt:5", "psl2:7", "psl2:8"])
def test_simple_order_count_matches_brute_force(spec):
    bundle = GroupBundle(spec)
    group = bundle.group
    for p in sorted(group.spectrum().primes):
        count = sum(1 for g in range(group.n) if group.order_of(g) == p)
        result = verify_simple_order_count(bundle, p)
        assert result.witness == f"{count} elements of order {p} (bound {p * p - 1})"


def test_result_json_shape():
    result = verify_component_count("quaternion:8")
    payload = result.to_json_dict()
    assert list(payload) == ["claim_id", "group", "holds", "witness", "applicable"]
    assert payload["group"] == "quaternion:8"
    assert payload["holds"] is True
    assert payload["applicable"] is True
    skipped = verify_clique_components("cyclic:6").to_json_dict()
    assert skipped["holds"] is True and skipped["applicable"] is False


def test_run_verifications_small_corpus():
    results = run_verifications(["cyclic:6", "quaternion:8", "sym:3"])
    assert results
    assert all(r.holds for r in results)
    assert {r.claim_id for r in results} <= set(CLAIM_IDS)
    # claim order is fixed within each group, groups in manifest order
    labels = [r.group_label for r in results]
    assert labels == sorted(labels, key=["cyclic:6", "quaternion:8", "sym:3"].index)


def test_run_verifications_claim_filter():
    rows = run_verifications(["quaternion:8"], claims=["element-degree-det-divisor"])
    assert len(rows) == 1
    assert "over 3 maximal cyclic subgroups" in rows[0].witness
    assert run_verifications(["cyclic:6"], claims=["pgroup-component-count"]) == []
    assert run_verifications(["sym:4"], claims=["simple-order-p-count"]) == []
    fives = run_verifications(["alt:5"], claims=["simple-order-p-count"])
    assert [r.witness.split()[0] for r in fives] == ["15", "20", "24"]
    with pytest.raises(ValueError):
        run_verifications(["cyclic:6"], claims=["made-up-claim"])


def test_run_verifications_product_bound_instances():
    for spec, phrase in [
        ("cyclic:1", "trivial group"),
        ("cyclic:7", "only nontrivial subgroup"),
        ("elemabelian:2:4", "star-shaped"),
    ]:
        (row,) = run_verifications([spec], claims=["trivial-intersection-product-bound"])
        assert row.holds and not row.applicable
        assert row.witness.startswith("not applicable:")
        assert phrase in row.witness
    for spec in ["sym:3", "dihedral:10", "cyclic:6", "quaternion:8", "alt:5"]:
        (row,) = run_verifications([spec], claims=["trivial-intersection-product-bound"])
        assert row.holds and row.applicable


@pytest.mark.parametrize("spec", load_manifest())
def test_product_bound_row_is_the_validated_row(spec):
    # the runner skips the input checks on the subgroups it chose itself;
    # the public verifier, which makes them, gives the same row
    (row,) = run_verifications([spec], ["trivial-intersection-product-bound"])
    bundle = GroupBundle(spec)
    chosen, _ = _product_bound_instance(bundle)
    if chosen is None:
        assert not row.applicable
        return
    assert row == verify_product_bound(bundle, chosen)


def test_load_manifest(tmp_path):
    specs = load_manifest()
    assert len(specs) > 100
    for expected in ["cyclic:1", "quaternion:8", "alt:6", "psl2:11",
                     "cyclic:2 x cyclic:4", "dihedral:8"]:
        assert expected in specs
    custom = tmp_path / "corpus.txt"
    custom.write_text("# comment\ncyclic:6\n\nquaternion:8  # trailing\n")
    assert load_manifest(custom) == ["cyclic:6", "quaternion:8"]


@pytest.mark.parametrize("spec", load_manifest())
def test_det_jq_equals_n_squared_kappa(spec):
    bundle = GroupBundle(spec)
    assert bundle.det_jq == bundle.group.n ** 2 * bundle.kappa.value


# grammar-accepted products near the order cap of 2000, and the star-shaped
# elemabelian:2:10, whose 1024 closed-twin classes are all singletons
NEAR_CAP_SPECS = ("sym:6 x cyclic:2", "psl2:11 x cyclic:3", "quaternion:32 x dihedral:60",
                  "sym:4 x sym:4 x cyclic:3", "sym:5 x dihedral:16", "elemabelian:2:10")


@pytest.mark.parametrize("spec", NEAR_CAP_SPECS)
def test_specs_near_the_order_cap_finish(spec):
    bundle = GroupBundle(spec)
    assert bundle.det_jq == bundle.group.n ** 2 * bundle.kappa.value
    rows = run_verifications([spec])
    assert rows
    assert [r for r in rows if not r.holds] == []


# one-parameter families: (valid parameters, malformed ones, the order), the
# orders written out here rather than read from spec_order
_ATOM_FAMILIES = {
    "cyclic": (st.integers(1, 60), st.just(0), lambda n: n),
    "dihedral": (st.integers(1, 30).map(lambda h: 2 * h), st.sampled_from((0, 1, 15)),
                 lambda n: n),
    "quaternion": (st.integers(2, 16).map(lambda h: 4 * h), st.sampled_from((4, 6, 10)),
                   lambda n: n),
    "sym": (st.integers(1, 6), st.just(0), math.factorial),
    "alt": (st.integers(1, 6), st.just(0), lambda n: max(math.factorial(n) // 2, 1)),
    "psl2": (st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13)), st.sampled_from((1, 6, 10, 12)),
             lambda q: q * (q * q - 1) // math.gcd(2, q - 1)),
}


@st.composite
def spec_atoms(draw):
    """An atom of the spec grammar and its order, None for a malformed parameter
    (about one atom in ten)."""
    family = draw(st.sampled_from(sorted(_ATOM_FAMILIES) + ["elemabelian"]))
    malformed = draw(st.integers(0, 9)) == 0
    if family == "elemabelian":
        if malformed:
            p, k = draw(st.sampled_from(((1, 2), (4, 2), (6, 1), (3, 0))))
            return f"elemabelian:{p}:{k}", None
        p, k = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 4))
        return f"elemabelian:{p}:{k}", p ** k
    valid, bad, order = _ATOM_FAMILIES[family]
    if malformed:
        return f"{family}:{draw(bad)}", None
    param = draw(valid)
    return f"{family}:{param}", order(param)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(spec_atoms(), min_size=1, max_size=3))
def test_every_accepted_spec_finishes_with_its_claims_holding(atoms):
    spec = " x ".join(atom for atom, _ in atoms)
    orders = [order for _, order in atoms]
    if None in orders:
        with pytest.raises(GroupSpecError):
            build_group(spec)
        return
    if math.prod(orders) > DEFAULT_ORDER_CAP:
        with pytest.raises(OrderCapError):
            build_group(spec)
        return
    bundle = GroupBundle(spec)
    assert bundle.group.n == math.prod(orders)
    assert bundle.det_jq == bundle.group.n ** 2 * bundle.kappa.value
    rows = run_verifications([spec])
    assert rows
    assert [r for r in rows if not r.holds] == []


def _atoms_up_to(cap: int) -> list[tuple[str, int]]:
    """Every one-atom spec the grammar accepts at order <= cap, with its order."""
    candidates = [f"{family}:{n}"
                  for family in ("cyclic", "dihedral", "quaternion", "sym", "alt", "psl2")
                  for n in range(1, cap + 1)]
    candidates += [f"elemabelian:{p}:{k}" for p in range(2, cap + 1)
                   for k in range(1, cap.bit_length())]
    atoms = []
    for spec in candidates:
        try:
            order = spec_order(spec, cap)
        except GroupSpecError:
            continue
        if order <= cap:
            atoms.append((spec, order))
    return atoms


# claim id -> its applicable rows over every atom of order <= 256 and every
# unordered pair of nontrivial atoms with product <= 256 (3933 specs)
SWEEP_APPLICABLE_ROWS = {
    "pgroup-component-count": 411,
    "maximal-prime-kappa-divisor": 3933,
    "full-degree-det-divisor": 3933,
    "maximal-order-det-divisor": 4520,
    "element-degree-det-divisor": 3929,
    "clique-components-single-prime": 234,
    "trivial-intersection-product-bound": 3757,
    "smallest-prime-factorial-cap": 3933,
    "simple-order-p-count": 12,
}


def test_claims_hold_on_every_atom_and_pair_up_to_order_256(monkeypatch):
    atoms = _atoms_up_to(256)
    nontrivial = [(spec, order) for spec, order in atoms if order > 1]
    specs = [spec for spec, _ in atoms] + [
        f"{a} x {b}" for (a, m), (b, n) in itertools.combinations_with_replacement(nontrivial, 2)
        if m * n <= 256]
    assert len(specs) == 3933
    # each spec's claims compute both det(J+Q) and kappa; the bundle compares
    # them once both exist and raises unless det(J+Q) = n^2 * kappa
    compared = []
    compare = GroupBundle._compare

    def counted(bundle, det_jq, kappa):
        compare(bundle, det_jq, kappa)
        if det_jq is not None and kappa is not None:
            compared.append(bundle.label)

    monkeypatch.setattr(GroupBundle, "_compare", counted)
    rows = run_verifications(specs)
    assert len(compared) == len(specs)
    assert [r for r in rows if not r.holds] == []
    assert len(rows) == 28537
    assert Counter(r.claim_id for r in rows if r.applicable) == SWEEP_APPLICABLE_ROWS
    digest = hashlib.sha256()
    for r in rows:
        digest.update(repr((r.claim_id, r.group_label, r.holds, r.witness,
                            r.applicable)).encode())
    assert digest.hexdigest() == (
        "ba472806fe7a6f73864b253f9cff0340fccd2cd03d847fc76512c5e00c331457")


def test_fmt_abbreviates_without_str():
    assert decimal_short(12345) == "12345"
    assert decimal_short(10 ** 39) == str(10 ** 39)
    assert decimal_short(10 ** 40 + 7) == "100000000000...000007 (41 digits)"
    huge = 123456789012345 * 10 ** 5000 + 4321  # past the int-to-str limit
    assert decimal_short(huge) == "123456789012...004321 (5015 digits)"
    assert decimal_short(-(10 ** 5000)) == "-100000000000...000000 (5001 digits)"


def test_full_degree_claim_on_a_det_past_the_str_limit():
    (row,) = run_verifications(["cyclic:1849"], ["full-degree-det-divisor"])
    assert row.holds
    assert row.witness.startswith("1849^1849 divides det(J+Q) = ")
    assert row.witness.endswith("(6041 digits)")


def test_corpus_claim_rows_are_pinned():
    # every row of the default corpus at the default cap and factor bound, in order
    rows = run_verifications(load_manifest())
    digest = hashlib.sha256()
    for r in rows:
        digest.update(repr((r.claim_id, r.group_label, r.holds, r.witness,
                            r.applicable)).encode())
    assert len(rows) == 1271
    assert digest.hexdigest() == (
        "c9b0135d56d5b3ec011226f3b74420640a3a7d683ca26ad08bfe4565274cdfb3")
