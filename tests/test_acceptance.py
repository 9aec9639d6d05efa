"""End-to-end acceptance checks, one test per criterion.

Each test prints an explicit ``criterion NN PASS/FAIL`` line (visible under
``pytest -s``) in addition to its own pytest verdict, and asserts the agreed
wall-clock budget where one is stated.
"""
import contextlib
import random
import time
from fractions import Fraction

from powertree import (SUCCESS_VERDICT, FactoredInt, Graph, build_group,
                       build_power_graph, closed_form_psl2,
                       closed_form_quaternion, component_decomposition,
                       compute_kappa, det_bareiss, kappa_matrix_tree,
                       load_manifest, ones_plus_laplacian, recognize,
                       run_verifications, spec_order, verify_component_count)
from powertree.arith import prime_power
from powertree.checks import GroupBundle

from _deletion_contraction import DC_VERTEX_LIMIT, kappa_deletion_contraction

QUATERNION_MATRIX = [
    [4, 0, 1, 1, 1, 1, 0, 0],
    [0, 4, 1, 1, 1, 1, 0, 0],
    [1, 1, 4, 0, 1, 1, 0, 0],
    [1, 1, 0, 4, 1, 1, 0, 0],
    [1, 1, 1, 1, 4, 0, 0, 0],
    [1, 1, 1, 1, 0, 4, 0, 0],
    [0, 0, 0, 0, 0, 0, 8, 0],
    [0, 0, 0, 0, 0, 0, 0, 8],
]


@contextlib.contextmanager
def criterion(number: int):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        print(f"criterion {number:02d} {verdict}")


def test_criterion_01_quaternion_anchor():
    with criterion(1):
        start = time.perf_counter()
        group = build_group("quaternion:8")
        graph = build_power_graph(group)
        assert kappa_matrix_tree(graph) == FactoredInt.parse("2^11")
        matrix = ones_plus_laplacian(graph)
        assert det_bareiss(matrix) == 2 ** 17
        # the matrix matches the hand-checked form once the vertices are
        # listed as three order-4 generator pairs, the identity, and the
        # central involution
        subgroups = []
        for g in range(8):
            if group.order_of(g) == 4 and group.cyclic_subgroup(g) not in subgroups:
                subgroups.append(group.cyclic_subgroup(g))
        assert len(subgroups) == 3
        ordering = []
        for sub in subgroups:
            ordering.extend(sorted(g for g in sub if group.order_of(g) == 4))
        ordering.append(group.identity)
        ordering.extend(g for g in range(8) if group.order_of(g) == 2)
        permuted = [[matrix[a][b] for b in ordering] for a in ordering]
        assert permuted == QUATERNION_MATRIX
        assert time.perf_counter() - start < 1.0


def test_criterion_02_cyclic_prime_powers():
    with criterion(2):
        start = time.perf_counter()
        for n in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
            graph = build_power_graph(build_group(f"cyclic:{n}"))
            expected = n ** (n - 2)
            assert compute_kappa(graph).kappa.value == expected
            assert kappa_matrix_tree(graph).value == expected
            if n <= DC_VERTEX_LIMIT:
                assert kappa_deletion_contraction(graph).value == expected
        assert time.perf_counter() - start < 5.0


def test_criterion_03_alternating_five_by_two_engines():
    with criterion(3):
        start = time.perf_counter()
        graph = build_power_graph(build_group("alt:5"))
        expected = FactoredInt.parse("3^10*5^18")
        assert kappa_matrix_tree(graph) == expected
        assert compute_kappa(graph).kappa == expected
        assert time.perf_counter() - start < 10.0


def test_criterion_04_simple_groups_of_order_168_and_360():
    with criterion(4):
        for spec, literal in [
            ("psl2:7", "2^84*3^28*7^40"),
            ("alt:6", "2^180*3^40*5^108"),
        ]:
            start = time.perf_counter()
            graph = build_power_graph(build_group(spec))
            report = compute_kappa(graph)
            assert report.kappa == FactoredInt.parse(literal)
            assert time.perf_counter() - start < 60.0


def test_criterion_05_psl2_closed_form_matches_engines():
    with criterion(5):
        start = time.perf_counter()
        for q in (4, 5, 7, 8, 9, 11):
            graph = build_power_graph(build_group(f"psl2:{q}"))
            counted = compute_kappa(graph).kappa
            closed = closed_form_psl2(q)
            assert closed == counted
            assert closed.factors == counted.factors
        assert time.perf_counter() - start < 300.0


def test_criterion_06_quaternion_closed_form_matches_engines():
    with criterion(6):
        start = time.perf_counter()
        for n in (2, 4, 8):
            graph = build_power_graph(build_group(f"quaternion:{4 * n}"))
            assert closed_form_quaternion(n) == compute_kappa(graph).kappa
        assert time.perf_counter() - start < 10.0


def _abelian_p_group_specs():
    """Spellings of every abelian p-group of order at most 64."""

    def partitions(k, cap=None):
        if k == 0:
            yield []
            return
        for part in range(min(k, cap or k), 0, -1):
            for rest in partitions(k - part, part):
                yield [part] + rest

    specs = []
    for p, k_max in [(2, 6), (3, 3), (5, 2), (7, 2)]:
        for k in range(1, k_max + 1):
            for partition in partitions(k):
                specs.append(" x ".join(f"cyclic:{p ** a}" for a in partition))
    return specs


def test_criterion_07_component_counts_across_the_corpus():
    with criterion(7):
        manifest = load_manifest()
        for expected in _abelian_p_group_specs():
            assert expected in manifest
        for expected in ["dihedral:8", "quaternion:8", "quaternion:16",
                        "quaternion:32"]:
            assert expected in manifest
        checked = 0
        for spec in manifest:
            if prime_power(spec_order(spec)) is None:
                continue
            assert verify_component_count(GroupBundle(spec)).holds, spec
            checked += 1
        assert checked >= 60
        decomposition = component_decomposition(
            build_power_graph(build_group("cyclic:2 x cyclic:4")))
        assert [c.size for c in decomposition] == [5, 1, 1]


def test_criterion_08_claim_suite_has_zero_failures():
    with criterion(8):
        start = time.perf_counter()
        results = run_verifications()
        specs = load_manifest()
        assert len(results) >= 6 * len(specs) - 5
        failures = [r for r in results if not r.holds]
        assert failures == []
        simple_rows = {r.group_label for r in results
                       if r.claim_id == "simple-order-p-count"}
        assert {"alt:5", "alt:6", "psl2:7", "psl2:8", "psl2:11"} <= simple_rows
        assert time.perf_counter() - start < 600.0


def _fraction_det(matrix) -> int:
    """Gaussian elimination over exact fractions, with row swaps."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= factor * a[k][c]
    return int(det)


def test_criterion_09_randomized_engine_agreement():
    with criterion(9):
        rng = random.Random(97)
        produced = 0
        while produced < 200:
            n = rng.randrange(2, 9)
            graph = Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                         if rng.random() < 0.5])
            if not graph.is_connected():
                continue
            produced += 1
            by_recurrence = kappa_deletion_contraction(graph).value
            determinant = det_bareiss(ones_plus_laplacian(graph))
            assert determinant % (n * n) == 0
            assert by_recurrence == determinant // (n * n)
            assert by_recurrence == kappa_matrix_tree(graph).value
        for _ in range(200):
            n = rng.randrange(1, 21)
            matrix = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(matrix) == _fraction_det(matrix)


def test_criterion_10_recognition_trace():
    with criterion(10):
        start = time.perf_counter()
        result = recognize(FactoredInt.parse("2^180*3^40*5^108"))
        assert result.verdict == SUCCESS_VERDICT
        assert result.steps[1].data["cap"] == 13
        assert result.steps[2].data["excluded"] == [7, 11]
        assert result.steps[5].data["required_valuation"] == 20
        assert result.steps[5].data["observed_valuation"] == 0
        assert time.perf_counter() - start < 1.0
