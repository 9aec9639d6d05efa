"""Spanning-tree counting engines and closed forms."""
import ast
import hashlib
import itertools
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import powertree
from powertree import (DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt, Graph, GroupBundle,
                       VertexLimitError, build_group, build_power_graph, checks,
                       closed_form_psl2, closed_form_quaternion, compute_kappa,
                       det_bareiss, kappa_decomposed, kappa_matrix_tree, load_manifest,
                       ones_plus_laplacian, spec_order, treecount)
from powertree.determinant import twin_class_kappa

from _deletion_contraction import DC_VERTEX_LIMIT, kappa_deletion_contraction

CYCLIC_COUNTS = {
    1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 540, 7: 7 ** 5, 9: 3 ** 14,
    12: 7823278080,
}

SMALL_GROUP_COUNTS = {
    "sym:3": 3,
    "dihedral:8": 16,
    "quaternion:8": 2 ** 11,
    "quaternion:12": 645120,
    "quaternion:16": 2 ** 31,
}


def _power_graph(spec):
    return build_power_graph(build_group(spec))


@pytest.mark.parametrize("n,expected", sorted(CYCLIC_COUNTS.items()))
def test_cyclic_counts(n, expected):
    graph = _power_graph(f"cyclic:{n}")
    assert kappa_matrix_tree(graph).value == expected
    assert kappa_decomposed(graph).value == expected
    if n <= 9:
        assert kappa_deletion_contraction(graph).value == expected


@pytest.mark.parametrize("spec,expected", sorted(SMALL_GROUP_COUNTS.items()))
def test_small_group_counts(spec, expected):
    graph = _power_graph(spec)
    assert kappa_matrix_tree(graph).value == expected
    assert kappa_decomposed(graph).value == expected
    if graph.n <= 12:  # dihedral:8's reflections hang off the identity by bridges
        assert kappa_deletion_contraction(graph).value == expected


def test_factored_presentation():
    assert str(kappa_matrix_tree(_power_graph("cyclic:12"))) == "2^14*3^6*5*131"
    assert str(kappa_matrix_tree(_power_graph("quaternion:8"))) == "2^11"
    assert str(kappa_matrix_tree(_power_graph("cyclic:2"))) == "1"


@pytest.mark.parametrize("spec", [
    "cyclic:24", "cyclic:36", "dihedral:32", "quaternion:32",
    "elemabelian:3:3", "sym:4", "alt:5", "cyclic:2 x cyclic:16",
    "cyclic:2 x cyclic:2 x cyclic:3",
])
def test_engines_agree(spec):
    graph = _power_graph(spec)
    matrix = ones_plus_laplacian(graph)
    det = det_bareiss(matrix)
    assert graph.n ** 2 * twin_class_kappa(graph.rows, range(graph.n)).value == det
    count = kappa_matrix_tree(graph).value
    assert det == graph.n ** 2 * count
    assert kappa_decomposed(graph).value == count
    if graph.n <= 12:
        assert kappa_deletion_contraction(graph).value == count


def test_complete_graphs_follow_cayley():
    for n in range(1, 9):
        graph = Graph.from_edges(n, itertools.combinations(range(n), 2))
        expected = n ** (n - 2) if n >= 2 else 1
        assert kappa_matrix_tree(graph).value == expected
        assert kappa_decomposed(graph).value == expected
        assert kappa_deletion_contraction(graph).value == expected


def test_trees_and_cycles():
    for n in range(2, 10):
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        star = Graph.from_edges(n, [(0, i) for i in range(1, n)])
        assert kappa_matrix_tree(path).value == 1
        assert kappa_deletion_contraction(star).value == 1
    for n in range(3, 10):
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert kappa_matrix_tree(cycle).value == n
        assert kappa_deletion_contraction(cycle).value == n


def _kirchhoff_minor_count(graph: Graph) -> int:
    n = graph.n
    laplacian = [[0] * n for _ in range(n)]
    for a, b in graph.edges():
        laplacian[a][a] += 1
        laplacian[b][b] += 1
        laplacian[a][b] -= 1
        laplacian[b][a] -= 1
    minor = [row[1:] for row in laplacian[1:]]
    return int(sympy.Matrix(minor).det())


def test_random_graphs_match_kirchhoff_minor():
    rng = random.Random(41)
    produced = 0
    while produced < 60:
        n = rng.randrange(2, 9)
        graph = Graph(n)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    graph.add_edge(a, b)
        if not graph.is_connected():
            continue
        produced += 1
        expected = _kirchhoff_minor_count(graph)
        assert kappa_matrix_tree(graph).value == expected
        assert kappa_deletion_contraction(graph).value == expected
        assert kappa_decomposed(graph).value == expected


def test_disconnected_graphs_rejected():
    graph = Graph(3)
    graph.add_edge(0, 1)
    for count in (kappa_matrix_tree, kappa_decomposed, kappa_deletion_contraction):
        with pytest.raises(ValueError):
            count(graph)
        with pytest.raises(ValueError, match="graph with no vertices"):
            count(Graph(0))


def test_every_count_refuses_a_disconnected_graph():
    # two disjoint edges are two closed-twin classes with no edge between them:
    # the class elimination meets a zero pivot, and det(J + Q) is 0
    graph = Graph.from_edges(4, [(0, 1), (2, 3)])
    for count in (kappa_matrix_tree, kappa_decomposed,
                  lambda g: twin_class_kappa(g.rows, range(g.n))):
        with pytest.raises(ValueError, match="requires a connected graph"):
            count(graph)
    # a disconnected induced subgraph of a connected graph, rooted or not
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    for root in (None, 2):
        with pytest.raises(ValueError, match="requires a connected graph"):
            twin_class_kappa(path.rows, [0, 2], root)


def test_deletion_contraction_size_limit():
    n = DC_VERTEX_LIMIT
    with pytest.raises(VertexLimitError):
        kappa_deletion_contraction(Graph.from_edges(n + 1, [(i, i + 1) for i in range(n)]))
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    assert kappa_deletion_contraction(path).value == 1


def test_matrix_tree_size_limit():
    n = treecount.MATRIX_TREE_VERTEX_LIMIT + 1
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(VertexLimitError, match="limited to 256 vertices, got 257"):
        kappa_matrix_tree(path)
    assert compute_kappa(path).kappa.value == 1


def test_engine_selection_and_reports():
    graph = _power_graph("cyclic:6")
    report = compute_kappa(graph)
    assert report.kappa.value == 540
    assert report.cross_checked  # 6 vertices, so the matrix-tree check ran
    assert report.wall_time >= 0
    assert compute_kappa(graph, "auto").kappa.value == 540
    assert compute_kappa(_power_graph("cyclic:12")).kappa.value == 7823278080
    big = _power_graph("sym:5")
    assert not compute_kappa(big).cross_checked
    for removed in ("bogus", "crt", "decomposition", "deletion_contraction", "matrix_tree"):
        with pytest.raises(ValueError):
            compute_kappa(graph, removed)


def test_bundle_compares_its_two_routes(monkeypatch):
    # det(J + Q) and kappa come from two eliminations; whichever the bundle
    # computes second is compared with the first
    bundle = GroupBundle("cyclic:6")
    monkeypatch.setattr(checks, "kappa_decomposed", lambda *args: pytest.fail("kappa computed"))
    assert bundle.det_jq == 6 ** 2 * 540  # det(J + Q) alone computes no kappa
    monkeypatch.setattr(checks, "kappa_decomposed", lambda *args: FactoredInt.from_int(541))
    with pytest.raises(ExactnessError, match=r"is not 6\^2 \* kappa"):
        bundle.kappa
    monkeypatch.undo()
    bundle = GroupBundle("cyclic:6")
    assert bundle.kappa.value == 540
    monkeypatch.setattr(checks, "twin_class_kappa",
                        lambda *args, **kwargs: FactoredInt.from_int(541))
    with pytest.raises(ExactnessError, match=r"is not 6\^2 \* kappa"):
        bundle.det_jq


def test_alternating_five_count():
    assert kappa_decomposed(_power_graph("alt:5")) == FactoredInt.parse("3^10*5^18")


def test_larger_frozen_counts():
    assert kappa_decomposed(_power_graph("psl2:8")) == FactoredInt.parse("3^392*7^180")
    assert kappa_decomposed(_power_graph("quaternion:32")).value == 2 ** 81


def test_quaternion_closed_form():
    assert closed_form_quaternion(2) == FactoredInt.parse("2^11")
    assert closed_form_quaternion(4) == FactoredInt.parse("2^31")
    assert closed_form_quaternion(8) == FactoredInt.parse("2^81")
    for bad in (1, 3, 6, 12):
        with pytest.raises(ValueError):
            closed_form_quaternion(bad)


def test_psl2_closed_form():
    a5 = FactoredInt.parse("3^10*5^18")
    assert closed_form_psl2(4) == a5
    assert closed_form_psl2(5) == a5
    assert closed_form_psl2(7) == FactoredInt.parse("2^84*3^28*7^40")
    assert closed_form_psl2(8) == FactoredInt.parse("3^392*7^180")
    assert closed_form_psl2(9) == FactoredInt.parse("2^180*3^40*5^108")
    for bad in (2, 3, 6, 10):
        with pytest.raises(ValueError):
            closed_form_psl2(bad)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_psl2_closed_form_respects_its_factor_bound(q):
    # p itself goes into the cofactor when the bound is below it
    graph = _power_graph(f"psl2:{q}")
    for bound in (2, 3, 5, 7, DEFAULT_FACTOR_BOUND):
        text = str(closed_form_psl2(q, bound))
        assert text == str(kappa_decomposed(graph, bound))
        assert str(FactoredInt.parse(text, bound)) == text


def test_psl2_closed_form_counts_its_cyclic_factors_past_the_matrix_tree_limit():
    # q = 727 needs kappa of cyclic:363 and cyclic:364, both above the limit.
    # The closed form itself has about 1.6e9 bits, too many to multiply out
    # here, so its two cyclic factors are checked against det(J + Q) instead.
    for m in (363, 364):
        with pytest.raises(VertexLimitError):
            kappa_matrix_tree(_power_graph(f"cyclic:{m}"))
        bundle = GroupBundle(f"cyclic:{m}")
        assert bundle.det_jq == m * m * treecount._cyclic_kappa(m, DEFAULT_FACTOR_BOUND).value
    assert closed_form_psl2(9) == FactoredInt.parse("2^180*3^40*5^108")
    assert closed_form_psl2(13) == kappa_decomposed(_power_graph("psl2:13"))


def test_psl2_closed_form_past_q_250():
    # kappa(PSL(2, 257)) has millions of bits: only its factorization is read,
    # never its value, hash or equality.
    q = 257
    kappa = closed_form_psl2(q)
    minus = treecount._cyclic_kappa((q - 1) // 2, DEFAULT_FACTOR_BOUND)
    plus = treecount._cyclic_kappa((q + 1) // 2, DEFAULT_FACTOR_BOUND)
    assert minus.value == 128 ** 126  # K_128: Cayley's formula
    assert 129 ** 2 * plus.value == GroupBundle("cyclic:129").det_jq
    p_exponent = (q * q - 1) * (q - 2) // (q - 1)
    expected = {q: p_exponent}
    for cyclic, power in ((minus, q * (q + 1) // 2), (plus, q * (q - 1) // 2)):
        for p, e in cyclic.factors.items():
            expected[p] = expected.get(p, 0) + e * power
    assert kappa.factors == expected
    assert kappa.cofactor == minus.cofactor ** (q * (q + 1) // 2) * plus.cofactor ** (q * (q - 1) // 2)
    assert kappa.valuation(q) == p_exponent == 258 * 255


@st.composite
def connected_twin_graphs(draw):
    """A connected graph of blown-up vertices: each base vertex becomes a clique
    or an independent set, joined wholesale along the base graph's edges."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    cliques = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    if len(sizes) == 1:
        cliques = [True]  # a lone independent set would be disconnected
    classes, start = [], 0
    for size in sizes:
        classes.append(range(start, start + size))
        start += size
    graph = Graph(start)
    for i, members in enumerate(classes):
        if cliques[i]:
            for a, b in itertools.combinations(members, 2):
                graph.add_edge(a, b)
        # a tree edge to an earlier class keeps the graph connected
        joined = {draw(st.integers(0, i - 1))} if i else set()
        joined |= {j for j in range(i) if draw(st.booleans())}
        for j in joined:
            for a in members:
                for b in classes[j]:
                    graph.add_edge(a, b)
    return graph


def _relabelled(graph: Graph, perm) -> Graph:
    return Graph.from_edges(graph.n, [(perm[a], perm[b]) for a, b in graph.edges()])


def _with_universal_vertex(graph: Graph) -> Graph:
    """The graph plus a vertex joined to every other one, as the identity of a power graph."""
    n = graph.n
    return Graph(n + 1, [row | 1 << n for row in graph.rows] + [(1 << n) - 1])


@settings(max_examples=60, deadline=None)
@given(connected_twin_graphs())
def test_block_counts_multiply_to_the_whole_graph_count(graph):
    # each block through the universal vertex counted on its own: the reference
    # for kappa_decomposed's one elimination over the whole graph
    graph = _with_universal_vertex(graph)
    u = graph.n - 1
    whole, rem = divmod(det_bareiss(ones_plus_laplacian(graph)), graph.n ** 2)
    assert rem == 0
    product = 1
    for component in graph.components(without=u):
        piece = component + [u]
        product *= twin_class_kappa(graph.rows, piece, u).value
    assert product == whole
    assert kappa_decomposed(graph).value == whole


def test_kappa_decomposed_is_one_elimination_without_a_split(monkeypatch):
    # the identity is universal, so the whole graph is counted at once, rooted
    # at its class, and the graph is never split into pieces
    graph = _power_graph("alt:6 x cyclic:2")
    calls = []
    kernel = treecount.twin_class_kappa
    monkeypatch.setattr(treecount, "twin_class_kappa",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(Graph, "components", lambda *args, **kwargs: pytest.fail("split"))
    kappa = kappa_decomposed(graph)
    assert [(list(vertices), root) for _, vertices, root, _ in calls] == [
        (list(range(graph.n)), graph.identity_vertex)]
    assert str(kappa) == "2^574*3^302*5^149*7^35*67"


@settings(max_examples=60, deadline=None)
@given(connected_twin_graphs(), st.randoms(use_true_random=False))
def test_kappa_is_invariant_under_relabelling(graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    relabelled = _relabelled(graph, perm)
    expected = kappa_matrix_tree(graph).value
    assert kappa_decomposed(relabelled).value == expected
    assert compute_kappa(relabelled).kappa.value == expected


# the benchmark's graph-bound groups, where every piece through the identity is complete
GRAPH_BOUND_SPECS = ("cyclic:1024", "cyclic:1331", "cyclic:1849", "elemabelian:2:10",
                     "elemabelian:3:6", "elemabelian:11:3", "elemabelian:43:2")


def test_factored_kernel_matches_trial_division_of_the_whole_count():
    # the kernel factors each closed degree apart from det(S L') / prod_i s_i,
    # rooted at the identity's class over the whole graph; that must split every
    # count exactly as trial division of the multiplied-out count does, primes
    # above the bound in the cofactor
    specs = GRAPH_BOUND_SPECS + ("cyclic:1920", "quaternion:256", "sym:6", "alt:6 x cyclic:2")
    specs += tuple(s for s in load_manifest() if spec_order(s) <= 64)
    for spec in specs:
        graph = _power_graph(spec)
        value = kappa_decomposed(graph).value
        for bound in (2, 3, 100, 10_000):
            kappa = kappa_decomposed(graph, bound)
            expected = FactoredInt.from_int(value, bound)
            assert (kappa.factors, kappa.cofactor) == (expected.factors, expected.cofactor), \
                (spec, bound)
    # cyclic:1849 is complete, one class of closed degree 43^2 above the bound
    kappa = kappa_decomposed(_power_graph("cyclic:1849"), 2)
    assert kappa.factors == {}
    assert kappa.cofactor == 1849 ** 1847


def test_groups_at_the_order_cap_finish():
    quaternion = compute_kappa(_power_graph("quaternion:1024"))
    assert quaternion.kappa == closed_form_quaternion(256)
    # reflections hang off the identity, so D_2n has the tree count of C_n
    dihedral = compute_kappa(_power_graph("dihedral:2000"))
    assert dihedral.kappa == kappa_decomposed(_power_graph("cyclic:1000"))
    bundle = GroupBundle("cyclic:1980")
    assert bundle.det_jq == 1980 ** 2 * compute_kappa(bundle.graph).kappa.value
    # the reduced power graphs below are disjoint cliques: each piece through
    # the identity is a complete graph K_m with m^(m-2) spanning trees
    assert compute_kappa(_power_graph("elemabelian:2:10")).kappa.value == 1
    assert compute_kappa(_power_graph("elemabelian:43:2")).kappa.value == 43 ** (41 * 44)
    assert compute_kappa(_power_graph("cyclic:1849")).kappa.value == 43 ** 3694


# the accepted specs whose class Laplacians fill in the most under elimination,
# with the sha256 of each factored count, frozen from a kernel that chose its
# pivots by minimum degree instead of sorting the classes
FILL_HEAVY_DIGESTS = {
    "cyclic:30 x cyclic:60": "de4e720646c89cdb013b7df934ec623dc7d5c4462d07b5a5dec69fe483a8f321",
    "dihedral:60 x cyclic:30": "82faf6d04fac88a1d6d83fa7704c5e2f29f7b3edf730dbb7105fd1dc71ab3f0e",
}


@pytest.mark.parametrize("spec", sorted(FILL_HEAVY_DIGESTS))
def test_fill_heavy_specs_on_both_kernel_routes(spec):
    graph = _power_graph(spec)
    kappa = kappa_decomposed(graph)
    assert hashlib.sha256(str(kappa).encode()).hexdigest() == FILL_HEAVY_DIGESTS[spec]
    # rooted at a class of smallest closed degree, not at the identity's
    assert twin_class_kappa(graph.rows, range(graph.n), factor_bound=1).value == kappa.value


_OPTIMISED_CHECKS = textwrap.dedent("""
    if __debug__:
        raise SystemExit("assertions are still enabled")
    from powertree import FactoredInt, Graph, build_group, build_power_graph
    from powertree import checks, determinant, treecount
    from powertree.determinant import ExactnessError

    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    graph = build_power_graph(build_group("cyclic:6"))

    def raises(call):
        try:
            call()
        except ExactnessError:
            return True
        return False

    # the cross-check in compute_kappa sees a disagreeing matrix-tree count
    real = treecount.kappa_matrix_tree
    treecount.kappa_matrix_tree = lambda *args: FactoredInt.one()
    print("cross-check", raises(lambda: treecount.compute_kappa(graph)))
    treecount.kappa_matrix_tree = real
    # a bundle whose kappa disagrees with its det(J + Q)
    bundle = checks.GroupBundle("cyclic:6")
    bundle.det_jq
    checks.kappa_decomposed = lambda *args: FactoredInt.from_int(541)
    print("det-jq", raises(lambda: bundle.kappa))
    # an elimination not divisible by the product of the class sizes: the paw's
    # root class {0, 1} has size 2 and closed degree 3, its others size 1
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    determinant.det_sparse_symmetric = lambda diag, off: 1
    print("class-laplacian", raises(lambda: determinant.twin_class_kappa(paw.rows, range(4), 0)))
    # the same at a factor bound of 1, where nothing is trial-divided: the
    # division by the class sizes comes before any factoring
    print("class-laplacian-cofactor",
          raises(lambda: determinant.twin_class_kappa(paw.rows, range(4), 0, factor_bound=1)))
    # a determinant that is not divisible by n^2
    treecount.det_bareiss = lambda matrix: 1
    print("matrix-tree", raises(lambda: treecount.kappa_matrix_tree(path)))
""")


def test_exactness_checks_survive_python_optimisation():
    source = Path(powertree.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMISED_CHECKS],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(source)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["cross-check", "True", "det-jq", "True",
                                   "class-laplacian", "True", "class-laplacian-cofactor", "True",
                                   "matrix-tree", "True"]


def test_counting_does_not_import_numpy():
    # numpy is a test dependency only; the library must count without it
    script = ("import sys\n"
              "import powertree\n"
              "powertree.compute_kappa(powertree.build_power_graph(powertree.build_group('alt:5')))\n"
              "powertree.run_verifications(['cyclic:2 x cyclic:6'])\n"
              "print('numpy' in sys.modules)\n")
    source = Path(powertree.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": str(source)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check in the library must raise
    package = Path(powertree.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
