"""Exact determinant engines against an independent oracle."""
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powertree import (Graph, build_group, build_power_graph, det_bareiss,
                       ones_plus_laplacian)
from powertree.determinant import ExactnessError, det_sparse_symmetric, twin_class_kappa

# ones-plus-Laplacian of the order-8 quaternion group, written down by hand:
# three order-4 pairs, then the identity and the central involution
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


def _random_matrix(rng, n, span):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


def test_small_random_matrices_match_sympy():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 8)
        matrix = _random_matrix(rng, n, 9)
        expected = int(sympy.Matrix(matrix).det())
        assert det_bareiss(matrix) == expected


def test_singular_matrices():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randrange(2, 7)
        matrix = _random_matrix(rng, n, 9)
        matrix[n - 1] = list(matrix[0])  # duplicate row
        assert det_bareiss(matrix) == 0
    zeros = [[0] * 4 for _ in range(4)]
    assert det_bareiss(zeros) == 0


def test_permutation_matrices_have_unit_determinant():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randrange(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        matrix = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        expected = int(sympy.Matrix(matrix).det())
        assert expected in (-1, 1)
        assert det_bareiss(matrix) == expected


def test_trivial_sizes():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[-3]]) == -3
    assert det_sparse_symmetric([], []) == 1
    assert det_sparse_symmetric([5], [{}]) == 5


def test_engines_agree_on_large_entries():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 13)
        matrix = _random_matrix(rng, n, 10 ** 6)
        assert det_bareiss(matrix) == int(sympy.Matrix(matrix).det())


def test_non_square_rejected():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_hadamard_bound_holds():
    # det^2 is at most the product of the rows' squared Euclidean norms
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randrange(1, 7)
        matrix = _random_matrix(rng, n, 20)
        det = det_bareiss(matrix)
        bound = 1
        for row in matrix:
            bound *= sum(x * x for x in row)
        assert det * det <= bound


def _sparse(matrix):
    """`det_sparse_symmetric`'s input: the diagonal, and the nonzero entries off it by row."""
    n = len(matrix)
    return ([matrix[i][i] for i in range(n)],
            [{j: matrix[i][j] for j in range(n) if j != i and matrix[i][j]} for i in range(n)])


def _gram(rng, n, rank):
    """B^T B for a random integer B with `rank` rows, about two thirds of its entries
    zero: symmetric positive semidefinite, sparse, and singular when rank < n."""
    b = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(rank)]
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def test_non_integral_determinant_raises():
    with pytest.raises(ExactnessError):
        det_sparse_symmetric([Fraction(1, 2)], [{}])


def test_class_laplacian_of_small_graphs():
    # whichever class is the root: the bowtie has classes {0, 1} and {3, 4}
    # (size 2, closed degree 3) and {2}, so kappa = 3 * 3; the paw is a
    # triangle with a pendant vertex
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert [twin_class_kappa(bowtie.rows, range(5), root) for root in range(5)] == [9] * 5
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert [twin_class_kappa(paw.rows, range(4), root) for root in range(4)] == [3] * 4


def test_class_laplacian_rejects_bad_vertex_lists():
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for vertices, root, message in [
        ([1, 2, 3], 0, "root 0 is not among the vertices"),
        ([0, 1, 2, 3, 3], 0, "5 vertices are listed but only 4 are distinct"),
        ([0, 1, 2, 3, 7], 0, "vertex 7 is outside the graph's 4 vertices"),
        ([0, 1, 2, -1], 0, "vertex -1 is negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            twin_class_kappa(cycle.rows, vertices, root)
    assert twin_class_kappa(cycle.rows, [3, 2, 1, 0], 0) == 4


def test_sparse_elimination_matches_sympy():
    rng = random.Random(43)
    singular = 0
    for _ in range(200):
        n = rng.randrange(1, 9)
        matrix = _gram(rng, n, rng.randrange(n // 2, n + 2))
        expected = int(sympy.Matrix(matrix).det())
        singular += expected == 0
        assert det_sparse_symmetric(*_sparse(matrix)) == expected
    assert singular  # the zero-pivot exit ran


def _weighted_gram(rng, n, rank):
    """B^T B for a random integer B with `rank` rows of 2-4 nonzero entries up to 700
    in size: sparse, entries up to a few 10^6, and singular when B misses a column
    or rank < n. Most pivots of its elimination are not integers."""
    b = []
    for _ in range(rank):
        row = [0] * n
        for j in rng.sample(range(n), min(n, rng.randrange(2, 5))):
            row[j] = rng.choice((-1, 1)) * rng.randint(1, 700)
        b.append(row)
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def test_sparse_elimination_matches_bareiss_on_large_entries():
    rng = random.Random(47)
    singular = 0
    for _ in range(40):
        n = rng.randrange(1, 41)
        matrix = _weighted_gram(rng, n, rng.randrange(max(n - 1, 1), 2 * n + 1))
        expected = det_bareiss(matrix)
        singular += expected == 0
        result = det_sparse_symmetric(*_sparse(matrix))
        assert type(result) is int
        assert result == expected
    assert 0 < singular < 40


def test_ones_plus_laplacian_entries():
    graph = build_power_graph(build_group("cyclic:6"))
    matrix = ones_plus_laplacian(graph)
    n = graph.n
    for i in range(n):
        assert matrix[i][i] == graph.degree(i) + 1
        assert sum(matrix[i]) == n
        for j in range(n):
            if i != j:
                assert matrix[i][j] == (0 if graph.has_edge(i, j) else 1)


def test_quaternion_matrix_determinant():
    assert det_bareiss(QUATERNION_MATRIX) == 2 ** 17
    built = ones_plus_laplacian(build_power_graph(build_group("quaternion:8")))
    assert det_bareiss(built) == 2 ** 17


@st.composite
def twin_graphs(draw, max_classes=6, max_size=4):
    """A random graph with planted twin classes, then a few stray edges, relabelled.

    Each class is a clique (closed twins) or an independent set (open twins);
    two classes are either fully joined or not joined at all.
    """
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_classes))
    cliques = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    classes, start = [], 0
    for size in sizes:
        classes.append([label[v] for v in range(start, start + size)])
        start += size
    graph = Graph(n)
    for i, members in enumerate(classes):
        if cliques[i]:
            for a, b in itertools.combinations(members, 2):
                graph.add_edge(a, b)
        for j in range(i + 1, len(classes)):
            if draw(st.booleans()):
                for a in members:
                    for b in classes[j]:
                        graph.add_edge(a, b)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if a != b:
            graph.add_edge(a, b)
    return graph


@settings(max_examples=60, deadline=None)
@given(twin_graphs())
def test_twin_quotient_matches_full_determinants(graph):
    # det(J + Q) = n^2 * kappa, whichever class the class Laplacian is rooted at;
    # a disconnected graph (det(J + Q) = 0) raises from every root
    matrix = ones_plus_laplacian(graph)
    expected = int(sympy.Matrix(matrix).det())
    assert det_bareiss(matrix) == expected
    n2 = graph.n * graph.n
    for root in (None, *range(graph.n)):
        if expected:
            assert n2 * twin_class_kappa(graph.rows, range(graph.n), root).value == expected
        else:
            with pytest.raises(ValueError, match="requires a connected graph"):
                twin_class_kappa(graph.rows, range(graph.n), root)


@settings(max_examples=60, deadline=None)
@given(twin_graphs(), st.data())
def test_twin_quotient_on_induced_subgraphs(graph, data):
    vertices = data.draw(st.lists(st.sampled_from(range(graph.n)), unique=True))
    if not vertices:
        with pytest.raises(ValueError):
            twin_class_kappa(graph.rows, vertices)
        return
    # the induced subgraph, its vertices renumbered in the order drawn
    induced = Graph.from_edges(len(vertices), [
        (i, j) for (i, v), (j, w) in itertools.combinations(enumerate(vertices), 2)
        if graph.has_edge(v, w)
    ])
    expected = det_bareiss(ones_plus_laplacian(induced))
    root = data.draw(st.sampled_from(vertices))
    if not expected:  # a disconnected induced subgraph
        with pytest.raises(ValueError, match="requires a connected graph"):
            twin_class_kappa(graph.rows, vertices, root)
        return
    assert len(vertices) ** 2 * twin_class_kappa(graph.rows, vertices, root).value == expected


def test_twin_quotient_of_power_graphs():
    for spec in ("cyclic:12", "quaternion:16", "sym:4", "alt:5", "cyclic:2 x cyclic:6"):
        graph = build_power_graph(build_group(spec))
        expected = det_bareiss(ones_plus_laplacian(graph))
        n2 = graph.n * graph.n
        assert n2 * twin_class_kappa(graph.rows, range(graph.n)).value == expected
        assert (n2 * twin_class_kappa(graph.rows, range(graph.n), graph.identity_vertex).value
                == expected)
    with pytest.raises(ValueError):
        twin_class_kappa([], [])
    assert twin_class_kappa([0], [0]) == 1
