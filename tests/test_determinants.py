"""Exact determinant engines against an independent oracle."""
import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powertree import (Graph, build_group, build_power_graph, det_bareiss,
                       det_crt, ones_plus_laplacian)
from powertree import determinant
from powertree.determinant import (BAREISS_MAX_DIM, det_exact, hadamard_bound_squared,
                                   twin_quotient_det)

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
        assert det_crt(matrix) == expected


def test_singular_matrices():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randrange(2, 7)
        matrix = _random_matrix(rng, n, 9)
        matrix[n - 1] = list(matrix[0])  # duplicate row
        assert det_bareiss(matrix) == 0
        assert det_crt(matrix) == 0
    zeros = [[0] * 4 for _ in range(4)]
    assert det_bareiss(zeros) == 0
    assert det_crt(zeros) == 0


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
        assert det_crt(matrix) == expected


def test_trivial_sizes():
    assert det_bareiss([]) == 1
    assert det_crt([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_crt([[-3]]) == -3


def test_engines_agree_on_large_entries():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 13)
        matrix = _random_matrix(rng, n, 10 ** 6)
        assert det_bareiss(matrix) == det_crt(matrix)


@pytest.mark.parametrize("n,kernel", [(BAREISS_MAX_DIM, "bareiss"),
                                      (BAREISS_MAX_DIM + 1, "crt")])
def test_det_exact_chooses_the_kernel_by_dimension(monkeypatch, n, kernel):
    calls = []
    monkeypatch.setattr(determinant, "det_bareiss", lambda m: calls.append("bareiss") or 1)
    monkeypatch.setattr(determinant, "det_crt", lambda m: calls.append("crt") or 1)
    assert BAREISS_MAX_DIM == 64
    det_exact([[int(i == j) for j in range(n)] for i in range(n)])
    assert calls == [kernel]


def test_non_square_rejected():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        det_crt([[1, 2, 3], [4, 5, 6]])


def test_hadamard_bound_holds():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randrange(1, 7)
        matrix = _random_matrix(rng, n, 20)
        det = det_bareiss(matrix)
        assert det * det <= hadamard_bound_squared(matrix)


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
    assert det_crt(QUATERNION_MATRIX) == 2 ** 17
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
    matrix = ones_plus_laplacian(graph)
    expected = int(sympy.Matrix(matrix).det())
    assert det_bareiss(matrix) == expected
    assert det_crt(matrix) == expected
    assert twin_quotient_det(graph.rows, range(graph.n)) == expected


@settings(max_examples=60, deadline=None)
@given(twin_graphs(), st.data())
def test_twin_quotient_on_induced_subgraphs(graph, data):
    vertices = data.draw(st.lists(st.sampled_from(range(graph.n)), unique=True))
    expected = det_bareiss(ones_plus_laplacian(graph.subgraph(vertices)))
    assert twin_quotient_det(graph.rows, vertices) == expected


def test_twin_quotient_of_power_graphs():
    for spec in ("cyclic:12", "quaternion:16", "sym:4", "alt:5", "cyclic:2 x cyclic:6"):
        graph = build_power_graph(build_group(spec))
        expected = det_bareiss(ones_plus_laplacian(graph))
        assert twin_quotient_det(graph.rows, range(graph.n)) == expected
    assert twin_quotient_det([], []) == 1
    assert twin_quotient_det([0], [0]) == 1
