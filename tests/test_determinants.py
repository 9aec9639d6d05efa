"""Exact determinant engines against an independent oracle."""
import itertools
import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powertree import (Graph, build_group, build_power_graph, det_bareiss,
                       ones_plus_laplacian)
from powertree.determinant import (ExactnessError, class_det_jq, class_laplacian,
                                   closed_twin_kappa, det_sparse_symmetric)

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
    assert det_sparse_symmetric([(5, 1)], [{}]) == 5


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
    """`det_sparse_symmetric`'s input: the diagonal, and the nonzero entries off it by
    row, each an integer as a (numerator, 1) pair."""
    n = len(matrix)
    return ([(matrix[i][i], 1) for i in range(n)],
            [{j: (matrix[i][j], 1) for j in range(n) if j != i and matrix[i][j]}
             for i in range(n)])


def _gram(rng, n, rank):
    """B^T B for a random integer B with `rank` rows, about two thirds of its entries
    zero: symmetric positive semidefinite, sparse, and singular when rank < n."""
    b = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(rank)]
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def test_non_integral_determinant_raises():
    with pytest.raises(ExactnessError):
        det_sparse_symmetric([(1, 2)], [{}])


def test_class_laplacian_of_small_graphs():
    # whichever class is the root: the bowtie has classes {0, 1} and {3, 4}
    # (size 2, closed degree 3) and {2}, so kappa = 3 * 3; the paw is a
    # triangle with a pendant vertex
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert [closed_twin_kappa(bowtie.closed, bowtie.twin_sets, root) for root in range(5)] == [9] * 5
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert [closed_twin_kappa(paw.closed, paw.twin_sets, root) for root in range(4)] == [3] * 4
    # the paw's pendant vertex joined to the triangle: K4 minus an edge, 8 trees
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
    assert closed_twin_kappa(diamond.closed, diamond.twin_sets) == 8


def test_class_laplacian_rejects_bad_vertex_lists():
    # a root that begins no set is refused; the sets may come in any order
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    closed, twins = cycle.closed, cycle.twin_sets
    with pytest.raises(ValueError, match="root 7 is not the first member of a set"):
        closed_twin_kappa(closed, twins, 7)
    assert closed_twin_kappa(closed[::-1], twins[::-1], 0) == 4
    # det(J + Q)'s route needs a root that sees every vertex
    with pytest.raises(ValueError, match="rooted at a class that sees every vertex"):
        class_det_jq(class_laplacian(closed, twins, 0))


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


def _det_sparse_symmetric_reference(diag, off) -> int:
    """``det_sparse_symmetric`` as it was before a column with one entry got a
    step of its own: that entry, too, goes through the pairwise update."""
    num = den = 1
    for k, row_k in enumerate(off):
        p, q = diag[k]
        if not p:
            return 0
        num *= p
        den *= q
        if not row_k:
            continue
        column = list(row_k.items())
        for i, _ in column:
            del off[i][k]
        for x, (i, (a, b)) in enumerate(column):
            fn, fd = a * q, b * p  # the factor a_ik / pivot
            if fd < 0:
                fn, fd = -fn, -fd
            g = gcd(fn, fd)
            fn //= g
            fd //= g
            row_i = off[i]
            row_i[i] = diag[i]  # so that j == i updates the diagonal entry
            for j, (y, v) in column[x:]:
                n, d = row_i.get(j, (0, 1))
                e = fd * v
                n = n * e - d * fn * y  # a_ij - factor * a_jk
                d *= e
                g = gcd(n, d)
                row_i[j] = off[j][i] = (n // g, d // g)
            diag[i] = row_i.pop(i)
    det, rem = divmod(num, den)
    if rem:
        raise ExactnessError("the determinant of an integer matrix is not an integer")
    return det


def _weighted_tree_laplacian(rng, n, edges, singular):
    """The Laplacian of a tree with weights 1-9 on its edges, plus 0-3 on each
    diagonal entry unless `singular`: positive semidefinite, and singular
    exactly when nothing is added, since a tree is connected."""
    matrix = [[0] * n for _ in range(n)]
    for a, b in edges:
        w = rng.randint(1, 9)
        matrix[a][a] += w
        matrix[b][b] += w
        matrix[a][b] -= w
        matrix[b][a] -= w
    if not singular:
        for i in range(n):
            matrix[i][i] += rng.randint(0, 3)
    return matrix


def _trees(rng):
    """Stars with the centre last (every leaf a column with one entry) and
    first, paths in order and reversed, and random trees on shuffled labels,
    of 1-24 vertices."""
    for n in range(1, 25):
        leaves = range(n - 1)
        yield n, [(leaf, n - 1) for leaf in leaves]
        yield n, [(0, leaf + 1) for leaf in leaves]
        yield n, [(v, v + 1) for v in range(n - 1)]
        yield n, [(n - 1 - v, n - 2 - v) for v in range(n - 1)]
        for _ in range(3):
            label = list(range(n))
            rng.shuffle(label)
            yield n, [(label[v], label[rng.randrange(v)]) for v in range(1, n)]


def test_one_entry_columns_match_the_pairwise_update():
    # one pass over stars, paths and random trees: the determinant, and every
    # pivot the elimination leaves on the diagonal, equal the reference's,
    # sympy's on small matrices and det_bareiss's; the singular Laplacians
    # reach their zero pivot after one-entry updates (the last one, on a path
    # or on a star whose centre comes last)
    rng = random.Random(53)
    singular = 0
    for n, edges in _trees(rng):
        matrix = _weighted_tree_laplacian(rng, n, edges, rng.random() < 0.3)
        expected = det_bareiss(matrix)
        if n <= 8:
            assert expected == int(sympy.Matrix(matrix).det())
        diag, off = _sparse(matrix)
        reference_diag, reference_off = _sparse(matrix)
        assert det_sparse_symmetric(diag, off) == expected
        assert _det_sparse_symmetric_reference(reference_diag, reference_off) == expected
        assert diag == reference_diag
        singular += expected == 0
    assert singular > 20


def test_one_entry_columns_on_random_sparse_matrices():
    # seeded sparse positive semidefinite matrices, singular ones included,
    # with integer and with fractional pivots: the step changes no result
    rng = random.Random(59)
    singular = 0
    for trial in range(300):
        n = rng.randrange(1, 25)
        if trial % 2:
            matrix = _weighted_gram(rng, n, rng.randrange(max(n - 1, 1), 2 * n + 1))
        else:
            matrix = _gram(rng, n, rng.randrange(n // 2, n + 2))
        expected = det_bareiss(matrix)
        if n <= 6:
            assert expected == int(sympy.Matrix(matrix).det())
        diag, off = _sparse(matrix)
        reference_diag, reference_off = _sparse(matrix)
        assert det_sparse_symmetric(diag, off) == expected
        assert _det_sparse_symmetric_reference(reference_diag, reference_off) == expected
        assert diag == reference_diag
        singular += expected == 0
    assert 0 < singular < 300


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
    edges = []
    for i, members in enumerate(classes):
        if cliques[i]:
            edges += itertools.combinations(members, 2)
        for j in range(i + 1, len(classes)):
            if draw(st.booleans()):
                edges += [(a, b) for a in members for b in classes[j]]
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if a != b:
            edges.append((a, b))
    return Graph.from_edges(n, edges)


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
            assert n2 * closed_twin_kappa(graph.closed, graph.twin_sets, root).value == expected
        else:
            with pytest.raises(ValueError, match="requires a connected graph"):
                closed_twin_kappa(graph.closed, graph.twin_sets, root)


@settings(max_examples=60, deadline=None)
@given(twin_graphs(), st.data())
def test_twin_quotient_on_induced_subgraphs(graph, data):
    vertices = data.draw(st.lists(st.sampled_from(range(graph.n)), unique=True))
    # the induced subgraph, its vertices renumbered in the order drawn
    induced = Graph.from_edges(len(vertices), [
        (i, j) for (i, v), (j, w) in itertools.combinations(enumerate(vertices), 2)
        if graph.has_edge(v, w)
    ])
    if not vertices:
        with pytest.raises(ValueError):
            closed_twin_kappa(induced.closed, induced.twin_sets)
        return
    expected = det_bareiss(ones_plus_laplacian(induced))
    root = data.draw(st.sampled_from(range(len(vertices))))
    if not expected:  # a disconnected induced subgraph
        with pytest.raises(ValueError, match="requires a connected graph"):
            closed_twin_kappa(induced.closed, induced.twin_sets, root)
        return
    assert len(vertices) ** 2 * closed_twin_kappa(induced.closed, induced.twin_sets, root).value == expected


def test_twin_quotient_of_power_graphs():
    # one set per cyclic subgroup, and the same graph as a plain one keyed
    # one vertex at a time
    for spec in ("cyclic:12", "quaternion:16", "sym:4", "alt:5", "cyclic:2 x cyclic:6"):
        graph = build_power_graph(build_group(spec))
        expected = det_bareiss(ones_plus_laplacian(graph))
        n2 = graph.n * graph.n
        for view in (graph, Graph(graph.n, graph.rows)):
            assert n2 * closed_twin_kappa(view.closed, view.twin_sets).value == expected
            assert (n2 * closed_twin_kappa(view.closed, view.twin_sets, graph.identity_vertex).value
                    == expected)
            assert class_det_jq(class_laplacian(view.closed, view.twin_sets,
                                                graph.identity_vertex)) == expected
    empty, single = Graph(0), Graph(1)
    with pytest.raises(ValueError):
        closed_twin_kappa(empty.closed, empty.twin_sets)
    assert closed_twin_kappa(single.closed, single.twin_sets) == 1
