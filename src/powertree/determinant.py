"""Exact determinants: fraction-free elimination of dense integer matrices, and
spanning-tree counts through the sparse Laplacian of the closed-twin classes."""
from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .arith import DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt


def ones_plus_laplacian(graph) -> list[list[int]]:
    """The all-ones matrix plus the Laplacian: deg+1 on the diagonal, 1 - adjacency off it."""
    n = graph.n
    out = []
    for v, i in enumerate(graph.which):
        closed = graph.closed[i]
        row = [0 if closed >> j & 1 else 1 for j in range(n)]
        row[v] = closed.bit_count()
        out.append(row)
    return out


def _check_square(matrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix is not square: row of length {len(row)} in size {n}")
    return n


def det_bareiss(matrix) -> int:
    """Exact determinant by one-step fraction-free elimination (Bareiss, 1968):
    each update is a 2x2 minor with the pivot divided by the previous pivot,
    which stays integral; a remainder raises ExactnessError."""
    n = _check_square(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if a[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            rik = row_i[k]
            for j in range(k + 1, n):
                q, rem = divmod(pivot * row_i[j] - rik * row_k[j], prev)
                if rem:
                    raise ExactnessError("inexact division in elimination")
                row_i[j] = q
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_sparse_symmetric(diag, off) -> int:
    """Exact determinant of a symmetric positive semidefinite matrix of
    rationals, stored sparsely as (numerator, denominator) pairs of ints, each
    reduced with a positive denominator: `diag[i]` is entry (i, i) and
    `off[i]` maps j to entry (i, j) = (j, i) for the nonzero entries off the
    diagonal. Both are consumed.

    Pivots are taken on the diagonal in index order, with no row swaps,
    updating each symmetric pair of entries once; the caller chooses the order
    by how it numbers the rows, since the order decides the fill (George & Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981). Every
    updated entry is reduced by `math.gcd`, and the diagonal is updated in
    `diag` itself, not through the rows. A pivot whose column is empty
    updates nothing, and one whose column has one entry, a_ik, updates only
    a_ii, to a_ii - a_ik^2 / pivot, as one reduced fraction. The determinant
    is held as two running products, of the pivots' numerators and of their
    denominators. A zero pivot means a singular leading block, which in a
    semidefinite matrix makes the whole matrix singular, whatever the order:
    the determinant is 0. Otherwise every pivot is positive, and the two
    products are divided once at the end; a remainder, a determinant that is
    not an integer, raises ExactnessError.
    """
    num = den = 1
    for k, row_k in enumerate(off):
        p, q = diag[k]
        if not p:
            return 0
        num *= p
        den *= q
        if not row_k:
            continue
        if len(row_k) == 1:
            i, (a, b) = row_k.popitem()
            del off[i][k]
            n, d = diag[i]
            e = b * b * p
            n = n * e - d * a * a * q  # a_ii - a_ik^2 / pivot
            d *= e
            g = gcd(n, d)
            diag[i] = (n // g, d // g)
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
            n, d = diag[i]
            e = fd * b
            n = n * e - d * fn * a  # a_ii - factor * a_ik
            d *= e
            g = gcd(n, d)
            diag[i] = (n // g, d // g)
            row_i = off[i]
            for j, (y, v) in column[x + 1:]:
                n, d = row_i.get(j, (0, 1))
                e = fd * v
                n = n * e - d * fn * y  # a_ij - factor * a_jk
                d *= e
                g = gcd(n, d)
                row_i[j] = off[j][i] = (n // g, d // g)
    det, rem = divmod(num, den)
    if rem:
        raise ExactnessError("the determinant of an integer matrix is not an integer")
    return det


class ClassLaplacian(NamedTuple):
    """A graph's closed-twin classes and the matrix S L' rooted at one of them,
    as ``class_laplacian`` builds it. A class is [size s, representative,
    closed degree k, closed neighbourhood]; `diag` and `off` hold S L' in
    ``det_sparse_symmetric``'s format, one row per class of `classes`, in
    that order, which is the elimination order."""

    n: int  # the vertices
    root: list  # the root class
    classes: list  # the other classes, by closed degree, ties in order of representative
    diag: list  # (s_i (k_i - s_i), 1)
    off: list  # j -> (-s_i s_j, 1) for each class j adjacent to class i
    exponents: dict  # closed degree k -> sum of s_i - 1 over its classes
    scale: int  # prod_i s_i, the root's size included


def class_laplacian(closed, twin_sets, root=None) -> ClassLaplacian:
    """The class Laplacian of a graph given as sets of closed twins: `closed[i]`
    is the closed neighbourhood, as a bitmask, shared by the members of
    `twin_sets[i]`, and the sets partition the graph's vertices.

    Vertices with equal closed neighbourhoods (closed twins) form classes C_i,
    each a clique whose members see the same vertices outside it; C_i has
    size s_i and closed degree k_i (degree + 1). The Laplacian has eigenvalue
    k_i on vectors that sum to zero inside C_i, and on vectors constant on
    classes it acts as S^-1 L_w, with L_w the Laplacian of the class graph
    weighted s_i s_j on each edge (Godsil & Royle, Algebraic Graph Theory,
    ch. 9 and 13). The weighted matrix-tree theorem then gives

        kappa = prod_i k_i^(s_i - 1) * det(S L') / prod_i s_i,

    where S L' is L_w without the row and column of the root class C_0:
    s_i (k_i - s_i) on the diagonal, -s_i s_j for adjacent classes i and j,
    and 0 otherwise, as sparse as the class graph. det(S L') sums
    prod_i s_i^deg_T(i) over the spanning trees T of the class graph, so with
    two or more classes prod_i s_i, the root's size included, divides it.
    ``class_kappa`` and ``class_det_jq`` are its two rooted eliminations.

    The classes are found by hashing each set's key once and adding the
    set's size to that class; k_i is the key's bit count, taken once per
    class. Every graph is stored as these sets (``Graph.closed`` and
    ``Graph.twin_sets``): a power graph's are the generator lists of its
    cyclic subgroups, with their shared closed neighbourhoods as keys, and a
    plain graph's are its vertices one by one. The sets are trusted to hold
    closed twins; only their sizes are checked: they must add up to the
    number of vertices the closed neighbourhoods cover, which in a connected
    graph is every vertex.
    With each set ascending and the sets in order of their first members, as
    a power graph's are, each class's representative is its smallest vertex
    and the classes come in order of it, exactly as the vertices one by one
    give them.
    The classes are sorted once by closed degree, ascending, ties kept in the
    order of their representatives, and the rows of S L' are numbered in that
    order: a class of small closed degree has few neighbours, so eliminating
    it early makes little fill. The root class is that of the set whose first
    member is `root`, or else the first class in that order. Rooted at a
    class whose closed neighbourhood is every vertex (the identity's, in a
    power graph), S L' is block diagonal over the blocks through it, so the
    elimination makes no fill between them, and a class with k_i - s_i equal
    to the root's size sees only itself and the root: its row is empty, and
    its neighbours are not searched for. Every other class finds its
    neighbours by one scan of its key over the classes' representatives.

    No sets, an empty set, a `closed` of another length than `twin_sets`,
    sizes that do not add up to the vertices the closed neighbourhoods cover,
    or a `root` that begins no set raises ValueError.
    """
    classes: dict[int, list[int]] = {}  # closed neighbourhood -> [size, representative, k, key]
    vertex_count = 0
    covered = 0  # the union of the closed neighbourhoods
    root_key = None
    for key, members in zip(closed, twin_sets, strict=True):
        size = len(members)
        if not size:
            raise ValueError("a set of closed twins is empty")
        vertex_count += size
        rep = members[0]
        entry = classes.setdefault(key, [0, rep, 0, key])
        if not entry[0]:
            entry[2] = key.bit_count()
            covered |= key
        entry[0] += size
        if rep == root:
            root_key = key
    if not vertex_count:
        raise ValueError("spanning-tree count of a graph with no vertices")
    if vertex_count != covered.bit_count():
        raise ValueError(f"the sets of closed twins hold {vertex_count} vertices, not the "
                         f"{covered.bit_count()} their closed neighbourhoods cover")
    if root is not None and root_key is None:
        raise ValueError(f"root {root} is not the first member of a set of closed twins")
    exponents: dict[int, int] = {}
    for size, _, k, _ in classes.values():
        if size > 1:
            exponents[k] = exponents.get(k, 0) + size - 1
    if len(classes) == 1:  # a complete graph: the root is every vertex, and S L' is empty
        return ClassLaplacian(vertex_count, classes[covered], [], [], [], exponents,
                              vertex_count)
    order = sorted(classes.values(), key=itemgetter(2))  # stable: ties keep their order
    root_class = order[0] if root_key is None else classes[root_key]
    order.remove(root_class)
    root_size = root_class[0]
    # k - s of a class that sees only the root, when the root sees every vertex
    lone = root_size if root_class[2] == vertex_count else None
    index = {}
    reps = 0
    for i, (size, rep, k, _) in enumerate(order):
        if k - size != lone:
            index[rep] = i
            reps |= 1 << rep
    diag, off = [], []
    scale = root_size
    for size, rep, k, key in order:
        scale *= size
        diag.append((size * (k - size), 1))
        row = {}
        if k - size != lone:
            adjacent = key & reps ^ 1 << rep
            while adjacent:
                low = adjacent & -adjacent
                j = index[low.bit_length() - 1]
                row[j] = (-size * order[j][0], 1)
                adjacent ^= low
        off.append(row)
    return ClassLaplacian(vertex_count, root_class, order, diag, off, exponents, scale)


def _divide_by_sizes(det: int, laplacian: ClassLaplacian) -> int:
    quotient, rem = divmod(det, laplacian.scale)
    if rem:
        raise ExactnessError("det(S L') is not divisible by the product of the class sizes")
    return quotient


def class_kappa(laplacian: ClassLaplacian,
                factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """The spanning-tree count, eliminated at the class Laplacian's own root;
    its rows are consumed.

    The count comes back factored under `factor_bound`, and only
    det(S L') / prod_i s_i is trial-divided whole: each distinct closed degree
    k is factored once and its exponents scaled by the sum of s_i - 1 over its
    classes. Primes above the bound, closed degrees above it included, are
    multiplied into the cofactor. At a bound of 1 nothing is trial-divided and
    the cofactor is the whole count. A complete graph is one class, which
    leaves no S L' to eliminate: its count s^(s - 2) (Cayley) takes one
    factorization, that of s. A disconnected graph has two or more classes
    and a singular S L', which the elimination meets as a zero pivot, and it
    raises ValueError. A det(S L') not divisible by prod_i s_i raises
    ExactnessError.
    """
    if not laplacian.classes:  # a complete graph K_s: Cayley's s^(s - 2), and 1 for K_1
        n = laplacian.n
        return FactoredInt.from_int(n, factor_bound) ** max(n - 2, 0)
    det = _divide_by_sizes(det_sparse_symmetric(laplacian.diag, laplacian.off), laplacian)
    if not det:
        raise ValueError("spanning-tree count requires a connected graph")
    return FactoredInt.product(
        [FactoredInt.from_int(det, factor_bound)]
        + [FactoredInt.from_int(k, factor_bound) ** e for k, e in laplacian.exponents.items()])


def class_det_jq(laplacian: ClassLaplacian) -> int:
    """det(J + Q) = n^2 * kappa, from a class Laplacian whose root's closed
    neighbourhood is every vertex, by its own elimination rooted at the first
    of its other classes; the class Laplacian is left as it was.

    That elimination's rows are the other classes', without the first, in
    their order, then the root's, last: the root sees every vertex, so its
    row holds -s_0 s_j for every class j, and its diagonal is s_0 (n - s_0).
    A class that sees only the root is then a column with one entry. The
    result is multiplied out as an integer. A root that does not see every
    vertex raises ValueError, and a det(S L') not divisible by prod_i s_i
    raises ExactnessError.
    """
    n = laplacian.n
    root_size, _, root_degree, _ = laplacian.root
    if root_degree != n:
        raise ValueError("det(J + Q) needs a class Laplacian rooted at a class that sees "
                         "every vertex")
    classes = laplacian.classes
    if not classes:  # a complete graph: n^2 * n^(n - 2)
        return n ** n
    last = len(classes) - 1  # the root's row
    diag = laplacian.diag[1:]
    diag.append((root_size * (n - root_size), 1))
    off = []
    root_row = {}
    for j, ((size, _, _, _), kappa_row) in enumerate(zip(classes[1:], laplacian.off[1:])):
        entry = (-root_size * size, 1)
        row = {i - 1: value for i, value in kappa_row.items() if i} if kappa_row else {}
        row[last] = entry
        off.append(row)
        root_row[j] = entry
    off.append(root_row)
    det = n * n * _divide_by_sizes(det_sparse_symmetric(diag, off), laplacian)
    for k, e in laplacian.exponents.items():
        det *= k ** e
    return det


def closed_twin_kappa(closed, twin_sets, root=None,
                      factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """Spanning-tree count of a graph given as sets of closed twins: the
    elimination (``class_kappa``) of its class Laplacian (``class_laplacian``),
    rooted at the class of the set whose first member is `root`, or else at
    the first class by closed degree, factored under `factor_bound`."""
    return class_kappa(class_laplacian(closed, twin_sets, root), factor_bound)
