"""Exact determinants: fraction-free elimination of dense integer matrices, and
spanning-tree counts through the sparse Laplacian of the closed-twin classes."""
from __future__ import annotations

from math import gcd
from operator import itemgetter

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
    updated entry is reduced by `math.gcd`, and a pivot whose column is empty
    updates nothing. The determinant is held as two running products, of the
    pivots' numerators and of their denominators. A zero pivot means a
    singular leading block, which in a semidefinite matrix makes the whole
    matrix singular, whatever the order: the determinant is 0. Otherwise the
    two products are divided once at the end, and a remainder, a determinant
    that is not an integer, raises ExactnessError.
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


def closed_twin_kappa(closed, twin_sets, root=None,
                      factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """Spanning-tree count of a graph given as sets of closed twins: `closed[i]`
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
    order of their representatives, and `det_sparse_symmetric` eliminates
    S L' in that order: a class of small closed degree has few neighbours,
    so eliminating it early makes little fill. The root class is that of the
    set whose first member is `root`, or else the first class in that order.
    Rooted at a vertex adjacent to all others (the identity of a power
    graph), S L' is block diagonal over the blocks through that vertex, so the
    elimination makes no fill between them and the count is the product of
    theirs. A disconnected graph has two or more classes and a singular
    S L', which the elimination meets as a zero pivot, and it raises
    ValueError.

    The count comes back factored under `factor_bound`, and only
    det(S L') / prod_i s_i is trial-divided whole: each distinct closed degree
    k is factored once and its exponents scaled by the sum of s_i - 1 over its
    classes. Primes above the bound, closed degrees above it included, are
    multiplied into the cofactor. At a bound of 1 nothing is trial-divided and
    the cofactor is the whole count. A complete graph is one class, which
    leaves no L' to eliminate: its count s^(s - 2) (Cayley) takes one
    factorization, that of s.

    No sets, an empty set, a `closed` of another length than `twin_sets`,
    sizes that do not add up to the vertices the closed neighbourhoods cover,
    or a `root` that begins no set raises ValueError, as a disconnected graph
    does. A det(S L') not divisible by prod_i s_i raises ExactnessError.
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
        entry = classes.get(key)
        if entry is None:
            classes[key] = [size, rep, key.bit_count(), key]
            covered |= key
        else:
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
    if len(classes) == 1:  # a complete graph K_s: Cayley's s^(s - 2), and 1 for K_1
        return FactoredInt.from_int(vertex_count, factor_bound) ** max(vertex_count - 2, 0)
    exponents: dict[int, int] = {}  # closed degree k -> sum of s_i - 1 over its classes
    for size, _, k, _ in classes.values():
        if size > 1:
            exponents[k] = exponents.get(k, 0) + size - 1
    order = sorted(classes.values(), key=itemgetter(2))  # stable: ties keep their order
    root_class = order[0] if root_key is None else classes[root_key]
    order.remove(root_class)
    det = _det_class_laplacian(order, root_class[0])
    if not det:
        raise ValueError("spanning-tree count requires a connected graph")
    return FactoredInt.product(
        [FactoredInt.from_int(det, factor_bound)]
        + [FactoredInt.from_int(k, factor_bound) ** e for k, e in exponents.items()])


def _det_class_laplacian(classes, root_size: int) -> int:
    """det(S L') / prod_i s_i for the classes other than the root, given as
    [size, representative, closed degree, closed neighbourhood] in
    elimination order, and the root's size. The entries of S L' are built as
    `det_sparse_symmetric`'s (numerator, 1) pairs."""
    index = {rep: i for i, (_, rep, _, _) in enumerate(classes)}
    sizes = [size for size, _, _, _ in classes]
    reps = 0
    for rep in index:
        reps |= 1 << rep
    diag, off = [], []
    scale = root_size  # prod_i s_i
    for size, rep, k, key in classes:
        scale *= size
        diag.append((size * (k - size), 1))
        row = {}
        adjacent = key & reps ^ 1 << rep
        while adjacent:
            low = adjacent & -adjacent
            j = index[low.bit_length() - 1]
            row[j] = (-size * sizes[j], 1)
            adjacent ^= low
        off.append(row)
    det, rem = divmod(det_sparse_symmetric(diag, off), scale)
    if rem:
        raise ExactnessError("det(S L') is not divisible by the product of the class sizes")
    return det
