"""Exact determinants: fraction-free elimination of dense integer matrices, and
spanning-tree counts through the sparse Laplacian of the closed-twin classes."""
from __future__ import annotations

from math import gcd

from .arith import DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt


def ones_plus_laplacian(graph) -> list[list[int]]:
    """The all-ones matrix plus the Laplacian: deg+1 on the diagonal, 1 - adjacency off it."""
    n = graph.n
    out = []
    for i in range(n):
        row_bits = graph.rows[i]
        row = [0 if row_bits >> j & 1 else 1 for j in range(n)]
        row[i] = graph.degree(i) + 1
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
    """Exact determinant of a symmetric positive semidefinite integer matrix,
    stored sparsely: `diag[i]` is entry (i, i) and `off[i]` maps j to entry
    (i, j) = (j, i) for the nonzero entries off the diagonal. Both are consumed.

    Pivots are taken on the diagonal in index order, with no row swaps,
    updating each symmetric pair of entries once; the caller chooses the order
    by how it numbers the rows, since the order decides the fill (George & Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981). Each
    entry is held as a (numerator, denominator) pair of ints with a positive
    denominator, reduced by `math.gcd` after every update; an input entry is
    read through its `numerator` and `denominator`. The determinant is held
    as two running products, of the pivots' numerators and of their
    denominators. A zero pivot means a singular leading block, which in a
    semidefinite matrix makes the whole matrix singular, whatever the order:
    the determinant is 0. Otherwise the two products are divided once at the
    end, and a remainder, a determinant that is not an integer, raises
    ExactnessError.
    """
    for i, a in enumerate(diag):
        diag[i] = (a.numerator, a.denominator)
    for row in off:
        for j, a in row.items():
            row[j] = (a.numerator, a.denominator)
    num = den = 1
    for k, row_k in enumerate(off):
        p, q = diag[k]
        if not p:
            return 0
        num *= p
        den *= q
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


def twin_class_kappa(rows, vertices, root=None,
                     factor_bound: int = DEFAULT_FACTOR_BOUND, *, twins=None) -> FactoredInt:
    """Spanning-tree count of the subgraph induced on `vertices`, from bitset adjacency rows.

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

    `twins`, if given, partitions `vertices` into lists of closed twins, each
    in ascending order (a power graph's `twin_sets`, one list per cyclic
    subgroup). The classes are found by keying each list once, by the closed
    neighbourhood of its first member, and adding the list's size to that
    class; without `twins` every vertex is its own list. The partition is
    trusted to hold closed twins: only its sizes are checked. With the lists
    in order of their first members, as a power graph's are, each class's
    representative is its smallest vertex and the classes come in order of
    it, exactly as the vertices one by one give them.
    The classes are sorted once by closed degree, ascending, ties kept in the
    order of their representatives, and `det_sparse_symmetric` eliminates
    S L' in that order: a class of small closed degree has few neighbours,
    so eliminating it early makes little fill. The root class is that of the
    vertex `root`, or else the first class in that order. Rooted at a vertex
    adjacent to all others (the identity of a power graph), S L' is block
    diagonal over the blocks through that vertex, so the elimination makes
    no fill between them and the count is the product of theirs. A
    disconnected subgraph has two or more classes and a singular S L', which
    the elimination meets as a zero pivot, and it raises ValueError.

    The count comes back factored under `factor_bound`, and only
    det(S L') / prod_i s_i is trial-divided whole: each distinct closed degree
    k is factored once and its exponents scaled by the sum of s_i - 1 over its
    classes. Primes above the bound, closed degrees above it included, are
    multiplied into the cofactor. At a bound of 1 nothing is trial-divided and
    the cofactor is the whole count. A complete graph is one class, which
    leaves no L' to eliminate: its count s^(s - 2) (Cayley) takes one
    factorization, that of s.

    An empty vertex list, a negative, repeated or out-of-range vertex, a
    `root` outside `vertices`, or a `twins` with an empty list or with sizes
    that do not add up to the number of vertices raises ValueError, as a
    disconnected subgraph does. A det(S L') not divisible by prod_i s_i
    raises ExactnessError.
    """
    if not isinstance(vertices, range):
        vertices = list(vertices)
    if not vertices:
        raise ValueError("spanning-tree count of a graph with no vertices")
    if vertices == range(len(rows)):  # the whole graph
        mask = (1 << len(rows)) - 1
    else:
        if min(vertices) < 0:
            raise ValueError(f"vertex {min(vertices)} is negative")
        mask = 0
        for v in vertices:
            mask |= 1 << v
        if mask >> len(rows):
            raise ValueError(f"vertex {max(vertices)} is outside the graph's {len(rows)} vertices")
        if mask.bit_count() != len(vertices):
            raise ValueError(f"{len(vertices)} vertices are listed but only "
                             f"{mask.bit_count()} are distinct")
    if root is not None and (root < 0 or not mask >> root & 1):
        raise ValueError(f"root {root} is not among the vertices")
    if twins is None:
        firsts, sizes = vertices, [1] * len(vertices)
    else:
        sizes = [len(members) for members in twins]
        if 0 in sizes:
            raise ValueError("a set of closed twins is empty")
        if sum(sizes) != len(vertices):
            raise ValueError(f"the sets of closed twins hold {sum(sizes)} vertices, "
                             f"not the {len(vertices)} listed")
        firsts = [members[0] for members in twins]
    classes: dict[int, list[int]] = {}  # closed neighbourhood -> [size, representative]
    for v, size in zip(firsts, sizes):
        key = rows[v] & mask | 1 << v
        entry = classes.get(key)
        if entry is None:
            classes[key] = [size, v]
        else:
            entry[0] += size
    if len(classes) == 1:  # a complete graph K_s: Cayley's s^(s - 2), and 1 for K_1
        s = len(vertices)
        return FactoredInt.from_int(s, factor_bound) ** max(s - 2, 0)
    exponents: dict[int, int] = {}  # closed degree k -> sum of s_i - 1 over its classes
    for key, (size, _) in classes.items():
        if size > 1:
            k = key.bit_count()
            exponents[k] = exponents.get(k, 0) + size - 1
    classes = dict(sorted(classes.items(), key=lambda item: item[0].bit_count()))
    if root is None:
        root_key = next(iter(classes))
    else:
        root_key = rows[root] & mask | 1 << root
    root_size = classes.pop(root_key)[0]
    det = _det_class_laplacian(classes, root_size)
    if not det:
        raise ValueError("spanning-tree count requires a connected graph")
    return FactoredInt.product(
        [FactoredInt.from_int(det, factor_bound)]
        + [FactoredInt.from_int(k, factor_bound) ** e for k, e in exponents.items()])


def _det_class_laplacian(classes, root_size: int) -> int:
    """det(S L') / prod_i s_i for the classes other than the root, given as
    closed neighbourhood -> [size, representative] in elimination order, and
    the root's size."""
    index = {rep: i for i, (_, rep) in enumerate(classes.values())}
    sizes = [size for size, _ in classes.values()]
    reps = 0
    for rep in index:
        reps |= 1 << rep
    diag, off = [], []
    scale = root_size  # prod_i s_i
    for key, (size, rep) in classes.items():
        scale *= size
        diag.append(size * (key.bit_count() - size))
        row = {}
        adjacent = key & reps ^ 1 << rep
        while adjacent:
            low = adjacent & -adjacent
            j = index[low.bit_length() - 1]
            row[j] = -size * sizes[j]
            adjacent ^= low
        off.append(row)
    det, rem = divmod(det_sparse_symmetric(diag, off), scale)
    if rem:
        raise ExactnessError("det(S L') is not divisible by the product of the class sizes")
    return det
