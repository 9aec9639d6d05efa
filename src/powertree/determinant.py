"""Exact integer determinants: fraction-free elimination, a CRT fallback and
the closed-twin quotient of det(J + Q)."""
from __future__ import annotations

import numpy as np

BAREISS_MAX_DIM = 64  # beyond this, the CRT determinant takes over
_WORD_PRIME_CEILING = 1 << 31  # products of two residues must fit in int64
_prime_pool: list[int] = []


class ExactnessError(ArithmeticError):
    """An exact-arithmetic invariant failed: an inexact division, or two
    exact routes to the same number disagreeing."""


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
    """Exact determinant by fraction-free two-step elimination.

    Entries stay integral throughout: a double elimination step divides a 3x3
    minor by the square of the previous pivot (a 2x2 minor by the pivot itself
    when only one column is left, or when the 2x2 leading minor vanishes).
    Every division is checked exact; a remainder raises ExactnessError.
    """
    n = _check_square(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    k = 0
    while k < n - 1:
        pivot_row = next((r for r in range(k, n) if a[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        if k < n - 2:
            # try a double step: need a nonzero 2x2 leading minor at this level
            akk, akk1 = a[k][k], a[k][k + 1]
            second = None
            for r in range(k + 1, n):
                if akk * a[r][k + 1] - akk1 * a[r][k]:
                    second = r
                    break
            if second is not None:
                if second != k + 1:
                    a[k + 1], a[second] = a[second], a[k + 1]
                    sign = -sign
                p2 = akk * a[k + 1][k + 1] - akk1 * a[k + 1][k]
                prev_sq = prev * prev
                row_k, row_k1 = a[k], a[k + 1]
                for i in range(k + 2, n):
                    row_i = a[i]
                    rik, rik1 = row_i[k], row_i[k + 1]
                    m01 = row_k[k] * row_k1[k + 1] - row_k[k + 1] * row_k1[k]
                    m02 = rik1 * row_k[k] - rik * row_k[k + 1]
                    m12 = rik1 * row_k1[k] - rik * row_k1[k + 1]
                    for j in range(k + 2, n):
                        minor3 = (
                            m01 * row_i[j] - m02 * row_k1[j] + m12 * row_k[j]
                        )
                        q, rem = divmod(minor3, prev_sq)
                        if rem:
                            raise ExactnessError("inexact division in two-step elimination")
                        row_i[j] = q
                q, rem = divmod(p2, prev)
                if rem:
                    raise ExactnessError("inexact pivot division in two-step elimination")
                prev = q
                k += 2
                continue
        # single fraction-free step
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            rik = row_i[k]
            row_k = a[k]
            for j in range(k + 1, n):
                q, rem = divmod(pivot * row_i[j] - rik * row_k[j], prev)
                if rem:
                    raise ExactnessError("inexact division in elimination")
                row_i[j] = q
        prev = pivot
        k += 1
    return sign * a[n - 1][n - 1]


def _is_probable_prime(n: int) -> bool:
    # deterministic below 3.2e9 with these witnesses
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _moduli(count: int) -> list[int]:
    """The `count` largest primes below the word bound (cached, descending)."""
    candidate = _prime_pool[-1] - 2 if _prime_pool else _WORD_PRIME_CEILING - 1
    while len(_prime_pool) < count:
        if _is_probable_prime(candidate):
            _prime_pool.append(candidate)
        candidate -= 2
    return _prime_pool[:count]


def _det_mod(reduced: np.ndarray, p: int) -> int:
    """Determinant of an int64 matrix already reduced mod p, by Gaussian elimination."""
    a = reduced.copy()
    n = a.shape[0]
    det = 1
    sign = 1
    for k in range(n):
        column = a[k:, k]
        nonzero = np.nonzero(column)[0]
        if nonzero.size == 0:
            return 0
        r = k + int(nonzero[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            sign = -sign
        pivot = int(a[k, k])
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        factors = a[k + 1 :, k] * inv % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - factors[:, None] * a[k, k:]) % p
    return det * sign % p


def hadamard_bound_squared(matrix) -> int:
    """Product over rows of the squared Euclidean norms (bounds det^2)."""
    bound = 1
    for row in matrix:
        bound *= sum(x * x for x in row)
    return bound


def det_crt(matrix) -> int:
    """Exact determinant from residues modulo distinct word-size primes.

    The number of moduli comes from the Hadamard bound at runtime (the prime
    product exceeds twice the bound); the symmetric remainder range fixes the
    sign on reconstruction.
    """
    n = _check_square(matrix)
    if n == 0:
        return 1
    bound_sq = hadamard_bound_squared(matrix)
    if bound_sq == 0:
        return 0
    count = 1
    product = _moduli(1)[0]
    while product * product <= 4 * bound_sq:
        count += 1
        product *= _moduli(count)[count - 1]
    primes = _moduli(count)
    max_abs = max(abs(x) for row in matrix for x in row)
    base = np.array(matrix, dtype=np.int64) if max_abs < (1 << 62) else None
    residues = []
    for p in primes:
        if base is not None:
            reduced = base % p
        else:
            reduced = np.array([[x % p for x in row] for row in matrix], dtype=np.int64)
        residues.append(_det_mod(reduced, p))
    # combine
    total = 0
    for p, r in zip(primes, residues):
        partial = product // p
        total += r * partial * pow(partial, -1, p)
    total %= product
    if total > product // 2:
        total -= product
    return total


def det_exact(matrix) -> int:
    """Exact determinant: Bareiss up to dimension BAREISS_MAX_DIM, CRT above."""
    if len(matrix) <= BAREISS_MAX_DIM:
        return det_bareiss(matrix)
    return det_crt(matrix)


def twin_quotient_det(rows, vertices) -> int:
    """det(J + Q) of the subgraph induced on `vertices`, from bitset adjacency rows.

    Vertices with equal closed neighbourhoods (closed twins) form classes C,
    each a clique whose members see the same vertices outside it. On vectors
    that sum to zero inside a class, J + Q acts as d_C + 1; on vectors
    constant on classes it acts as the r x r quotient B, with B_ii = d_i + 1
    and B_ij = |C_j| for non-adjacent classes, 0 for adjacent ones (the
    equitable-partition argument, Godsil & Royle, Algebraic Graph Theory,
    ch. 9). Hence det(J + Q) = prod_C (d_C + 1)^(|C| - 1) * det(B). In a power
    graph the generators of one cyclic subgroup are closed twins.

    det(J + Q) = m^2 * kappa for every graph on m vertices, so a result not
    divisible by m^2 raises ExactnessError.
    """
    mask = 0
    for v in vertices:
        mask |= 1 << v
    classes: dict[int, list[int]] = {}  # closed neighbourhood -> [size, representative]
    for v in vertices:
        key = rows[v] & mask | 1 << v
        entry = classes.get(key)
        if entry is None:
            classes[key] = [1, v]
        else:
            entry[0] += 1
    product = 1
    quotient = []
    for i, (key, (size, _)) in enumerate(classes.items()):
        closed_degree = key.bit_count()  # d + 1
        product *= closed_degree ** (size - 1)
        row = [0 if key >> rep & 1 else other for other, rep in classes.values()]
        row[i] = closed_degree
        quotient.append(row)
    if len(quotient) == 1:  # one class: a complete graph, J + Q = m * I
        value = product * quotient[0][0]
    else:
        value = product * det_exact(quotient)
    m = mask.bit_count()
    if m and value % (m * m):
        raise ExactnessError(f"det(J+Q) on {m} vertices is not divisible by {m}^2")
    return value
