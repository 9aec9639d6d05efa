"""Independent oracles for the benchmark's correctness checks.

Nothing here calls powertree. Closed forms come from the paper; the modular
check rebuilds each group from its own multiplication (permutations, residues
and pairs of them), joins x and y whenever one lies in the cyclic subgroup of
the other, and takes the reduced Laplacian's determinant modulo a prime by
elimination. Everything is exact: integers, fractions or residues.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np

A6_KAPPA = 2 ** 180 * 3 ** 40 * 5 ** 108  # the paper's kappa(A6)

# The modular elimination delays reductions: entries start below p and each
# pivot step subtracts a product below p^2, so dim * p^2 must stay below 2^63.
_PRIME_LOW, _PRIME_HIGH = 1 << 23, 1 << 24


def cayley(n: int) -> int:
    """Spanning trees of the complete graph K_n."""
    return n ** (n - 2) if n >= 2 else 1


def elementary_abelian_kappa(p: int, k: int) -> int:
    """kappa of (Z_p)^k: (p^k-1)/(p-1) copies of K_p glued at the identity."""
    return p ** ((p - 2) * (p ** k - 1) // (p - 1))


def quaternion_kappa(m: int) -> int:
    """kappa of the generalised quaternion group of order 4m, m a power of two."""
    return 2 ** (5 * m - 1) * m ** (2 * m - 2)


def exact_det(matrix) -> int:
    """Exact determinant of a small integer matrix by elimination over fractions."""
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
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return int(det)


def cyclic_kappa(m: int) -> int:
    """kappa of Z_m: <x> = <gcd(x, m)>, and <d1> lies in <d2> iff d2 divides d1."""
    if m <= 2:
        return 1
    d = [gcd(x, m) for x in range(m)]  # gcd(0, m) = m: the identity
    laplacian = [[0] * m for _ in range(m)]
    for x, y in itertools.combinations(range(m), 2):
        if d[x] % d[y] == 0 or d[y] % d[x] == 0:
            laplacian[x][y] = laplacian[y][x] = -1
            laplacian[x][x] += 1
            laplacian[y][y] += 1
    return exact_det([row[1:] for row in laplacian[1:]])


def _prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, e


def psl2_kappa(q: int) -> int:
    """The paper's kappa(PSL(2,q)) for a prime power q >= 4: the Sylow p-part
    times the two families of maximal tori, each a cyclic group."""
    p, _ = _prime_power(q)
    k = gcd(2, q - 1)
    sylow = p ** ((q * q - 1) * (p - 2) // (p - 1))
    return (sylow * cyclic_kappa((q - 1) // k) ** (q * (q + 1) // 2)
            * cyclic_kappa((q + 1) // k) ** (q * (q - 1) // 2))


# -- groups from their own multiplication --


def _parity(perm) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
               if perm[i] > perm[j]) % 2


def compose(a, b):
    return tuple(a[x] for x in b)


def permutation_group(degree: int, even_only: bool = False):
    """(elements, multiply) of S_degree, or A_degree when even_only."""
    elements = [p for p in itertools.permutations(range(degree))
                if not even_only or _parity(p) == 0]
    return elements, compose


def cyclic(m: int):
    return list(range(m)), lambda a, b: (a + b) % m


def product(left, right):
    (left_elements, left_mul), (right_elements, right_mul) = left, right
    return (list(itertools.product(left_elements, right_elements)),
            lambda a, b: (left_mul(a[0], b[0]), right_mul(a[1], b[1])))


_ATOMS = {
    "sym": lambda n: permutation_group(n),
    "alt": lambda n: permutation_group(n, even_only=True),
    "cyclic": cyclic,
}


def group_from_spec(spec: str):
    """(elements, multiply) for specs joining sym:n, alt:n and cyclic:m with ' x '."""
    group = None
    for atom in spec.split(" x "):
        family, _, parameter = atom.strip().partition(":")
        factor = _ATOMS[family](int(parameter))
        group = factor if group is None else product(group, factor)
    return group


def reduced_laplacian(elements, mul) -> np.ndarray:
    """Laplacian of the power graph with the identity's row and column deleted."""
    index = {g: i for i, g in enumerate(elements)}
    identity = next(g for g in elements if mul(g, g) == g)
    n = len(elements)
    adjacent = np.zeros((n, n), dtype=bool)
    for i, g in enumerate(elements):
        x = g
        while True:  # every power of g, the identity included
            adjacent[i, index[x]] = adjacent[index[x], i] = True
            if x == identity:
                break
            x = mul(x, g)
    np.fill_diagonal(adjacent, False)
    laplacian = np.diag(adjacent.sum(axis=1)).astype(np.int64) - adjacent
    keep = [i for i, g in enumerate(elements) if g != identity]
    return laplacian[np.ix_(keep, keep)]


def det_mod(matrix: np.ndarray, p: int) -> int:
    """Determinant modulo p by Gaussian elimination on int64 residues."""
    n = matrix.shape[0]
    if n * p * p >= 1 << 62:
        raise ValueError(f"modulus {p} too large for dimension {n}")
    a = matrix % p
    det = 1
    for k in range(n):
        column = a[k:, k] % p
        a[k:, k] = column
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            return 0
        r = k + int(nonzero[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        row = a[k, k + 1:] % p
        factors = a[k + 1:, k] * pow(pivot, -1, p) % p
        a[k + 1:, k + 1:] -= np.outer(factors, row)
    return det % p


def kappa_mod(elements, mul, primes) -> dict[int, int]:
    """kappa modulo each prime, by the matrix-tree theorem on the reduced Laplacian."""
    laplacian = reduced_laplacian(elements, mul)
    return {p: det_mod(laplacian, p) for p in primes}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def seeded_primes(seed: int, count: int) -> list[int]:
    """`count` distinct primes drawn from [2^23, 2^24) by a generator seeded with `seed`."""
    rng = random.Random(seed)
    primes: list[int] = []
    while len(primes) < count:
        candidate = rng.randrange(_PRIME_LOW, _PRIME_HIGH) | 1
        if candidate not in primes and _is_prime(candidate):
            primes.append(candidate)
    return primes
