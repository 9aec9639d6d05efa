"""Spanning-tree counts of power graphs: the class-Laplacian count rooted at the
identity, the dense matrix-tree reference it is cross-checked against, and
closed forms."""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .arith import DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt, prime_power
from .determinant import det_bareiss, ones_plus_laplacian, twin_class_kappa
from .graphs import Graph, build_power_graph
from .groups import cyclic_group

# One-step Bareiss on the full J + Q took 0.76-0.90 s at n = 168 (psl2:7), 4.3-4.5 s
# at n = 200 (dihedral:200), 13.3-13.7 s at n = 256 (quaternion:256) and 52 s at
# n = 360 (cyclic:360), best of 3 (n = 360: one run) in CPU time on a 2-CPU VM.
MATRIX_TREE_VERTEX_LIMIT = 256
CROSS_CHECK_MAX_DIM = 64


class VertexLimitError(ValueError):
    """A graph has more vertices than the dense reference's vertex limit."""


def kappa_matrix_tree(graph: Graph,
                      factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """Spanning-tree count as det(J + Q) / n^2 on the whole n x n matrix, the
    dense reference, limited to MATRIX_TREE_VERTEX_LIMIT vertices. A graph
    with no vertices, or a disconnected one (det(J + Q) = 0), raises
    ValueError."""
    if graph.n > MATRIX_TREE_VERTEX_LIMIT:
        raise VertexLimitError(f"matrix_tree is limited to {MATRIX_TREE_VERTEX_LIMIT} "
                               f"vertices, got {graph.n}")
    if not graph.n:
        raise ValueError("spanning-tree count of a graph with no vertices")
    value = det_bareiss(ones_plus_laplacian(graph))
    if not value:
        raise ValueError("spanning-tree count requires a connected graph")
    count, rem = divmod(value, graph.n * graph.n)
    if rem:
        raise ExactnessError(f"det(J+Q) on {graph.n} vertices is not divisible by {graph.n}^2")
    return FactoredInt.from_int(count, factor_bound)


def kappa_decomposed(graph: Graph,
                     factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """Spanning-tree count on the closed-twin class Laplacian (``twin_class_kappa``),
    rooted at the class of a vertex u adjacent to every other vertex (the
    identity of a power graph).

    Such a u lies in every block, and no other vertex is a cut vertex, so the
    blocks are u plus each component of the graph without u, and kappa is the
    product of their counts. Rooted at u's class, the one elimination is
    block diagonal over the blocks, so the graph is never split. A graph
    without such a u is rooted at a class of smallest closed degree. The
    count comes back factored under `factor_bound`; a graph with no
    vertices, or a disconnected one, raises ValueError.
    """
    rows = graph.rows
    n = graph.n
    u = next((v for v in range(n) if rows[v].bit_count() == n - 1), None)
    return twin_class_kappa(rows, range(n), u, factor_bound)


@dataclass(frozen=True)
class KappaReport:
    """A spanning-tree count, and whether the dense reference cross-checked it."""

    kappa: FactoredInt
    cross_checked: bool
    wall_time: float


def compute_kappa(graph: Graph, engine: str = "auto",
                  factor_bound: int = DEFAULT_FACTOR_BOUND) -> KappaReport:
    """Count on the class Laplacian rooted at the identity (``kappa_decomposed``)
    and, on graphs of at most CROSS_CHECK_MAX_DIM vertices, cross-check the
    count against the dense reference ``kappa_matrix_tree``.

    `engine` must be "auto", and anything else raises ValueError. The
    parameter stays only because the benchmark's workloads still pass it, and
    it goes when they stop.
    """
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}")
    start = time.perf_counter()
    value = kappa_decomposed(graph, factor_bound)
    cross_checked = graph.n <= CROSS_CHECK_MAX_DIM
    if cross_checked:
        other = kappa_matrix_tree(graph, factor_bound)
        if other.value != value.value:
            raise ExactnessError(
                f"count disagreement on the same graph: class Laplacian {value.value}, "
                f"matrix_tree {other.value}")
    return KappaReport(value, cross_checked, time.perf_counter() - start)


# -- closed forms --


def closed_form_quaternion(n: int) -> FactoredInt:
    """Tree count of the power graph of the order-4n generalized quaternion group,
    for n a power of two: 2^(5n-1) * n^(2n-2)."""
    pk = prime_power(n)
    if n < 2 or pk is None or pk[0] != 2:
        raise ValueError(f"closed form needs n a power of two with n >= 2, got {n}")
    exponent = 5 * n - 1 + pk[1] * (2 * n - 2)
    return FactoredInt({2: exponent})


def closed_form_psl2(q: int, factor_bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
    """Tree count of the power graph of PSL(2, q), q = p^m a prime power.

    p^((q^2-1)(p-2)/(p-1)) times kappa of two cyclic groups raised to the
    point-pair counts; the cyclic counts come from ``kappa_decomposed``.
    The two smallest cases (q = 2, 3) fall outside the formula.
    """
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p, _ = pk
    if q in (2, 3):
        raise ValueError(f"no closed form for q = {q}")
    k = gcd(2, q - 1)
    exponent, rem = divmod((q * q - 1) * (p - 2), p - 1)
    if rem:  # q = p^m is 1 mod p - 1, so this cannot happen for a prime power q
        raise ExactnessError(f"(q^2-1)(p-2) is not divisible by p-1 for q = {q}")
    p_part = FactoredInt.from_int(p, factor_bound) ** exponent
    minus = _cyclic_kappa((q - 1) // k, factor_bound) ** (q * (q + 1) // 2)
    plus = _cyclic_kappa((q + 1) // k, factor_bound) ** (q * (q - 1) // 2)
    return p_part * minus * plus


def _cyclic_kappa(m: int, factor_bound: int) -> FactoredInt:
    if m == 1:
        return FactoredInt.one()
    return kappa_decomposed(build_power_graph(cyclic_group(m)), factor_bound)
