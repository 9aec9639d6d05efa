"""Spanning-tree counts by the deletion-contraction recurrence: the one
determinant-free oracle the tests compare the library's count
(``kappa_decomposed``) and its dense reference (``kappa_matrix_tree``) against.

The recurrence is exponential, so it is limited to DC_VERTEX_LIMIT vertices.
Its refusals raise, never assert, because the tests that import it also run
under ``python -O``.
"""
from __future__ import annotations

from powertree import FactoredInt, Graph, VertexLimitError

DC_VERTEX_LIMIT = 12


def _multigraph_tree_count(vertices: frozenset[int],
                           edges: frozenset[tuple[int, int, int]],
                           memo: dict) -> int:
    """Deletion-contraction on a multigraph given as (u, v, multiplicity) classes.

    Deleting a bridge leaves a disconnected graph, which counts 0, so the
    recurrence needs no bridge search.
    """
    if len(vertices) <= 1:
        return 1
    if not edges:
        return 0
    key = (vertices, edges)
    cached = memo.get(key)
    if cached is not None:
        return cached
    adjacency: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v, _ in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    # connectivity
    start = next(iter(vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    if len(seen) != len(vertices):
        memo[key] = 0
        return 0
    u, v, mult = min(edges)
    deleted = frozenset(e for e in edges if e != (u, v, mult))
    if mult > 1:
        deleted |= {(u, v, mult - 1)}
    result = _multigraph_tree_count(vertices, deleted, memo) + _multigraph_tree_count(
        *_contract(vertices, edges, (u, v, mult)), memo
    )
    memo[key] = result
    return result


def _contract(vertices, edges, edge):
    u, v, _ = edge
    keep, drop = (u, v) if u < v else (v, u)
    merged: dict[tuple[int, int], int] = {}
    for a, b, m in edges:
        if (a, b) == (keep, drop) or (a, b) == (drop, keep):
            continue  # contracted copies become loops and vanish
        a = keep if a == drop else a
        b = keep if b == drop else b
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        merged[pair] = merged.get(pair, 0) + m
    new_vertices = frozenset(x for x in vertices if x != drop)
    new_edges = frozenset((a, b, m) for (a, b), m in merged.items())
    return new_vertices, new_edges


def kappa_deletion_contraction(graph: Graph) -> FactoredInt:
    """Spanning-tree count by the deletion-contraction recurrence, limited to
    DC_VERTEX_LIMIT vertices. An empty or disconnected graph raises ValueError,
    as every count in the library does."""
    if graph.n > DC_VERTEX_LIMIT:
        raise VertexLimitError(
            f"deletion-contraction is limited to {DC_VERTEX_LIMIT} vertices, got {graph.n}"
        )
    if not graph.n:
        raise ValueError("spanning-tree count of a graph with no vertices")
    if not graph.is_connected():
        raise ValueError("spanning-tree count requires a connected graph")
    vertices = frozenset(range(graph.n))
    edges = frozenset((a, b, 1) for a, b in graph.edges())
    count = _multigraph_tree_count(vertices, edges, {})
    return FactoredInt.from_int(count)
