"""Undirected graphs on bitset adjacency rows; power graphs of finite groups."""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isqrt


class Graph:
    """Simple undirected graph; row i is an int bitmask of the neighbors of i."""

    def __init__(self, n: int, rows: list[int] | None = None):
        self.n = n
        self.rows = list(rows) if rows is not None else [0] * n
        if len(self.rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(self.rows)}")

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        g = cls(n)
        for a, b in edges:
            g.add_edge(a, b)
        return g

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError(f"loop at vertex {a} in a simple graph")
        self.rows[a] |= 1 << b
        self.rows[b] |= 1 << a

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1) << (v + 1)  # neighbors above v
            while row:
                low = row & -row
                out.append((v, low.bit_length() - 1))
                row ^= low
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def closed_twins(self) -> tuple[list[int], list[list[int]]]:
        """The graph as sets of closed twins with their closed neighbourhoods,
        the input of ``closed_twin_kappa``: every vertex a set of its own,
        keyed by its row with its own bit set. Built from `rows` on each
        call, since ``add_edge`` changes them."""
        return ([row | 1 << v for v, row in enumerate(self.rows)],
                [[v] for v in range(self.n)])

    def components(self, without: int | None = None) -> list[list[int]]:
        """Connected components by breadth-first search over bitmasks.

        With `without` given, the components of the graph with that vertex deleted.
        """
        unseen = (1 << self.n) - 1
        if without is not None:
            unseen ^= 1 << without
        out = []
        while unseen:
            start = unseen & -unseen
            comp = start
            frontier = start
            unseen ^= start
            while frontier:
                grown = 0
                row = frontier
                while row:
                    low = row & -row
                    grown |= self.rows[low.bit_length() - 1]
                    row ^= low
                frontier = grown & unseen
                comp |= frontier
                unseen &= ~frontier
            out.append(_bits(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PowerGraph(Graph):
    """Power graph of a finite group: x ~ y iff one generates a subgroup containing the other.

    Vertex v is the group element with index v. `twin_sets` partitions the
    vertices into closed twins: one list per cyclic subgroup, its generators
    ascending, the lists in order of smallest generator. `closed[i]` is the
    closed neighbourhood, as a bitmask, that every member of `twin_sets[i]`
    has, and `which[v]` is the index of the set holding v. `twin_sets` and
    `which` are the group's cyclic-subgroup table's `generators` and
    `which` lists themselves, not copies. Degrees and
    ``closed_twins``, the class Laplacian's input, are read from these
    per-set masks; the per-vertex `rows` are built only when first asked
    for, and then kept.
    """

    def __init__(self, n, group, identity_vertex, twin_sets, closed, which):
        self.n = n
        self.group = group
        self.identity_vertex = identity_vertex
        self.twin_sets = twin_sets
        self.closed = closed
        self.which = which

    @cached_property
    def rows(self) -> list[int]:
        rows = [0] * self.n
        for members, closed in zip(self.twin_sets, self.closed):
            for g in members:
                rows[g] = closed ^ 1 << g
        return rows

    def closed_twins(self) -> tuple[list[int], list[list[int]]]:
        return self.closed, self.twin_sets

    def degree(self, v: int) -> int:
        return self.closed[self.which[v]].bit_count() - 1

    @property
    def labels(self) -> list[str]:
        return [self.group.element_label(v) for v in range(self.n)]


def build_power_graph(group) -> PowerGraph:
    """The (full, undirected) power graph of a finite group.

    x ~ y iff <x> contains <y> or <y> contains <x>, so a vertex's neighbours
    depend only on the cyclic subgroup H it generates: the other generators
    of H and the generators of every other cyclic K with K <= H or H <= K.
    The group's cyclic-subgroup table gives the graph its twin sets (the
    generator lists) and `which` as they are. The closed neighbourhood is
    built once per H from H's generator mask and those of the subgroups
    <a^d> of H = <a>, one per divisor d of |H|, read from H's members in
    power order.
    """
    table = group.cyclic_subgroups()
    which = table.which
    gens = []
    for generators in table.generators:
        mask = 0
        for g in generators:
            mask |= 1 << g
        gens.append(mask)
    # generators of the cyclic subgroups comparable with H, H's own included
    closed = gens[:]
    divisors: dict[int, list[int]] = {}  # m -> its divisors above 1
    for i, (m, members) in enumerate(zip(table.orders, table.members)):
        ds = divisors.get(m)
        if ds is None:
            low = [d for d in range(2, isqrt(m) + 1) if m % d == 0]
            ds = divisors[m] = low + [m // d for d in low if d * d != m] + [m]
        # <a^d> for each divisor d of m, a proper subgroup of H = <a>: members[0],
        # the identity, for d = m (on the trivial H itself, an OR that adds nothing)
        for d in ds:
            j = which[members[d % m]]
            closed[j] |= gens[i]
            closed[i] |= gens[j]
    return PowerGraph(group.n, group, group.identity, table.generators, closed, which)


@dataclass(frozen=True)
class Component:
    """One connected component of a reduced power graph."""

    elements: tuple[int, ...]  # element indices, ascending
    is_clique: bool
    witness: int | None  # generator of the cyclic p-subgroup filling a clique component

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple[Component, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def sizes(self) -> list[int]:
        return [c.size for c in self.components]


def component_decomposition(group, graph: PowerGraph | None = None) -> ComponentDecomposition:
    """Components of the power graph minus the identity, flagged as cliques with witnesses.

    `graph` is the group's power graph, if already built. For a clique
    component the witness is an element of maximal order (ties broken by
    smallest index) whose cyclic subgroup, minus the identity, is exactly the
    component.
    """
    if graph is None:
        graph = build_power_graph(group)
    table = group.cyclic_subgroups()
    out = []
    for comp in graph.components(without=graph.identity_vertex):
        mask = 0
        for v in comp:
            mask |= 1 << v
        clique = all(graph.rows[v] & mask == mask ^ (1 << v) for v in comp)
        witness = None
        if clique:
            best = max(comp, key=lambda g: (table.orders[table.which[g]], -g))
            # <best> minus the identity lies in best's component, so it is
            # the component exactly when the sizes agree
            if len(table.members[table.which[best]]) == len(comp) + 1:
                witness = best
        out.append(Component(tuple(comp), clique, witness))
    out.sort(key=lambda c: (-c.size, c.elements))
    return ComponentDecomposition(tuple(out))


def full_degree_vertices(pg: PowerGraph) -> list[int]:
    """Element indices adjacent to every other vertex, read from the per-set
    closed neighbourhoods: a set's members are all or none of them."""
    full = (1 << pg.n) - 1
    return sorted(v for members, closed in zip(pg.twin_sets, pg.closed) if closed == full
                  for v in members)


def to_dot(pg: PowerGraph) -> str:
    """GraphViz text; node ids are element indices."""
    lines = ["graph power {"]
    lines += [f'  {v} [label="{label}"];' for v, label in enumerate(pg.labels)]
    for a, b in pg.edges():
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(pg: PowerGraph) -> dict:
    return {
        "n": pg.n,
        "identity": pg.identity_vertex,
        "labels": pg.labels,
        "edges": [[a, b] for a, b in pg.edges()],
    }


def to_json(pg: PowerGraph) -> str:
    return json.dumps(to_json_dict(pg), indent=2) + "\n"
