"""Undirected graphs as sets of closed twins on bitmasks; power graphs of finite groups."""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt


class Graph:
    """Simple undirected graph, stored as sets of closed twins.

    `twin_sets` partitions the vertices; `closed[i]` is the closed
    neighbourhood, as a bitmask with the vertex's own bit set, that every
    member of `twin_sets[i]` has, and `which[v]` is the index of the set
    holding v. These three lists are the only store, and ``closed_twin_kappa``
    takes `closed` and `twin_sets` as they are. A graph built from adjacency
    rows has each vertex as a set of its own, keyed `rows[v] | 1 << v`;
    a power graph has one set per cyclic subgroup. There is no mutator.
    """

    def __init__(self, n: int, rows: list[int] | None = None):
        rows = [0] * n if rows is None else list(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for v, row in enumerate(rows):
            if row >> n:  # a negative row included
                raise ValueError(f"row {v} names a vertex outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v} in a simple graph")
            if any(not rows[w] >> v & 1 for w in _bits(row)):
                raise ValueError(f"row {v} is not matched by the rows of its neighbours")
        self.n = n
        self.closed = [row | 1 << v for v, row in enumerate(rows)]
        self.twin_sets = [[v] for v in range(n)]
        self.which = list(range(n))

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        rows = [0] * n
        for a, b in edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, rows)

    @property
    def rows(self) -> list[int]:
        """Row v is the bitmask of v's neighbours, derived on each access."""
        return [self.closed[i] ^ 1 << v for v, i in enumerate(self.which)]

    def _vertex(self, v: int) -> int:
        """v itself; a vertex outside 0..n-1 is an IndexError, not a list index."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} is outside 0..{self.n - 1}")
        return v

    def has_edge(self, a: int, b: int) -> bool:
        a, b = self._vertex(a), self._vertex(b)
        return a != b and bool(self.closed[self.which[a]] >> b & 1)

    def degree(self, v: int) -> int:
        return self.closed[self.which[self._vertex(v)]].bit_count() - 1

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (v, w) with v < w, in order of v and then w."""
        return [(v, w) for v, i in enumerate(self.which)
                for w in _bits(self.closed[i] >> (v + 1) << (v + 1))]

    def edge_count(self) -> int:
        return sum(self.closed[i].bit_count() - 1 for i in self.which) // 2

    def components(self, without: int | None = None) -> list[list[int]]:
        """Connected components by breadth-first search over bitmasks.

        With `without` given, the components of the graph with that vertex
        deleted; a vertex outside 0..n-1 is an IndexError.
        """
        closed, which = self.closed, self.which
        unseen = (1 << self.n) - 1
        if without is not None:
            unseen ^= 1 << self._vertex(without)
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
                    grown |= closed[which[low.bit_length() - 1]]
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

    Vertex v is the group element with index v. The twin sets are the
    generator lists of the cyclic subgroups, ascending, the lists in order
    of smallest generator: `twin_sets` and `which` are the group's
    cyclic-subgroup table's `generators` and `which` lists themselves, not
    copies; `closed` is ``build_power_graph``'s per-set masks. Every graph
    method is `Graph`'s, read from these; a power graph adds only its group,
    the identity's vertex and the labels.
    """

    def __init__(self, group, closed):
        table = group.cyclic_subgroups()
        self.n = group.n
        self.group = group
        self.identity_vertex = group.identity
        self.twin_sets = table.generators
        self.closed = closed
        self.which = table.which

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
    return PowerGraph(group, closed)


@dataclass(frozen=True)
class Component:
    """One connected component of a reduced power graph."""

    elements: tuple[int, ...]  # element indices, ascending
    is_clique: bool
    witness: int | None  # generator of the cyclic p-subgroup filling a clique component

    @property
    def size(self) -> int:
        return len(self.elements)


def component_decomposition(graph: PowerGraph) -> tuple[Component, ...]:
    """Components of the power graph minus the identity, flagged as cliques with witnesses.

    The components come largest first, ties in order of their elements.
    The search runs over twin sets, one bit per set (its first member's),
    since a set's members share their neighbours. A component's vertices
    are the OR of its sets' closed neighbourhoods minus the identity, which
    every vertex neighbours. It is a clique when each of its sets' closed
    neighbourhoods holds it all. For a clique component the witness is an
    element of maximal order (ties broken by smallest index) whose cyclic
    subgroup, minus the identity, is exactly the component: the first
    member of the set of largest order, the sets' orders read from the
    graph's own group.
    """
    orders = graph.group.cyclic_subgroups().orders
    closed, twin_sets, which = graph.closed, graph.twin_sets, graph.which
    identity = graph.identity_vertex
    without_identity = ~(1 << identity)
    unseen = 0  # the first member of each twin set not yet reached
    for members in twin_sets:
        unseen |= 1 << members[0]
    unseen &= without_identity
    out = []
    while unseen:
        frontier = unseen & -unseen
        sets = []
        reached = 0
        while frontier:
            unseen &= ~frontier
            while frontier:
                low = frontier & -frontier
                i = which[low.bit_length() - 1]
                sets.append(i)
                reached |= closed[i]
                frontier ^= low
            frontier = reached & unseen
        comp = reached & without_identity
        clique = all(closed[i] & comp == comp for i in sets)
        witness = None
        if clique:
            best = max(sets, key=orders.__getitem__)
            # <best> minus the identity lies in best's component, so it is
            # the component exactly when the sizes agree; two sets of the
            # largest order never fill a component alone
            if orders[best] == comp.bit_count() + 1:
                witness = twin_sets[best][0]
        elements = tuple(sorted(v for i in sets for v in twin_sets[i]))
        out.append(Component(elements, clique, witness))
    out.sort(key=lambda c: (-c.size, c.elements))
    return tuple(out)


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
