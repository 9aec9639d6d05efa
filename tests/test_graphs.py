"""Power-graph construction, components, blocks, and exports."""
import itertools
import json
import random
import tracemalloc
from collections import Counter
from functools import cache
from math import gcd

import networkx as nx
import pytest

from powertree import (Component, Graph, build_group, build_power_graph,
                       component_decomposition, full_degree_vertices,
                       kappa_decomposed, load_manifest, spec_order, to_dot, to_json,
                       to_json_dict)
from powertree.arith import prime_power
from powertree.determinant import ones_plus_laplacian
from powertree.treecount import MATRIX_TREE_VERTEX_LIMIT

from test_checks import _atoms_up_to
from test_treecount import GRAPH_BOUND_SPECS, KAPPA_BLOCKS_SPECS


def _random_graph(rng, n, p):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if rng.random() < p])


def _as_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.rows[1] == 0b101
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count() == 2
    assert not g.is_connected()
    assert sorted(map(sorted, g.components())) == [[0, 1, 2], [3]]
    with pytest.raises(ValueError, match="loop at vertex 2"):
        Graph.from_edges(3, [(2, 2)])


def test_components_match_networkx():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 15)
        g = _random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        h = _as_networkx(g)
        ours = sorted(sorted(c) for c in g.components())
        theirs = sorted(sorted(c) for c in nx.connected_components(h))
        assert ours == theirs
        v = rng.randrange(n)
        h.remove_node(v)
        ours = sorted(sorted(c) for c in g.components(without=v))
        theirs = sorted(sorted(c) for c in nx.connected_components(h))
        assert ours == theirs


@pytest.mark.parametrize("spec", [
    "cyclic:360", "dihedral:32", "quaternion:32", "elemabelian:2:6", "elemabelian:3:3",
    "sym:4", "alt:5", "psl2:8", "cyclic:2 x cyclic:16",
])
def test_blocks_are_the_identity_plus_the_reduced_components(spec):
    # the identity sees every vertex, so no other vertex is a cut vertex
    graph = build_power_graph(build_group(spec))
    e = graph.identity_vertex
    ours = sorted(sorted(c + [e]) for c in graph.components(without=e))
    theirs = sorted(sorted(b) for b in nx.biconnected_components(_as_networkx(graph)))
    assert ours == theirs


def test_kappa_decomposed_memory_stays_linear_on_a_complete_power_graph():
    # cyclic:1849 is complete with about 1.7 million edges: memory that grows
    # per edge, not per vertex, shows here
    graph = build_power_graph(build_group("cyclic:1849"))
    tracemalloc.start()
    try:
        kappa = kappa_decomposed(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa.factors == {43: 3694}
    assert peak < 16 * 2 ** 20


def test_quaternion_power_graph_shape():
    group = build_group("quaternion:8")
    graph = build_power_graph(group)
    assert graph.n == 8
    assert graph.edge_count() == 16
    # the identity and the unique involution see everything
    assert full_degree_vertices(graph) == [0, 2]
    # three maximal cyclic subgroups, each a complete block through {e, a2}
    for quad in ({0, 1, 2, 3}, {0, 2, 4, 6}, {0, 2, 5, 7}):
        assert all(graph.has_edge(a, b) for a, b in itertools.combinations(quad, 2))
    assert not graph.has_edge(1, 4)
    assert not graph.has_edge(4, 5)
    assert graph.identity_vertex == 0
    (only,) = component_decomposition(graph)
    assert only.size == 7
    assert not only.is_clique


def test_cyclic_six_full_degree():
    graph = build_power_graph(build_group("cyclic:6"))
    assert full_degree_vertices(graph) == [0, 1, 5]
    assert graph.has_edge(2, 4)
    assert not graph.has_edge(2, 3)
    assert not graph.has_edge(3, 4)


def test_vertices_outside_the_graph_are_index_errors():
    # -1 would read vertex 5 as a list index (or shift by a negative count),
    # and a shift by 99 reads a 0 bit or sets one past the graph
    graph = build_power_graph(build_group("cyclic:6"))
    for v in (-1, -6, 6, 99):
        with pytest.raises(IndexError, match=f"vertex {v} is outside 0..5"):
            graph.degree(v)
        with pytest.raises(IndexError, match=f"vertex {v} is outside 0..5"):
            graph.has_edge(v, 0)
        with pytest.raises(IndexError, match=f"vertex {v} is outside 0..5"):
            graph.has_edge(0, v)
        with pytest.raises(IndexError, match=f"vertex {v} is outside 0..5"):
            graph.components(without=v)
    assert graph.degree(5) == 5 and graph.has_edge(5, 0)
    assert graph.components(without=5) == [[0, 1, 2, 3, 4]]


def test_power_graph_matches_power_relation():
    for spec in ["cyclic:12", "dihedral:20", "quaternion:12", "sym:4"]:
        group = build_group(spec)
        graph = build_power_graph(group)
        for x in range(group.n):
            for y in range(x + 1, group.n):
                related = any(
                    group.power(y, k) == x for k in range(group.order_of(y))
                ) or any(group.power(x, k) == y for k in range(group.order_of(x)))
                assert graph.has_edge(x, y) == related


DEFINITION_PANEL = ["cyclic:360", "dihedral:32", "quaternion:32", "elemabelian:3:3", "sym:5",
                    "alt:5", "psl2:8", "cyclic:2 x cyclic:16"]


@pytest.mark.parametrize("spec", DEFINITION_PANEL)
def test_power_graph_matches_the_subgroup_definition(spec):
    group = build_group(spec)
    graph = build_power_graph(group)
    subgroups = [group.cyclic_subgroup(g) for g in range(group.n)]
    for x, y in itertools.product(range(group.n), repeat=2):
        related = x != y and (x in subgroups[y] or y in subgroups[x])
        assert graph.has_edge(x, y) == related


@pytest.mark.parametrize("spec", DEFINITION_PANEL)
def test_generators_of_one_cyclic_subgroup_are_closed_twins(spec):
    # closed_twin_kappa trusts each of a power graph's twin sets to hold closed
    # twins, and the product bound's kappa(H) merges them by closed neighbourhood
    group = build_group(spec)
    graph = build_power_graph(group)
    neighbours = graph.rows
    closed = {}
    for g in range(group.n):
        closed.setdefault(group.cyclic_subgroup(g), set()).add(neighbours[g] | 1 << g)
    assert all(len(rows) == 1 for rows in closed.values())


@pytest.mark.parametrize("spec", DEFINITION_PANEL)
def test_twin_sets_are_the_generators_of_each_cyclic_subgroup(spec):
    # one ascending list per cyclic subgroup, in order of smallest generator,
    # covering every vertex once
    group = build_group(spec)
    graph = build_power_graph(group)
    generators = {}
    for g in range(group.n):
        generators.setdefault(group.cyclic_subgroup(g), []).append(g)
    assert graph.twin_sets == sorted(generators.values())
    assert sorted(itertools.chain.from_iterable(graph.twin_sets)) == list(range(group.n))


@cache
def _rows_by_definition(spec):
    """Row v of the spec's power graph from the definition, one vertex at a
    time: the w != v with w in <v> or v in <w>. Kept, since three tests read
    the same specs."""
    group = build_group(spec)
    subgroup = [group.cyclic_subgroup(g) for g in range(group.n)]
    members = {}  # <g> -> mask of its members
    generators = {}  # <g> -> mask of its generators
    for g, sub in enumerate(subgroup):
        generators[sub] = generators.get(sub, 0) | 1 << g
        if sub not in members:
            members[sub] = sum(1 << h for h in sub)
    inside = [0] * group.n  # v -> mask of the w with v in <w>
    for sub, mask in generators.items():
        for h in sub:
            inside[h] |= mask
    return [(members[subgroup[v]] | inside[v]) & ~(1 << v) for v in range(group.n)]


@pytest.mark.parametrize("spec", sorted(set(load_manifest()) | set(GRAPH_BOUND_SPECS)
                                        | set(KAPPA_BLOCKS_SPECS)))
def test_rows_on_demand_match_the_definition(monkeypatch, spec):
    # degrees and full-degree vertices come from the per-set closed
    # neighbourhoods without building a row; the rows, derived on each
    # access, are the definition's
    group = build_group(spec)
    graph = build_power_graph(group)
    expected = _rows_by_definition(spec)
    degrees = [row.bit_count() for row in expected]
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "rows", property(lambda graph: pytest.fail("rows built")))
        assert [graph.degree(v) for v in range(group.n)] == degrees
        assert full_degree_vertices(graph) == [v for v, k in enumerate(degrees)
                                               if k == group.n - 1]
        assert graph.edge_count() == sum(degrees) // 2
    assert graph.rows == expected
    for i, (members, closed) in enumerate(zip(graph.twin_sets, graph.closed)):
        assert all(graph.which[g] == i and expected[g] | 1 << g == closed for g in members)


@pytest.mark.parametrize("spec", sorted(set(load_manifest()) | set(GRAPH_BOUND_SPECS)
                                        | set(KAPPA_BLOCKS_SPECS)))
def test_every_view_of_the_power_graph_is_the_definition(spec):
    # degree, has_edge, edges(), edge_count(), rows and J + Q all read the one
    # per-set store, and nothing can change one view alone: there is no
    # mutator. J + Q, which only the dense reference builds, is checked where
    # that reference runs, and has_edge against every vertex up to that size
    # and against 64 evenly spaced vertices above it.
    group = build_group(spec)
    graph = build_power_graph(group)
    n = group.n
    expected = _rows_by_definition(spec)
    assert graph.rows == expected
    assert [graph.degree(v) for v in range(n)] == [row.bit_count() for row in expected]
    edges = graph.edges()
    assert len(edges) == graph.edge_count() == sum(r.bit_count() for r in expected) // 2
    assert all(a < b and expected[a] >> b & 1 for a, b in edges)
    columns = range(n) if n <= MATRIX_TREE_VERTEX_LIMIT else range(0, n, n // 64)
    assert all(graph.has_edge(v, w) == bool(expected[v] >> w & 1)
               for v in range(n) for w in columns)
    if n <= MATRIX_TREE_VERTEX_LIMIT:
        assert ones_plus_laplacian(graph) == [
            [row.bit_count() + 1 if v == w else 1 - (row >> w & 1) for w in range(n)]
            for v, row in enumerate(expected)]
    with pytest.raises(AttributeError):
        graph.add_edge(1, 2)


def test_plain_graph_rows_must_describe_a_simple_graph():
    # rows that no simple graph has would give views that disagree, so they
    # are refused: a row naming a vertex its neighbour's row does not
    # return, a loop, or a vertex outside the graph
    assert Graph(3, [0b010, 0b101, 0b010]).edges() == [(0, 1), (1, 2)]
    for rows, match in (([0b010, 0b000], "not matched"), ([0b001, 0b000], "loop at vertex 0"),
                        ([0b100, 0b000], "outside 0..1"), ([-1, 0b000], "outside 0..1")):
        with pytest.raises(ValueError, match=match):
            Graph(2, rows)


@pytest.mark.parametrize("spec", load_manifest())
def test_component_decomposition_matches_networkx(spec):
    # components of the definition graph with the identity removed: sizes in
    # decreasing order, clique flags, and each clique's witness filling it
    # with its cyclic subgroup minus the identity
    group = build_group(spec)
    rows = _rows_by_definition(spec)
    h = nx.Graph()
    h.add_nodes_from(range(group.n))
    h.add_edges_from((v, w) for v, row in enumerate(rows) for w in range(v) if row >> w & 1)
    h.remove_node(group.identity)
    components = sorted((sorted(c) for c in nx.connected_components(h)),
                        key=lambda c: (-len(c), c))
    decomposition = component_decomposition(build_power_graph(group))
    assert len(decomposition) == len(components)
    assert [c.size for c in decomposition] == [len(c) for c in components]
    for ours, theirs in zip(decomposition, components):
        assert list(ours.elements) == theirs
        clique = h.subgraph(theirs).number_of_edges() == len(theirs) * (len(theirs) - 1) // 2
        assert ours.is_clique == clique
        # a filler has the largest order in the component; ties go to the smallest
        fillers = [g for g in theirs if group.cyclic_subgroup(g) - {group.identity} == set(theirs)]
        assert ours.witness == (min(fillers, default=None) if clique else None)


@pytest.mark.parametrize("spec", ["dihedral:2000", "cyclic:1980"])
def test_power_graph_edge_count_at_the_order_cap(spec):
    # each g is joined to the |<g>| - 1 other members of <g>; a pair of
    # generators of one subgroup H is counted from both ends, phi(|H|) choose 2 times
    group = build_group(spec)
    subgroups = [group.cyclic_subgroup(g) for g in range(group.n)]
    expected = sum(len(sub) - 1 for sub in subgroups)
    expected -= sum(phi * (phi - 1) // 2 for phi in Counter(subgroups).values())
    assert build_power_graph(group).edge_count() == expected


def test_coprime_orders_are_never_adjacent():
    for spec in ["cyclic:30", "sym:4", "dihedral:24"]:
        group = build_group(spec)
        graph = build_power_graph(group)
        for x, y in itertools.combinations(range(group.n), 2):
            if x == group.identity or y == group.identity:
                assert graph.has_edge(x, y)
                continue
            if gcd(group.order_of(x), group.order_of(y)) == 1:
                assert not graph.has_edge(x, y)
            if graph.has_edge(x, y):
                ox, oy = group.order_of(x), group.order_of(y)
                assert ox % oy == 0 or oy % ox == 0


@pytest.mark.parametrize("n,complete", [
    (2, True), (3, True), (4, True), (5, True), (8, True), (9, True),
    (16, True), (27, True), (6, False), (12, False), (15, False),
])
def test_cyclic_power_graph_complete_iff_prime_power(n, complete):
    graph = build_power_graph(build_group(f"cyclic:{n}"))
    assert (graph.edge_count() == n * (n - 1) // 2) == complete


def test_klein_style_product_component_sizes():
    group = build_group("cyclic:2 x cyclic:4")
    big, single_a, single_b = component_decomposition(build_power_graph(group))
    assert [big.size, single_a.size, single_b.size] == [5, 1, 1]
    assert not big.is_clique and big.witness is None
    for single in (single_a, single_b):
        assert single.is_clique
        assert single.witness is not None
        assert group.order_of(single.witness) == 2


def _per_vertex_decomposition(graph):
    """component_decomposition one vertex at a time: the reference for the
    search over twin sets."""
    table = graph.group.cyclic_subgroups()
    closed, which = graph.closed, graph.which
    out = []
    for comp in graph.components(without=graph.identity_vertex):
        mask = 0
        for v in comp:
            mask |= 1 << v
        clique = all(closed[which[v]] & mask == mask for v in comp)
        witness = None
        if clique:
            best = max(comp, key=lambda g: (table.orders[which[g]], -g))
            if table.orders[which[best]] == len(comp) + 1:
                witness = best
        out.append(Component(tuple(comp), clique, witness))
    out.sort(key=lambda c: (-c.size, c.elements))
    return tuple(out)


def _p_group_specs() -> list[str]:
    """The corpus p-groups and the p-groups among the claims sweep's atoms and pairs."""
    atoms = _atoms_up_to(256)
    nontrivial = [(spec, order) for spec, order in atoms if order > 1]
    specs = load_manifest() + [spec for spec, _ in atoms] + [
        f"{a} x {b}" for (a, m), (b, n) in itertools.combinations_with_replacement(nontrivial, 2)
        if m * n <= 256 and prime_power(m * n) is not None]
    return [spec for spec in dict.fromkeys(specs) if prime_power(spec_order(spec)) is not None]


def test_twin_set_components_match_the_per_vertex_search():
    specs = _p_group_specs()
    assert len(specs) == 436
    for spec in specs:
        graph = build_power_graph(build_group(spec))
        assert component_decomposition(graph) == _per_vertex_decomposition(graph), spec


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:6", "sym:4", "alt:5", "dihedral:30",
                                  "cyclic:2 x cyclic:4", "quaternion:12 x cyclic:5"])
def test_twin_set_components_match_the_per_vertex_search_off_p_groups(spec):
    graph = build_power_graph(build_group(spec))
    assert component_decomposition(graph) == _per_vertex_decomposition(graph)


def test_dihedral_eight_components():
    decomposition = component_decomposition(build_power_graph(build_group("dihedral:8")))
    assert len(decomposition) == 5
    assert [c.size for c in decomposition] == [3, 1, 1, 1, 1]


def test_alternating_six_component_census():
    group = build_group("alt:6")
    decomposition = component_decomposition(build_power_graph(group))
    assert len(decomposition) == 121
    assert Counter(c.size for c in decomposition) == {3: 45, 2: 40, 4: 36}
    for component in decomposition:
        assert component.is_clique
        witness = component.witness
        assert witness is not None
        assert group.order_of(witness) == component.size + 1
        assert group.cyclic_subgroup(witness) - {group.identity} == set(
            component.elements
        )


def test_json_export():
    graph = build_power_graph(build_group("quaternion:8"))
    payload = to_json_dict(graph)
    assert list(payload) == ["n", "identity", "labels", "edges"]
    assert payload["n"] == 8
    assert payload["identity"] == 0
    assert payload["labels"][0] == "e"
    assert len(payload["edges"]) == 16
    assert payload["edges"] == sorted(payload["edges"])
    assert all(a < b for a, b in payload["edges"])
    text = to_json(graph)
    assert text.endswith("\n")
    assert json.loads(text) == payload


def test_dot_export():
    graph = build_power_graph(build_group("quaternion:8"))
    text = to_dot(graph)
    assert text.startswith("graph power {\n")
    assert text.endswith("}\n")
    assert '  0 [label="e"];' in text
    assert text.count(" -- ") == 16
    assert '  1 [label="a1"];' in text
    assert "  0 -- 1;" in text and "  1 -- 0;" not in text


def test_dot_export_formats_each_label_once(monkeypatch):
    group = build_group("sym:4")
    graph = build_power_graph(group)
    calls = Counter()
    element_label = group.element_label

    def counting_label(a):
        calls[a] += 1
        return element_label(a)

    monkeypatch.setattr(group, "element_label", counting_label)
    to_dot(graph)
    assert calls == Counter(range(group.n))


def test_complete_graph_export():
    graph = build_power_graph(build_group("cyclic:5"))
    assert to_json_dict(graph)["edges"] == [
        list(e) for e in itertools.combinations(range(5), 2)
    ]
