import random

import pytest

import steiner.cuts
from steiner.graph import (
    Graph,
    Subgraph,
    component_graph,
    connected_components,
    cut_components,
    is_multiway_cut,
    minimum_spanning_tree,
    shortest_path,
)

from helpers import all_simple_path_costs, random_graph, spanning_tree_minimum


def path_graph():
    return Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])


def test_construction_rules():
    g = Graph([1, 2], [(1, 2, 5), (2, 1, 3), (1, 1, 9)])
    assert g.edges == ((1, 2),)
    assert g.weight(1, 2) == 3  # parallel edges collapse to the minimum
    with pytest.raises(ValueError):
        Graph([1], [(1, 2, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 2, -1)])
    with pytest.raises(ValueError):
        Graph([0], [])


def test_huge_weights_sum_exactly():
    w = 2**62 - 1
    g = Graph([1, 2, 3], [(1, 2, w), (2, 3, w)])
    tree = minimum_spanning_tree(g)
    assert tree.cost == 2 * w


def test_connected_components_examples():
    assert connected_components(Graph([], [])) == []
    assert connected_components(path_graph()) == [frozenset({1, 2, 3})]
    assert connected_components(path_graph(), {2}) == [
        frozenset({1}),
        frozenset({3}),
    ]


def test_components_partition_vertices():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9), rng.randint(0, 12))
        comps = connected_components(g)
        union = set()
        for comp in comps:
            assert not comp & union
            union |= comp
        assert union == g.vertex_set


def test_shortest_path_examples():
    g = path_graph()
    path, dist = shortest_path(g, {1}, 3)
    assert dist == 3 and path.edges == frozenset({(1, 2), (2, 3)})
    path, dist = shortest_path(g, {1, 3}, 1)
    assert dist == 0 and path.edges == frozenset() and path.vertices == frozenset({1})
    g2 = Graph([1, 2, 3], [(1, 2, 1)])
    assert shortest_path(g2, {3}, 1) is None
    with pytest.raises(ValueError):
        shortest_path(g, {1}, 9)


def test_shortest_path_lexicographic_tie():
    # two cost-2 routes from 1 to 4; path through 2 wins
    g = Graph([1, 2, 3, 4], [(1, 2, 1), (2, 4, 1), (1, 3, 1), (3, 4, 1)])
    path, dist = shortest_path(g, {4}, 1)
    assert dist == 2
    assert path.vertices == frozenset({1, 2, 4})


def test_shortest_path_beats_every_explicit_path():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 12))
        verts = sorted(g.vertex_set)
        source, target = rng.sample(verts, 2)
        found = shortest_path(g, {target}, source)
        costs = all_simple_path_costs(g, source, target)
        if found is None:
            assert not costs
        else:
            assert found[1] == min(costs)


def test_mst_examples():
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2), (1, 3, 3)])
    tree = minimum_spanning_tree(g)
    assert tree.cost == 3 and tree.edges == frozenset({(1, 2), (2, 3)})
    single = Graph([5], [])
    assert minimum_spanning_tree(single).edges == frozenset()
    p = path_graph()
    assert minimum_spanning_tree(p).edges == frozenset(p.edges)
    with pytest.raises(ValueError):
        minimum_spanning_tree(Graph([1, 2], []))


def test_mst_matches_brute_force():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        if len(connected_components(g)) != 1:
            continue
        sub = g.subgraph(g.vertex_set)
        assert minimum_spanning_tree(sub).cost == spanning_tree_minimum(sub)
        checked += 1


def test_component_graph_examples():
    star = Graph([1, 2, 3], [(1, 2, 1), (1, 3, 1)])  # center 1
    gp = component_graph(star, {1}, 0)
    assert gp == Graph([1, 2], [(1, 2, 1)])
    g = path_graph()
    assert component_graph(g, set(), 0) == g
    gp = component_graph(g, {2}, 0)
    assert gp.vertex_set == frozenset({1, 2}) and gp.edges == ((1, 2),)
    with pytest.raises(ValueError):
        component_graph(g, {2}, 5)


def test_component_graph_excludes_cut_edges():
    g = Graph([1, 2, 3, 4], [(1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)])
    gp = component_graph(g, {1, 2}, 0)  # component {3, 4}
    assert gp.vertex_set == frozenset({1, 2, 3, 4})
    assert (1, 2) not in gp.edges


def test_is_multiway_cut_examples():
    g = path_graph()
    assert is_multiway_cut(g, {1, 3}, {2})
    assert not is_multiway_cut(g, {1, 3}, set())
    assert is_multiway_cut(g, {1, 3}, {1})  # terminal inside the cut is removed


def test_is_multiway_cut_monotone():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 12))
        verts = sorted(g.vertex_set)
        terms = rng.sample(verts, min(len(verts), rng.randint(1, 3)))
        cut = {v for v in verts if rng.random() < 0.4}
        if is_multiway_cut(g, terms, cut):
            extra = cut | {v for v in verts if rng.random() < 0.3}
            assert is_multiway_cut(g, terms, extra)


def test_cut_components_match_induced_graph():
    # the oracle builds g - cut as an induced Graph
    rng = random.Random(29)
    for _ in range(250):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.randint(0, 14))
        verts = sorted(g.vertex_set)
        terms = set(rng.sample(verts, rng.randint(0, min(n, 4))))
        cut = {v for v in verts if rng.random() < 0.3}
        induced = connected_components(g.induced(g.vertex_set - cut))
        assert connected_components(g, cut) == induced
        separated = all(len(comp & terms) <= 1 for comp in induced)
        assert is_multiway_cut(g, terms, cut) == separated
        assert cut_components(g, terms, cut) == (induced if separated else None)
    with pytest.raises(ValueError):
        is_multiway_cut(path_graph(), {1, 3}, {4})


def test_cut_search_builds_no_graph(monkeypatch):
    n = 12
    g = Graph(range(1, n + 1), [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    built, candidates = [], []
    init, check = Graph.__init__, steiner.cuts.is_multiway_cut

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_check(*args):
        candidates.append(1)
        return check(*args)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(steiner.cuts, "is_multiway_cut", counted_check)
    # in a complete graph every cut holds all terminals but one
    found = steiner.cuts.minimum_multiway_cut(g, {9, 10, 11, 12}, 3)
    assert found.vertices == frozenset({9, 10, 11})
    assert len(candidates) >= 100
    assert built == []


def test_subgraph_checks():
    g = path_graph()
    with pytest.raises(ValueError):
        Subgraph(g, {1}, [(1, 2)])
    with pytest.raises(ValueError):
        Subgraph(g, {1, 3}, [(1, 3)])
    sub = Subgraph(g, {1, 2}, [(1, 2)])
    assert sub.cost == 1
