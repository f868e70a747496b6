
import time

import pytest

from steiner.cuts import minimum_multiway_cut
from steiner.decomposition import (
    Decomposition,
    decompose_from_multiway_cut,
    enumerate_triangles,
    from_gadget_decomposition,
    gadget_decomposition,
    terminal_gadget_graph,
    to_nice,
    validate_decomposition,
    validate_nice,
    validate_triangle_decomposition,
    width,
)
from steiner.graph import Graph

from helpers import random_instance


def path_graph():
    return Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])


def trivial_decomposition(g, leaf_vertices=frozenset()):
    return Decomposition(1, {1: g.vertex_set}, {1: ()}, leaf_vertices)


def test_width_examples():
    g = Graph([1, 2, 3, 4], [])
    assert width(Decomposition(1, {1: {1, 2}}, {})) == 1
    assert width(Decomposition(1, {1: {1}}, {})) == 0
    assert width(Decomposition(1, {1: {1, 2, 3, 4}}, {}, {3, 4})) == 1


def test_validate_examples():
    g = path_graph()
    assert validate_decomposition(g, {1, 3}, trivial_decomposition(g)) is None

    leafy = Decomposition(
        1, {1: {2}, 2: {1, 2}, 3: {2, 3}}, {1: (2, 3)}, {1, 3}
    )
    bad = validate_decomposition(g, {1, 3}, leafy)
    assert bad is not None and bad.condition == "D"

    split = Decomposition(
        1, {1: {2}, 2: {1, 2}, 3: {2, 3}, 4: {1}}, {1: (2, 3), 3: (4,)}, frozenset()
    )
    bad = validate_decomposition(g, {1, 3}, split)
    assert bad is not None and bad.condition == "A"


def test_validate_edge_and_leaf_conditions():
    g = path_graph()
    no_edge = Decomposition(1, {1: {1, 2}, 2: {3}}, {1: (2,)})
    bad = validate_decomposition(g, set(), no_edge)
    assert bad is not None and bad.condition == "B"

    interior_leaf = Decomposition(
        1, {1: {1, 2}, 2: {2, 3}, 3: {2}}, {1: (2,), 2: (3,)}, {3}
    )
    bad = validate_decomposition(g, set(), interior_leaf)
    assert bad is not None and bad.condition == "C"

    with pytest.raises(ValueError):
        validate_decomposition(g, set(), Decomposition(1, {1: {1, 2, 9}}, {}))


def test_validate_scales_linearly():
    # bags of three consecutive vertices along a 20,000-vertex path
    n = 20_000
    g = Graph(range(1, n + 1), [(i, i + 1, 1) for i in range(1, n)])
    bags = {i: {i, i + 1, i + 2} for i in range(1, n - 1)}
    children = {i: (i + 1,) for i in range(1, n - 2)}
    started = time.perf_counter()
    assert validate_decomposition(g, {1, n}, Decomposition(1, bags, children)) is None
    assert time.perf_counter() - started < 5.0

    # vertex v lives in bags v-2, v-1 and v; without bag v-1 they split
    v = n // 2
    bags[v - 1] = bags[v - 1] - {v}
    bad = validate_decomposition(g, {1, n}, Decomposition(1, bags, children))
    assert bad is not None and bad.condition == "A" and bad.witness == (v,)


def test_decompose_from_cut_examples():
    g = path_graph()
    dec = decompose_from_multiway_cut(g, {1, 3}, {2})
    assert dec.bags[dec.root] == frozenset({2})
    leaf_bags = sorted(sorted(dec.bags[c]) for c in dec.children[dec.root])
    assert leaf_bags == [[1, 2], [2, 3]]
    assert dec.leaf_vertices == frozenset()
    assert width(dec) == 1

    star = Graph([1, 2, 3, 4], [(4, 1, 1), (4, 2, 1), (4, 3, 1)])
    dec = decompose_from_multiway_cut(star, {1, 2, 3}, {4})
    assert width(dec) == 1 and dec.leaf_vertices == frozenset()

    # terminal-free blob hanging off the cut goes entirely to the leaf set
    blob = Graph(
        range(1, 8),
        [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 2, 1), (6, 1, 1), (6, 7, 1)],
    )
    dec = decompose_from_multiway_cut(blob, {7, 3}, minimum_multiway_cut(blob, {7, 3}, 1))
    assert width(dec) <= 1
    assert validate_decomposition(blob, {7, 3}, dec) is None


def test_decompose_width_bound_randomized():
    for seed in range(80):
        inst = random_instance(seed, nmax=10, kmax=4)
        cut = minimum_multiway_cut(
            inst.graph, inst.terminals, max(0, len(inst.terminals) - 1)
        )
        dec = decompose_from_multiway_cut(inst.graph, inst.terminals, cut)
        assert validate_decomposition(inst.graph, inst.terminals, dec) is None
        assert width(dec) <= len(cut.vertices)


def test_to_nice_structure():
    for seed in range(40):
        inst = random_instance(seed, nmax=9, kmax=3)
        cut = minimum_multiway_cut(
            inst.graph, inst.terminals, max(0, len(inst.terminals) - 1)
        )
        dec = decompose_from_multiway_cut(inst.graph, inst.terminals, cut)
        nice = to_nice(inst.graph, inst.terminals, dec)
        assert validate_nice(inst.graph, inst.terminals, nice) is None
        assert width(nice) == width(dec)
        assert set(nice.edge_assignment) == set(inst.graph.edges)


def test_to_nice_scales_linearly():
    # edge bags along a 20,000-vertex path: each edge finds its anchor
    # node without a scan over all nodes
    n = 20_000
    g = Graph(range(1, n + 1), [(i, i + 1, 1) for i in range(1, n)])
    bags = {i: {i, i + 1} for i in range(1, n)}
    children = {i: (i + 1,) for i in range(1, n - 1)}
    dec = Decomposition(1, bags, children)
    started = time.perf_counter()
    nice = to_nice(g, {1, n}, dec)
    assert time.perf_counter() - started < 5.0
    assert set(nice.edge_assignment) == set(g.edges)


def test_to_nice_trivial_bag():
    g = path_graph()
    nice = to_nice(g, {1, 3}, trivial_decomposition(g))
    assert validate_nice(g, {1, 3}, nice) is None
    assert sorted(nice.edge_assignment) == [(1, 2), (2, 3)]


def test_gadget_graph_examples():
    g = path_graph()
    gadget, gm = terminal_gadget_graph(g, {1, 3})
    assert len(gadget) == 3 + 2 + 4
    tris = enumerate_triangles(gadget)
    assert len(tris) == 2
    for tri in tris:
        terminal = [v for v in tri if v in gm.terminal_copies]
        copies = [v for v in tri if v in gm.copy_terminal]
        assert len(terminal) == 1 and len(copies) == 2

    plain, _ = terminal_gadget_graph(g, set())
    assert enumerate_triangles(plain) == []

    triangle = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    expanded, _ = terminal_gadget_graph(triangle, set())
    assert len(expanded) == 6 and enumerate_triangles(expanded) == []


def test_gadget_triangle_census_randomized():
    for seed in range(60):
        inst = random_instance(seed, nmax=10, kmax=4)
        gadget, gm = terminal_gadget_graph(inst.graph, inst.terminals)
        tris = enumerate_triangles(gadget)
        assert len(tris) == len(inst.terminals)
        for tri in tris:
            t = [v for v in tri if v in gm.terminal_copies]
            assert len(t) == 1 and set(tri) - {t[0]} == set(gm.terminal_copies[t[0]])


def test_gadget_decomposition_roundtrip():
    for seed in range(50):
        inst = random_instance(seed, nmax=8, kmax=3)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        dec = decompose_from_multiway_cut(g, terms, cut)
        lifted = gadget_decomposition(g, terms, dec)
        gadget, _ = terminal_gadget_graph(g, terms)
        assert validate_triangle_decomposition(gadget, lifted) is None
        assert width(lifted) <= max(width(dec), 1)
        back = from_gadget_decomposition(g, terms, lifted)
        assert validate_decomposition(g, terms, back) is None
        assert width(back) <= width(lifted)


def test_convert_trivial_hat_decomposition():
    g = path_graph()
    gadget, _ = terminal_gadget_graph(g, {1, 3})
    dhat = Decomposition(1, {1: gadget.vertex_set}, {1: ()})
    back = from_gadget_decomposition(g, {1, 3}, dhat)
    assert validate_decomposition(g, {1, 3}, back) is None
    assert width(back) <= width(dhat)
    assert back.bags[1] == g.vertex_set


def test_convert_without_terminals():
    g = path_graph()
    gadget, _ = terminal_gadget_graph(g, set())
    dhat = Decomposition(1, {1: gadget.vertex_set}, {1: ()})
    back = from_gadget_decomposition(g, set(), dhat)
    assert validate_decomposition(g, set(), back) is None


def test_convert_rejects_invalid_input():
    g = path_graph()
    gadget, _ = terminal_gadget_graph(g, {1, 3})
    broken = Decomposition(1, {1: gadget.vertex_set - {1}}, {1: ()})
    with pytest.raises(ValueError):
        from_gadget_decomposition(g, {1, 3}, broken)
