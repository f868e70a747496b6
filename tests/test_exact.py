import random

import pytest

from steiner.exact import MAX_TERMINALS, brute_force_steiner, dreyfus_wagner
from steiner.graph import INF, Graph, connected_components, minimum_spanning_tree

from helpers import random_instance


def path_graph():
    return Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])


def assert_valid_tree(result, g, terminals):
    tree = result.tree
    assert frozenset(terminals) <= tree.vertices or not terminals
    assert len(connected_components(tree)) <= 1
    assert len(tree.edges) == max(0, len(tree.vertices) - 1)  # acyclic
    assert tree.cost == result.cost


def test_dreyfus_wagner_examples():
    g = path_graph()
    res = dreyfus_wagner(g, {1, 3})
    assert res.cost == 3 and res.tree.edges == frozenset({(1, 2), (2, 3)})
    assert dreyfus_wagner(g, {2}).cost == 0
    full = dreyfus_wagner(g, {1, 2, 3})
    assert full.cost == minimum_spanning_tree(g).cost


def test_dreyfus_wagner_errors_and_limits():
    g = path_graph()
    with pytest.raises(ValueError):
        dreyfus_wagner(g, {7})
    many = range(1, MAX_TERMINALS + 2)  # one over the limit: rejected before any Dijkstra
    with pytest.raises(ValueError, match=f"limit of {MAX_TERMINALS}"):
        dreyfus_wagner(Graph(many, []), many)


def test_dreyfus_wagner_disconnected():
    g = Graph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)])
    res = dreyfus_wagner(g, {1, 3})
    assert res.cost == INF and not res.tree.edges


def test_brute_force_examples():
    g = path_graph()
    assert brute_force_steiner(g, {1, 3}).cost == 3
    empty = brute_force_steiner(g, set())
    assert empty.cost == 0 and not empty.tree.vertices
    g2 = Graph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)])
    assert brute_force_steiner(g2, {1, 3}).cost == INF
    with pytest.raises(ValueError):
        brute_force_steiner(Graph(range(1, 18), []), {1})


def test_agreement_with_oracle():
    for seed in range(500):
        inst = random_instance(seed, nmax=12, kmax=5)
        dw = dreyfus_wagner(inst.graph, inst.terminals)
        bf = brute_force_steiner(inst.graph, inst.terminals)
        assert dw.cost == bf.cost, f"seed {seed}"
        assert_valid_tree(dw, inst.graph, inst.terminals)
        assert_valid_tree(bf, inst.graph, inst.terminals)


def test_monotone_in_terminals():
    rng = random.Random(13)
    for seed in range(80):
        inst = random_instance(seed, nmax=9, kmax=3)
        base = dreyfus_wagner(inst.graph, inst.terminals).cost
        extra = rng.choice(sorted(inst.graph.vertex_set))
        grown = dreyfus_wagner(inst.graph, inst.terminals | {extra}).cost
        assert grown >= base
