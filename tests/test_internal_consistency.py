"""Cross-cutting consistency properties that tie the modules together."""

import random

import pytest

from steiner.cuts import default_multiway_cut, minimum_multiway_cut
from steiner.decomposition import (
    FORGET_VERTEX,
    INTRODUCE_EDGE,
    NiceDecomposition,
    decompose_from_multiway_cut,
    to_nice,
    validate_nice,
)
from steiner.dp import compute_tables, solve_decomposition, witness_edges
from steiner.exact import brute_force_steiner, dreyfus_wagner
from steiner.graph import Graph, Subgraph
from steiner.partitions import Partition, project
from steiner.representatives import PartitionTable, reduce_partitions

from helpers import random_instance


def test_every_table_witness_realizes_its_entry():
    # each stored (partition, weight) pair must be realized exactly by its
    # witness edge set, padded with z: projection matches, cost matches
    for seed in range(40):
        inst = random_instance(seed, nmax=9, kmax=3)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        nice = to_nice(g, terms, decompose_from_multiway_cut(g, terms, cut))
        tables, _ = compute_tables(g, terms, nice)
        for per_node in tables.values():
            for z, table in per_node.items():
                for blocks, (w, wit) in table.items():
                    edges = witness_edges(wit)
                    padded = Subgraph(g, z.union(*edges), edges)
                    assert project(padded, sorted(z)).blocks == blocks
                    assert padded.cost == w


def test_zero_weight_edges_all_solvers():
    g = Graph([1, 2, 3, 4], [(1, 2, 0), (2, 3, 0), (3, 4, 5), (1, 4, 9)])
    terms = frozenset({1, 4})
    want = brute_force_steiner(g, terms).cost
    assert dreyfus_wagner(g, terms).cost == want
    from steiner.connecting import solve_with_cut

    cut = minimum_multiway_cut(g, terms, 1)
    assert solve_with_cut(g, terms, cut).cost == want


def test_huge_weights_exact_across_solvers():
    # 2**62-scale weights: a float64 detour anywhere would corrupt sums
    from steiner.connecting import solve_with_cut

    rng = random.Random(9)
    big = 2**62
    for _ in range(8):
        n = rng.randint(4, 7)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        edges = {(u, v): big - rng.randint(0, 5) for u, v in pairs[: n + 2]}
        for v in range(2, n + 1):  # splice a spanning tree for connectivity
            u = rng.randrange(1, v)
            edges.setdefault((u, v), big - rng.randint(0, 5))
        g = Graph(range(1, n + 1), [(u, v, w) for (u, v), w in edges.items()])
        terms = frozenset(rng.sample(range(1, n + 1), 3))
        want = brute_force_steiner(g, terms).cost
        assert want > 2**61
        assert dreyfus_wagner(g, terms).cost == want
        cut = minimum_multiway_cut(g, terms, 2)
        assert solve_with_cut(g, terms, cut).cost == want
        nice = to_nice(g, terms, decompose_from_multiway_cut(g, terms, cut))
        res = solve_decomposition(g, terms, nice)
        assert res.cost == want and res.tree.cost == want


def test_universe_size_guards():
    with pytest.raises(ValueError):
        Partition.from_sets(range(1, 64), [set(range(1, 64))])
    big = PartitionTable(range(1, 30))
    assert len(reduce_partitions(big)) == 0  # empty tables reduce fine


def test_representative_contract_at_six_elements():
    from steiner.representatives import is_representative

    from helpers import random_partition_table

    rng = random.Random(6)
    universe = tuple(range(1, 7))
    for _ in range(25):
        table = random_partition_table(rng, universe, rng.randint(0, 40))
        reduced = reduce_partitions(table)
        assert len(reduced) <= 2 ** 5
        assert is_representative(reduced, table)


def corrupt(nice, **overrides):
    fields = dict(
        root=nice.root,
        bags=dict(nice.bags),
        children={n: nice.children[n] for n in nice.bags},
        leaf_vertices=nice.leaf_vertices,
        kinds=dict(nice.kinds),
        intro_vertex=dict(nice.intro_vertex),
        intro_edge=dict(nice.intro_edge),
        edge_assignment=dict(nice.edge_assignment),
    )
    fields.update(overrides)
    return NiceDecomposition(**fields)


def test_nice_validator_catches_corruption():
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    terms = frozenset({1, 3})
    cut = default_multiway_cut(g, terms)
    nice = to_nice(g, terms, decompose_from_multiway_cut(g, terms, cut))
    assert validate_nice(g, terms, nice) is None

    # a forget node relabeled as an edge node
    forget = next(n for n, kind in nice.kinds.items() if kind == FORGET_VERTEX)
    kinds = dict(nice.kinds)
    kinds[forget] = INTRODUCE_EDGE
    bad = validate_nice(g, terms, corrupt(nice, kinds=kinds))
    assert bad is not None and bad.condition == "kind"

    # an edge dropped from the assignment
    assignment = dict(nice.edge_assignment)
    assignment.pop((1, 2))
    bad = validate_nice(g, terms, corrupt(nice, edge_assignment=assignment))
    assert bad is not None and bad.condition == "edges"

    # an edge claimed by a node of the wrong kind
    assignment = dict(nice.edge_assignment)
    assignment[(1, 2)] = forget
    bad = validate_nice(g, terms, corrupt(nice, edge_assignment=assignment))
    assert bad is not None and bad.condition == "edges"
