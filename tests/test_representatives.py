import random
from itertools import combinations

from steiner.graph import Graph, Subgraph
from steiner.partitions import Partition, enumerate_partitions, project
from steiner.representatives import (
    PartitionTable,
    cut_row,
    is_representative,
    reduce_partitions,
    reduce_subgraphs,
)

from helpers import random_partition_table


def P(universe, *groups):
    return Partition.from_sets(universe, groups)


def test_reduce_two_element_example():
    table = PartitionTable((1, 2))
    table.add(P((1, 2), {1}, {2}), 5)
    table.add(P((1, 2), {1, 2}), 7)
    reduced = reduce_partitions(table)
    assert len(reduced) == 2  # rows (1,1) and (1,0) are independent
    assert is_representative(reduced, table)


def test_duplicate_partitions_keep_minimum():
    table = PartitionTable((1, 2))
    table.add(P((1, 2), {1, 2}), 7)
    table.add(P((1, 2), {1, 2}), 4)
    assert table.weight(P((1, 2), {1, 2})) == 4


def test_single_element_universe():
    table = PartitionTable((1,))
    table.add(P((1,), {1}), 3)
    table.add(P((1,), {1}), 9)
    reduced = reduce_partitions(table)
    assert len(reduced) <= 1


def test_size_bound_and_subset():
    rng = random.Random(77)
    for _ in range(200):
        size = rng.randint(1, 5)
        universe = tuple(range(1, size + 1))
        table = random_partition_table(rng, universe, rng.randint(0, 25))
        reduced = reduce_partitions(table)
        assert len(reduced) <= 2 ** max(0, size - 1)
        for p, w in reduced.entries():
            assert table.weight(p) == w  # selected, never synthesized
        assert is_representative(reduced, table)
        again = reduce_partitions(reduced)
        assert is_representative(again, table)


def test_representative_check_basics():
    rng = random.Random(3)
    table = random_partition_table(rng, (1, 2, 3), 10)
    assert is_representative(table, table)
    empty = PartitionTable((1, 2, 3))
    if len(table):
        assert not is_representative(empty, table)


def brute_cut_row(partition):
    """Definition-based row builder over explicit bipartitions."""
    universe = partition.universe
    first = universe[0]
    rest = universe[1:]
    row = 0
    blocks = partition.as_sets()
    for col in range(1 << len(rest)):
        far = {rest[i] for i in range(len(rest)) if col >> i & 1}
        near = set(universe) - far
        assert first in near
        if all(b <= far or b <= near for b in blocks):
            row |= 1 << col
    return row


def test_cut_matrix_against_definition():
    for size in range(8):
        universe = tuple(range(1, size + 1))
        for p in enumerate_partitions(universe):
            # the empty universe has the one (empty, empty) column
            assert cut_row(p.blocks) == (brute_cut_row(p) if size else 1)
        whole = Partition.single_block(universe)
        assert cut_row(whole.blocks) == 1  # exactly one 1, in the (U, empty) column
        discrete = Partition.singletons(universe)
        columns = 1 << max(0, size - 1)
        assert cut_row(discrete.blocks) == (1 << columns) - 1  # all ones


def test_reduce_subgraphs_examples():
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    reduced = reduce_subgraphs([g.empty_subgraph()], {1})
    assert len(reduced) == 1 and reduced.weight(P((1,), {1})) == 0

    # all subgraphs of a 3-vertex path, summarized on its endpoints
    subs = []
    edges = [(1, 2), (2, 3)]
    for r in range(3):
        for combo in combinations(edges, r):
            vertices = {x for e in combo for x in e}
            subs.append(Subgraph(g, vertices, combo))
    reduced = reduce_subgraphs(subs, {1, 3})
    assert len(reduced) <= 2
    full = PartitionTable((1, 3))
    for sub in subs:
        full.add(project(sub, (1, 3)), sub.cost)
    assert is_representative(reduced, full)
    for p, w in reduced.entries():  # each witness realizes its entry
        witness = reduced.witness(p)
        assert project(witness, (1, 3)) == p and witness.cost == w


def test_reduce_subgraphs_dominance():
    g = Graph([1, 2, 3], [(1, 2, 4), (1, 3, 5), (2, 3, 5)])
    cheap = Subgraph(g, {1, 2}, [(1, 2)])
    costly = Subgraph(g, {1, 2, 3}, [(1, 3), (2, 3)])  # same {1,2} grouping, cost 10
    reduced = reduce_subgraphs([costly, cheap], {1, 2})
    grouped = P((1, 2), {1, 2})
    assert reduced.weight(grouped) == 4 and reduced.witness(grouped) == cheap


def test_witness_tracking_through_reduce():
    table = PartitionTable((1, 2))
    used = frozenset({(1, 2)})  # an edge-set witness, as the DP stores them
    table.add(P((1, 2), {1, 2}), 3, used)
    table.add(P((1, 2), {1}, {2}), 0, frozenset())
    reduced = reduce_partitions(table)
    assert reduced.witness(P((1, 2), {1, 2})) == used
