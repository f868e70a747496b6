import random
from itertools import combinations, combinations_with_replacement

import pytest

from steiner.graph import Graph, Subgraph, connected_components
from steiner.partitions import (
    MAX_UNIVERSE,
    Partition,
    add_singleton,
    enumerate_partitions,
    join,
    pair_partition,
    project,
    refines,
    restrict,
)

from helpers import random_edge_subgraph, random_graph


def P(universe, *groups):
    return Partition.from_sets(universe, groups)


def brute_join(p, q):
    """Lattice oracle: the unique finest partition coarser than both."""
    coarser = [
        r
        for r in enumerate_partitions(p.universe)
        if refines(r, p) and refines(r, q)
    ]
    finest = [r for r in coarser if all(refines(other, r) for other in coarser)]
    assert len(finest) == 1
    return finest[0]


def test_join_examples():
    u = (1, 2, 3)
    assert join(P(u, {1}, {2}, {3}), P(u, {1, 2}, {3})) == P(u, {1, 2}, {3})
    left = P(u, {1, 2}, {3})
    right = P(u, {1}, {2, 3})
    assert join(left, right) == P(u, {1, 2, 3})
    assert join(left, right) == brute_join(left, right)
    assert join(left, left) == left


def test_join_requires_shared_universe():
    with pytest.raises(ValueError):
        join(P((1, 2), {1, 2}), P((1, 3), {1, 3}))


def test_join_laws_exhaustive():
    u = (1, 2, 3, 4)
    parts = list(enumerate_partitions(u))
    assert len(parts) == 15
    discrete = Partition.singletons(u)
    for p in parts:
        assert join(p, p) == p
        assert join(p, discrete) == p
        for q in parts:
            assert join(p, q) == join(q, p)
            assert join(p, q) == brute_join(p, q)
    for p in parts:
        for q in parts:
            pq = join(p, q)
            for r in parts:
                assert join(pq, r) == join(p, join(q, r))


def test_join_against_lattice_oracle_at_five():
    parts = list(enumerate_partitions((3, 7, 10, 12, 20)))
    assert len(parts) == 52
    for p in parts:
        for q in parts:
            assert join(p, q) == brute_join(p, q)


def test_blocks_stay_canonical():
    # every result holds strictly ascending nonzero masks, and a join
    # that merges no two blocks of p hands back p itself
    def canonical(p):
        return 0 not in p.blocks and list(p.blocks) == sorted(set(p.blocks))

    ids = (3, 7, 10, 12, 20, 31)
    for size in range(len(ids) + 1):
        uni = ids[:size]
        assert canonical(Partition.singletons(uni))
        assert canonical(Partition.single_block(uni))
        parts = list(enumerate_partitions(uni))
        for p in parts:
            assert canonical(p)
            assert P(uni, set(), *p.as_sets()) == p
            for r in range(size + 1):
                for keep in combinations(uni, r):
                    assert canonical(restrict(p, keep))
            for v in (1, 11, 40):
                assert canonical(add_singleton(p, v))
            assert join(p, Partition.singletons(uni)) is p
            for q in parts:
                pq = join(p, q)
                assert canonical(pq)
                if refines(p, q):
                    assert pq is p
        for u, v in combinations_with_replacement(uni, 2):
            assert canonical(pair_partition(uni, u, v))


def test_refines_examples_and_order():
    u = (1, 2)
    assert refines(P(u, {1, 2}), P(u, {1}, {2}))
    assert not refines(P(u, {1}, {2}), P(u, {1, 2}))
    p = P(u, {1, 2})
    assert refines(p, p)
    u3 = (1, 2, 3)
    for p in enumerate_partitions(u3):
        for q in enumerate_partitions(u3):
            assert refines(p, q) == (join(p, q) == p)


def test_project_examples():
    # the canonical 8-point example: one 4-chain, one pair, two absentees
    g = Graph(range(1, 9), [(2, 3, 1), (3, 4, 1), (4, 5, 1), (6, 7, 1)])
    f = Subgraph(g, {2, 3, 4, 5, 6, 7}, [(2, 3), (3, 4), (4, 5), (6, 7)])
    x = range(1, 9)
    assert project(f, x) == P(tuple(x), {1}, {2, 3, 4, 5}, {6, 7}, {8})

    assert project(g.empty_subgraph(), {1, 2}) == P((1, 2), {1}, {2})
    f2 = Subgraph(g, {2, 3}, [(2, 3)])
    assert project(f2, {2, 3, 1}) == P((1, 2, 3), {2, 3}, {1})


def test_project_join_decomposition():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 12))
        f = random_edge_subgraph(rng, g)
        comps = connected_components(f)
        if len(comps) < 2:
            continue
        comp = comps[0]
        x = rng.sample(sorted(g.vertex_set), rng.randint(1, len(g)))
        c_part = Subgraph(g, comp, [e for e in f.edges if e[0] in comp])
        rest = f.vertices - comp
        h_part = Subgraph(g, rest, [e for e in f.edges if e[0] not in comp])
        assert project(f, x) == join(project(h_part, x), project(c_part, x))


def test_restrict_examples():
    u = (1, 2, 3)
    assert restrict(P(u, {1, 2}, {3}), {1, 3}) == P((1, 3), {1}, {3})
    p = P(u, {1, 2}, {3})
    assert restrict(p, u) == p
    assert restrict(P(u, {1, 2, 3}), {2}) == P((2,), {2})


def test_kernel_against_set_definitions():
    # non-contiguous ids, so positions and vertex ids differ
    ids = (3, 7, 10, 12, 20, 31)
    for size in range(len(ids) + 1):
        uni = ids[:size]
        for p in enumerate_partitions(uni):
            blocks = p.as_sets()
            for r in range(size + 1):
                for keep in combinations(uni, r):
                    kept = set(keep)
                    expected = Partition.from_sets(kept, [b & kept for b in blocks])
                    assert restrict(p, keep) == expected
            for v in (1, 11, 40):  # below, between and above
                expected = Partition.from_sets(uni + (v,), blocks + [{v}])
                assert add_singleton(p, v) == expected
        for u, v in combinations_with_replacement(uni, 2):
            groups = [{u, v}] + [{x} for x in uni if x not in (u, v)]
            assert pair_partition(uni, u, v) == Partition.from_sets(uni, groups)


def test_kernel_errors():
    p = P((1, 2, 3), {1, 2}, {3})
    with pytest.raises(ValueError):
        restrict(p, {1, 4})
    with pytest.raises(ValueError):
        add_singleton(p, 2)
    with pytest.raises(ValueError):
        add_singleton(Partition.singletons(range(MAX_UNIVERSE)), MAX_UNIVERSE)
    with pytest.raises(ValueError):
        pair_partition((1, 2, 3), 1, 4)
    with pytest.raises(ValueError):
        pair_partition(range(MAX_UNIVERSE + 1), 0, 1)


def test_enumeration_matches_bell_numbers():
    for size, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        universe = tuple(range(1, size + 1))
        parts = list(enumerate_partitions(universe))
        assert len(parts) == bell
        assert len(set(parts)) == bell


def test_helpers():
    u = (1, 2, 3)
    assert pair_partition(u, 1, 3) == P(u, {1, 3}, {2})
    assert add_singleton(P((1, 2), {1, 2}), 3) == P(u, {1, 2}, {3})
    p = P(u, {1, 2}, {3})
    assert p.is_singleton(3) and not p.is_singleton(1)
    assert p.block_of(2) == frozenset({1, 2})
