import random

import pytest

from steiner.cli import verify_tree
from steiner.cuts import minimum_multiway_cut
from steiner.decomposition import decompose_from_multiway_cut, to_nice
from steiner.dp import (
    MAX_WIDTH,
    compute_tables,
    forget_vertex,
    introduce_edge,
    introduce_vertex,
    join_tables,
    leaf_table,
    solve_decomposition,
)
from steiner.exact import brute_force_steiner, dreyfus_wagner
from steiner.graph import Graph, Subgraph, connected_components
from steiner.partitions import Partition, project
from steiner.representatives import is_representative

from helpers import (
    elimination_decomposition,
    exhaustive_subgraph_table,
    random_instance,
)


def P(universe, *groups):
    return Partition.from_sets(universe, groups)


def table_of(*entries):
    """A DP table: rows keyed by mask tuples, no witnesses."""
    return {partition.blocks: (weight, None) for partition, weight in entries}


def test_leaf_table_examples():
    g = Graph([1, 2], [(1, 2, 1)])  # boundary 1, inner 2
    table = leaf_table(g, {2}, {1})
    assert table.weight(P((1,), {1})) == 0  # the empty subgraph survives

    g2 = Graph([1, 2, 3], [(1, 3, 1), (3, 2, 1)])  # z1=1, z2=2 through y=3
    table = leaf_table(g2, {3}, {1, 2})
    assert table.weight(P((1, 2), {1, 2})) == 2

    g3 = Graph([1, 2], [])
    table = leaf_table(g3, set(), {1, 2})
    assert P((1, 2), {1, 2}) not in table
    assert table.weight(P((1, 2), {1}, {2})) == 0


def test_leaf_table_preconditions():
    g = Graph([1, 2], [(1, 2, 1)])
    with pytest.raises(ValueError):
        leaf_table(g, {1}, {1})
    with pytest.raises(ValueError):
        leaf_table(g, {1}, set())


def test_leaf_table_represents_all_subgraphs():
    rng = random.Random(5)
    for _ in range(60):
        z_size = rng.randint(1, 3)
        y_size = rng.randint(0, 4)
        n = z_size + y_size
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        m = rng.randint(0, min(len(pairs), 9))
        g = Graph(
            range(1, n + 1),
            [(u, v, rng.randint(1, 8)) for u, v in pairs[:m]],
        )
        boundary = set(range(1, z_size + 1))
        inner = set(range(z_size + 1, n + 1))
        table = leaf_table(g, inner, boundary)
        assert len(table) <= 2 ** (z_size - 1)
        full = exhaustive_subgraph_table(g, boundary | inner, boundary)
        assert is_representative(table, full)
        for p, w in table.entries():
            edges = table.witness(p)  # the realizing subgraph's edge set
            witness = Subgraph(g, boundary.union(*edges), edges)
            assert project(witness, sorted(boundary)) == p
            assert witness.cost == w


def test_introduce_vertex_cases():
    z = frozenset({1, 2})
    child = {frozenset({1}): table_of((P((1,), {1}), 3))}
    out = introduce_vertex(child, 2, terminals=set())
    assert out[z][P((1, 2), {1}, {2}).blocks][0] == 3

    # a terminal must be used: no table without it survives
    out = introduce_vertex(child, 2, terminals={2})
    assert set(out) == {z}

    out = introduce_vertex(child, 2, terminals=set())
    assert out[frozenset({1})][P((1,), {1}).blocks][0] == 3


def test_forget_vertex_cases():
    z = frozenset({1})
    grouped = table_of((P((1, 9), {1, 9}), 4))
    child = {frozenset({1, 9}): grouped}
    out = forget_vertex(child, 9)
    assert out[z][P((1,), {1}).blocks][0] == 4

    lonely = table_of((P((1, 9), {1}, {9}), 4))
    out = forget_vertex({frozenset({1, 9}): lonely}, 9)
    assert z not in out  # singleton blocks may not be forgotten

    kept = table_of((P((1,), {1}), 2))
    out = forget_vertex({frozenset({1}): kept, frozenset({1, 9}): lonely}, 9)
    assert out[z][P((1,), {1}).blocks][0] == 2


def test_introduce_edge_cases():
    z = frozenset({1, 2})
    child = {z: table_of((P((1, 2), {1}, {2}), 0))}
    out = introduce_edge(child, (1, 2), 3)
    assert out[z][P((1, 2), {1}, {2}).blocks][0] == 0
    assert out[z][P((1, 2), {1, 2}).blocks][0] == 3

    z2 = frozenset({2})
    child = {z2: table_of((P((2,), {2}), 1))}
    out = introduce_edge(child, (1, 9), 3)
    assert out[z2][P((2,), {2}).blocks][0] == 1

    merged = table_of((P((1, 2), {1, 2}), 5))
    out = introduce_edge({z: merged}, (1, 2), 2)
    assert out[z][P((1, 2), {1, 2}).blocks][0] == 5  # re-adding is dominated


def test_join_tables_cases():
    z = frozenset({1, 2})
    left = {z: table_of((P((1, 2), {1}, {2}), 1))}
    right = {z: table_of((P((1, 2), {1, 2}), 2))}
    out = join_tables(left, right)
    assert out[z][P((1, 2), {1, 2}).blocks][0] == 3

    out = join_tables({}, right)
    assert z not in out

    single = {frozenset({1}): table_of((P((1,), {1}), 0))}
    out = join_tables(single, single)
    assert out[frozenset({1})][P((1,), {1}).blocks][0] == 0


def pipeline(instance):
    cut = minimum_multiway_cut(
        instance.graph, instance.terminals, max(0, len(instance.terminals) - 1)
    )
    dec = decompose_from_multiway_cut(instance.graph, instance.terminals, cut)
    return to_nice(instance.graph, instance.terminals, dec)


def test_solve_examples():
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    nice = pipeline(type("I", (), {"graph": g, "terminals": frozenset({1, 3})})())
    assert solve_decomposition(g, {1, 3}, nice).cost == 3
    single = pipeline(type("I", (), {"graph": g, "terminals": frozenset({2})})())
    assert solve_decomposition(g, {2}, single).cost == 0


def test_single_bag_with_leaf_part():
    # one bag holding everything, all non-terminals in the leaf set: the
    # whole instance is solved inside one leaf table
    for seed in range(25):
        inst = random_instance(seed, nmax=9, kmax=3)
        g, terms = inst.graph, inst.terminals
        from steiner.decomposition import Decomposition, validate_decomposition

        dec = Decomposition(1, {1: g.vertex_set}, {}, g.vertex_set - terms)
        assert validate_decomposition(g, terms, dec) is None
        nice = to_nice(g, terms, dec)
        res = solve_decomposition(g, terms, nice)
        assert res.cost == brute_force_steiner(g, terms).cost
        if res.feasible:
            assert res.tree.cost == res.cost


def test_solve_matches_oracle():
    for seed in range(120):
        inst = random_instance(seed, nmax=10, kmax=4)
        nice = pipeline(inst)
        res = solve_decomposition(inst.graph, inst.terminals, nice)
        assert res.cost == brute_force_steiner(inst.graph, inst.terminals).cost


def test_solve_with_fallback_cut_decomposition():
    # non-minimum cuts (all terminals but one) give fatter root bags and
    # more leaf machinery; the optimum must not change
    from steiner.cuts import default_multiway_cut

    for seed in range(40):
        inst = random_instance(seed, nmax=8, kmax=4)
        g, terms = inst.graph, inst.terminals
        cut = default_multiway_cut(g, terms)
        dec = decompose_from_multiway_cut(g, terms, cut)
        nice = to_nice(g, terms, dec)
        res = solve_decomposition(g, terms, nice)
        assert res.cost == brute_force_steiner(g, terms).cost, f"seed {seed}"


def test_table_sizes_stay_bounded():
    for seed in (2, 7, 19):
        inst = random_instance(seed, nmax=9, kmax=3)
        nice = pipeline(inst)
        tables, _ = compute_tables(inst.graph, inst.terminals, nice)
        for node, per_node in tables.items():
            bag_terms = nice.bags[node] & inst.terminals
            for z, table in per_node.items():
                assert 0 < len(table) <= 2 ** max(0, len(z) - 1)
                assert bag_terms <= z <= nice.bags[node]


def test_reduction_runs_only_above_the_rank_bound(monkeypatch):
    # the cut decompositions above never outgrow the bound; elimination
    # decompositions do, so the reduction is exercised as well as skipped
    import steiner.dp

    reduce = steiner.dp.reduce_partitions
    handed = []

    def counted(table):
        # the blocks of any key cover the positions of the table's Z
        handed.append((sum(next(iter(table))).bit_length(), len(table)))
        return reduce(table)

    monkeypatch.setattr(steiner.dp, "reduce_partitions", counted)
    for seed in range(60):
        inst = random_instance(seed, nmax=8, kmax=4)
        nice = to_nice(inst.graph, inst.terminals, elimination_decomposition(inst.graph))
        tables, _ = compute_tables(inst.graph, inst.terminals, nice)
        for per_node in tables.values():
            for z, table in per_node.items():
                assert 0 < len(table) <= 2 ** max(0, len(z) - 1)
    assert handed
    assert all(rows > 2 ** max(0, size - 1) for size, rows in handed)


def test_table_keys_are_canonical_mask_tuples():
    # no Partition constructor checks the DP's keys: each must hold
    # nonzero, pairwise-disjoint masks in ascending int order that
    # together cover exactly the positions of Z
    checked = 0
    for seed in range(40):
        inst = random_instance(seed, nmax=8, kmax=4)
        g, terms = inst.graph, inst.terminals
        for dec in (pipeline(inst), to_nice(g, terms, elimination_decomposition(g))):
            tables, _ = compute_tables(g, terms, dec)
            for per_node in tables.values():
                for z, table in per_node.items():
                    for blocks in table:
                        assert all(blocks)
                        assert list(blocks) == sorted(set(blocks))
                        union = 0
                        for m in blocks:
                            assert not union & m
                            union |= m
                        assert union == (1 << len(z)) - 1
                        checked += 1
    assert checked


def test_too_wide_decomposition_is_refused():
    from steiner.decomposition import Decomposition

    n = MAX_WIDTH + 2  # one bag of n vertices: width MAX_WIDTH + 1
    g = Graph(range(1, n + 1), [(v, v + 1, 1) for v in range(1, n)])
    terms = frozenset({1, n})
    nice = to_nice(g, terms, Decomposition(1, {1: g.vertex_set}, {}))
    with pytest.raises(ValueError, match=f"width {n - 1} exceeds the limit {MAX_WIDTH}"):
        solve_decomposition(g, terms, nice)


def test_standard_decomposition_cross_check():
    # leaf-free decompositions exercise the transfer functions alone
    for seed in range(60):
        inst = random_instance(seed, nmax=8, kmax=4)
        dec = elimination_decomposition(inst.graph)
        from steiner.decomposition import validate_decomposition

        assert validate_decomposition(inst.graph, inst.terminals, dec) is None
        nice = to_nice(inst.graph, inst.terminals, dec)
        assert not any(kind == "leaf-introduce" for kind in nice.kinds.values())
        res = solve_decomposition(inst.graph, inst.terminals, nice)
        assert res.cost == dreyfus_wagner(inst.graph, inst.terminals).cost
        assert verify_tree(inst, sorted(res.tree.edges), res.cost) is None


def test_long_path_decomposition():
    # nice-form construction and witness flattening both run one level
    # per bag along a path; neither may hit the recursion limit
    n = 1000
    g = Graph(range(1, n + 1), [(v, v + 1, 1) for v in range(1, n)])
    terms = frozenset({1, n})
    from steiner.decomposition import Decomposition

    dec = Decomposition(
        1, {i: {i, i + 1} for i in range(1, n)}, {i: [i + 1] for i in range(1, n - 1)}
    )
    res = solve_decomposition(g, terms, to_nice(g, terms, dec))
    assert res.cost == n - 1
    assert res.tree.edges == frozenset(g.edges)


def test_mixed_leaf_decompositions_match_oracle():
    # elimination-shaped trees with genuine leaf parts: vertices that
    # happen to live in a single leaf bag get promoted into the leaf set
    from steiner.decomposition import Decomposition, validate_decomposition

    exercised = 0
    for seed in range(60):
        inst = random_instance(seed, nmax=9, kmax=3)
        g, terms = inst.graph, inst.terminals
        dec = elimination_decomposition(g)
        occurrences = {}
        for n in dec.nodes:
            for v in dec.bags[n]:
                occurrences.setdefault(v, []).append(n)
        loose = {
            v
            for v, nodes in occurrences.items()
            if len(nodes) == 1 and dec.is_leaf(nodes[0]) and v not in terms
        }
        promoted = Decomposition(dec.root, dec.bags, dec.children, loose)
        assert validate_decomposition(g, terms, promoted) is None
        nice = to_nice(g, terms, promoted)
        res = solve_decomposition(g, terms, nice)
        assert res.cost == brute_force_steiner(g, terms).cost
        if loose:
            exercised += 1
    assert exercised >= 10


def test_optimum_avoiding_the_root_bag():
    # all terminals (and the optimal tree) live strictly below the root
    # bag; the answer must still be read off the lower tables
    g = Graph([1, 2, 3, 4, 5], [(1, 2, 1), (2, 5, 9), (4, 5, 2), (3, 4, 3)])
    terms = frozenset({1, 2})
    from steiner.decomposition import Decomposition, validate_decomposition

    dec = Decomposition(
        1, {1: {5}, 2: {2, 5}, 3: {1, 2}, 4: {4, 5}, 5: {3, 4}},
        {1: (2, 4), 2: (3,), 4: (5,)},
    )
    assert validate_decomposition(g, terms, dec) is None
    nice = to_nice(g, terms, dec)
    res = solve_decomposition(g, terms, nice)
    assert res.cost == 1
    assert res.tree.edges == frozenset({(1, 2)})


def test_zero_weight_edges():
    g = Graph([1, 2, 3, 4], [(1, 2, 0), (2, 3, 0), (3, 4, 5), (1, 4, 9)])
    terms = frozenset({1, 4})
    want = brute_force_steiner(g, terms).cost
    assert want == 5
    nice = pipeline(type("I", (), {"graph": g, "terminals": terms})())
    res = solve_decomposition(g, terms, nice)
    assert res.cost == want and res.tree.cost == want


def test_witness_consistency():
    for seed in range(60):
        inst = random_instance(seed, nmax=9, kmax=4)
        nice = pipeline(inst)
        res = solve_decomposition(inst.graph, inst.terminals, nice)
        if not res.feasible:
            continue
        tree = res.tree
        assert inst.terminals <= tree.vertices
        assert len(connected_components(tree)) <= 1
        assert tree.cost == res.cost
