import random
from itertools import combinations

import pytest

import steiner.connecting
from steiner.connecting import (
    CutInvariants,
    build_weights,
    enumerate_connecting_systems,
    is_self_reachable,
    reconstruct_tree,
    solve_with_cut,
)
from steiner.cuts import minimum_multiway_cut
from steiner.exact import brute_force_steiner, dreyfus_wagner
from steiner.graph import INF, Graph, Subgraph, is_multiway_cut, shortest_path
from steiner.matching import min_cost_assignment

from helpers import (
    brute_force_connecting_systems,
    hypertree_connecting_systems,
    random_graph,
    random_instance,
)


def test_self_reachable_examples():
    g = Graph([1, 2, 3], [(1, 2, 1)])
    assert is_self_reachable(Subgraph(g, {1, 2}, [(1, 2)]), {1, 2})
    assert not is_self_reachable(Subgraph(g, {1, 2}, []), {1, 2})
    assert is_self_reachable(Subgraph(g, {1}, []), {1})
    assert is_self_reachable(Subgraph(g, {1}, []), set())
    assert not is_self_reachable(Subgraph(g, {1}, []), {1, 3})  # 3 absent


def test_enumeration_small_bases():
    g = Graph([1, 2], [(1, 2, 1)])
    assert len(list(enumerate_connecting_systems(g, {1}))) == 1
    systems = list(enumerate_connecting_systems(g, {1, 2}))
    assert len(systems) == 2
    keys = {(s.base_edges, s.subsets) for s in systems}
    assert (frozenset({(1, 2)}), ()) in keys
    assert (frozenset(), (frozenset({1, 2}),)) in keys

    bare = Graph([1, 2], [])
    systems = list(enumerate_connecting_systems(bare, {1, 2}))
    assert len(systems) == 1 and systems[0].subsets == (frozenset({1, 2}),)


def test_enumeration_census_and_bound():
    for size in (1, 2, 3):
        base = set(range(1, size + 1))
        complete = Graph(
            range(1, size + 1),
            [(u, v, 1) for u in base for v in base if u < v],
        )
        empty = Graph(range(1, size + 1), [])
        for g in (complete, empty):
            ours = list(enumerate_connecting_systems(g, base))
            expected = brute_force_connecting_systems(g, base)
            assert len(ours) == len(expected)
            assert {(s.base_edges, frozenset(s.subsets)) for s in ours} == expected
            for s in ours:
                assert len(s.subsets) <= size - 1


def test_self_reachability_composition():
    # once every subset is internally reachable, the base tree connects the base
    rng = random.Random(17)
    seen = 0
    while seen < 200:
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.randint(n, min(12, n * (n - 1) // 2)))
        base = frozenset(rng.sample(sorted(g.vertex_set), rng.randint(2, 3)))
        systems = list(enumerate_connecting_systems(g, base))
        system = rng.choice(systems)
        chosen = [e for e in g.edges if rng.random() < 0.55]
        h = Subgraph(g, g.vertex_set, chosen)
        if not all(is_self_reachable(h, s) for s in system.subsets):
            continue
        seen += 1
        merged = Subgraph(g, h.vertices | base, h.edges | system.base_edges)
        assert is_self_reachable(merged, base)


def by_slot(inv, system, row):
    """Row ``row`` of the system's matrix keyed by (component, slot)."""
    m = len(system.subsets)
    return {divmod(col, m + 1): w for col, w in enumerate(build_weights(inv, system)[row])}


def test_build_weights_examples():
    # path 1-2-3 with cut {2}: component {1} holds terminal 1, component {3} none
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    inv = CutInvariants(g, {1}, {2})
    system = next(iter(enumerate_connecting_systems(g, {2})))
    assert build_weights(inv, system) == []  # single-vertex base has no subsets
    assert inv.comps == [frozenset({1}), frozenset({3})]
    assert inv.terminal == [1, None]

    # two-vertex base: subset {1, 3} reachable only through component {2}
    g2 = Graph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (1, 4, 5)])
    base2 = frozenset({1, 3})
    systems = [
        s for s in enumerate_connecting_systems(g2, base2) if s.subsets
    ]
    system = systems[0]
    inv = CutInvariants(g2, {4}, {1, 3})
    weights = by_slot(inv, system, 0)
    assert len(build_weights(inv, system)[0]) == len(inv.comps) * 2
    # component {2} has no terminal: slot (p,0) infinite, slot (p,1) = tree cost
    comp_two = inv.comps.index(frozenset({2}))
    comp_four = inv.comps.index(frozenset({4}))
    assert weights[(comp_two, 0)] == INF
    assert weights[(comp_two, 1)] == 2
    # subset {1,3} cannot be connected inside component {4}
    assert weights[(comp_four, 1)] == INF
    # terminal 4 sits in component {4}: net weight = tree cost - path cost
    assert weights[(comp_four, 0)] == INF  # {1,3,4} not connectable there


def test_negative_weight_slot():
    # picking up the terminal while connecting the subset can be cheaper
    # than the plain shortest path it replaces
    g = Graph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (1, 3, 9), (2, 4, 7)])
    terms = frozenset({2})
    base = frozenset({1, 3})
    systems = [s for s in enumerate_connecting_systems(g, base) if s.subsets]
    inv = CutInvariants(g, terms, {1, 3})
    weights = by_slot(inv, systems[0], 0)
    comp = inv.comps.index(frozenset({2, 4}))
    sp = shortest_path(g, base, 2)[1]
    assert weights[(comp, 0)] == 2 - sp  # tree 1-2-3 costs 2, path costs 1


def test_weights_match_brute_force_components():
    # derived check: every finite slot weight equals an oracle Steiner cost
    # inside the component graph, net of the terminal's shortest path
    rng = random.Random(41)
    checked = 0
    for seed in range(80):
        inst = random_instance(seed, nmax=8, kmax=3)
        g, terms = inst.graph, inst.terminals
        if len(terms) < 2:
            continue
        cut = minimum_multiway_cut(g, terms, len(terms) - 1)
        base = (terms & cut.vertices) | cut.vertices
        if not base:
            continue
        from steiner.graph import component_graph, connected_components

        comps = connected_components(g, cut.vertices)
        inv = CutInvariants(g, terms, cut.vertices)
        for system in enumerate_connecting_systems(g, frozenset(base)):
            if not system.subsets:
                continue
            for i, subset in enumerate(system.subsets):
                for (p, j), value in by_slot(inv, system, i).items():
                    if value == INF:
                        continue
                    gp = component_graph(g, cut.vertices, p)
                    if j == 0:
                        t_p = sorted(comps[p] & terms)[0]
                        oracle = brute_force_steiner(gp, subset | {t_p}).cost
                        sp = shortest_path(g, base, t_p)[1]
                        assert value == oracle - sp
                    else:
                        assert value == brute_force_steiner(gp, subset).cost
                    checked += 1
            break  # one system per instance keeps this quick
    assert checked >= 20


def test_matching_wrapper():
    g2 = Graph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (1, 4, 5)])
    base2 = frozenset({1, 3})
    system = [s for s in enumerate_connecting_systems(g2, base2) if s.subsets][0]
    inv = CutInvariants(g2, {4}, {1, 3})
    pairs, total = min_cost_assignment(build_weights(inv, system))
    assert total == 2 and len(pairs) == 1
    row, col = pairs[0]
    assert row == 0 and divmod(col, 2) == (inv.comps.index(frozenset({2})), 1)


def test_reconstruct_examples():
    star = Graph([1, 2, 3, 4], [(4, 1, 1), (4, 2, 1), (4, 3, 1)])
    terms = frozenset({1, 2, 3})
    base = frozenset({4})
    system = next(iter(enumerate_connecting_systems(star, base)))
    res = reconstruct_tree(CutInvariants(star, terms, {4}), system, ())
    assert res.cost == 3 == brute_force_steiner(star, terms).cost

    path = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    system = next(iter(enumerate_connecting_systems(path, frozenset({2}))))
    res = reconstruct_tree(CutInvariants(path, {1, 3}, {2}), system, ())
    assert res.cost == 3


def test_reconstruction_cost_bound():
    rng = random.Random(31)
    checked = 0
    for seed in range(200):
        if checked >= 60:
            break
        inst = random_instance(seed, nmax=8, kmax=3)
        g, terms = inst.graph, inst.terminals
        if len(terms) < 2:
            continue
        cut = minimum_multiway_cut(g, terms, len(terms))
        forced = terms & cut.vertices
        spare = sorted(cut.vertices - terms)
        base = forced | frozenset(
            v for v in spare if rng.random() < 0.7
        )
        if not base:
            base = frozenset([sorted(cut.vertices)[0]]) if cut.vertices else None
        if not base:
            continue
        inv = CutInvariants(g, terms, cut.vertices)
        for system in enumerate_connecting_systems(g, base):
            solved = min_cost_assignment(build_weights(inv, system))
            if solved is None:
                continue
            pairs, total = solved
            res = reconstruct_tree(inv, system, pairs)
            if res is None:
                continue
            base_cost = sum(g.weight(u, v) for u, v in system.base_edges)
            paths = 0
            feasible = True
            for t in sorted(terms):
                sp = shortest_path(g, base, t)
                if sp is None:
                    feasible = False
                    break
                paths += sp[1]
            if not feasible:
                continue
            assert res.cost <= total + base_cost + paths
            checked += 1
    assert checked >= 60


def test_solve_with_cut_oracle():
    for seed in range(120):
        inst = random_instance(seed, nmax=10, kmax=4)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        res = solve_with_cut(g, terms, cut)
        assert res.cost == brute_force_steiner(g, terms).cost, f"seed {seed}"
        if res.feasible and len(terms) > 1:
            assert terms <= res.tree.vertices
            assert res.tree.cost == res.cost


def test_solve_with_arbitrary_valid_cuts():
    # any valid cut must give the optimum, including oversized cuts and
    # cuts containing terminals
    from steiner.cuts import default_multiway_cut
    from steiner.graph import is_multiway_cut

    rng = random.Random(8)
    for seed in range(60):
        inst = random_instance(seed, nmax=8, kmax=4)
        g, terms = inst.graph, inst.terminals
        want = brute_force_steiner(g, terms).cost
        fallback = default_multiway_cut(g, terms)
        assert solve_with_cut(g, terms, fallback).cost == want, f"seed {seed}"
        base = minimum_multiway_cut(g, terms, max(0, len(terms) - 1)).vertices
        padded = base | {rng.choice(sorted(g.vertex_set))}
        assert is_multiway_cut(g, terms, padded)
        assert solve_with_cut(g, terms, padded).cost == want, f"seed {seed}"


def test_solve_with_cut_edge_cases():
    g = Graph([1, 2, 3], [(1, 2, 1), (2, 3, 2)])
    assert solve_with_cut(g, {2}, set()).cost == 0
    split = Graph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)])
    assert solve_with_cut(split, {1, 3}, set()).cost == INF
    with pytest.raises(ValueError):
        solve_with_cut(g, {1, 3}, set())  # not a cut


def test_enumeration_counts_on_complete_bases():
    # spanning hypertrees of a complete base, each size-2 hyperedge counted
    # twice (graph edge or helper): 1, 2, 13, 153, 2656, 61393
    for size, count in ((1, 1), (2, 2), (3, 13), (4, 153), (5, 2656), (6, 61393)):
        base = range(1, size + 1)
        complete = Graph(base, [(u, v, 1) for u, v in combinations(base, 2)])
        assert sum(1 for _ in enumerate_connecting_systems(complete, base)) == count


def test_hypertree_oracle_matches_pruefer_oracle():
    # the two independent census oracles agree on random graphs, b = 1..4
    rng = random.Random(404)
    for b in (1, 2, 3, 4):
        for _ in range(8):
            g = random_graph(rng, b, rng.randint(0, b * (b - 1) // 2))
            base = range(1, b + 1)
            assert hypertree_connecting_systems(g, base) == (
                brute_force_connecting_systems(g, base)
            )


def test_enumeration_census_at_five():
    # b=5 against the rank-sum oracle, on a graph with about half of the
    # base edges (the Pruefer oracle would decode 9^7 sequences here)
    rng = random.Random(5)
    pairs = list(combinations(range(1, 6), 2))
    half = Graph(range(1, 6), [(u, v, 1) for u, v in rng.sample(pairs, 5)])
    ours = [
        (s.base_edges, frozenset(s.subsets))
        for s in enumerate_connecting_systems(half, range(1, 6))
    ]
    assert len(ours) == len(set(ours))
    assert set(ours) == hypertree_connecting_systems(half, range(1, 6))


def test_solve_with_cut_planted_five_cut():
    # a planted cut of 5 vertices with six components of five, one terminal each
    rng = random.Random(55)
    cut = list(range(1, 6))
    edges, terms = [], set()
    for c in range(6):
        comp = list(range(6 + 5 * c, 11 + 5 * c))
        for i in range(1, 5):
            edges.append((comp[i], rng.choice(comp[:i]), rng.randint(1, 20)))
        edges.append((*rng.sample(comp, 2), rng.randint(1, 20)))
        for x in rng.sample(cut, rng.randint(2, 5)):
            edges.append((x, rng.choice(comp), rng.randint(1, 20)))
        terms.add(rng.choice(comp))
    edges += [(1, 2, 3), (3, 4, 5)]
    g = Graph(range(1, 36), edges)
    assert is_multiway_cut(g, terms, cut)
    res = solve_with_cut(g, terms, cut)
    assert res.cost == dreyfus_wagner(g, terms).cost
    assert terms <= res.tree.vertices and res.tree.is_connected()
    assert res.tree.cost == res.cost


def test_solve_with_cut_does_per_solve_work_once(monkeypatch):
    # one CutInvariants per solve, one matrix per system, one rebuild
    calls = {}

    def counted(name):
        original = getattr(steiner.connecting, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(steiner.connecting, name, wrapper)

    for name in ("CutInvariants", "build_weights", "reconstruct_tree"):
        counted(name)
    original_enumerate = steiner.connecting.enumerate_connecting_systems

    def enumerate_counted(g, base):
        for system in original_enumerate(g, base):
            calls["systems"] = calls.get("systems", 0) + 1
            yield system

    monkeypatch.setattr(
        steiner.connecting, "enumerate_connecting_systems", enumerate_counted
    )
    # three components of three behind a planted cut {1, 2, 3}
    rng = random.Random(7)
    cut = [1, 2, 3]
    edges, terms = [(1, 2, 4)], {3}
    for c in range(3):
        comp = [4 + 3 * c, 5 + 3 * c, 6 + 3 * c]
        edges += [(comp[0], comp[1], rng.randint(1, 9)), (comp[1], comp[2], rng.randint(1, 9))]
        for x in cut:
            edges.append((x, rng.choice(comp), rng.randint(1, 9)))
        terms.add(comp[2])
    g = Graph(range(1, 13), edges)
    assert is_multiway_cut(g, terms, cut)
    res = solve_with_cut(g, terms, cut)
    assert res.cost == dreyfus_wagner(g, terms).cost
    assert calls["CutInvariants"] == 1
    assert calls["systems"] > 1
    assert calls["build_weights"] == calls["systems"]
    assert calls["reconstruct_tree"] == 1
