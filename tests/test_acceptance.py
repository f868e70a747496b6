"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import pathlib
import random

from steiner.cli import verify_tree
from steiner.connecting import (
    enumerate_connecting_systems,
    is_self_reachable,
    solve_with_cut,
)
from steiner.cuts import minimum_multiway_cut
from steiner.decomposition import (
    LEAF_INTRODUCE,
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
from steiner.dp import leaf_table, solve_decomposition
from steiner.exact import brute_force_steiner, dreyfus_wagner
from steiner.graph import Graph, Subgraph, connected_components
from steiner.io import Instance
from steiner.representatives import is_representative, reduce_partitions

from helpers import (
    brute_force_connecting_systems,
    elimination_decomposition,
    exhaustive_subgraph_table,
    random_graph,
    random_instance,
    random_partition_table,
)


def report(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_cross_solver_exactness():
    failures = []
    for seed in range(500):
        inst = random_instance(seed, nmax=10, mmax=20, kmax=4, wmax=10)
        g, terms = inst.graph, inst.terminals
        reference = brute_force_steiner(g, terms).cost
        costs = {"dw": dreyfus_wagner(g, terms).cost}
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        costs["mwc"] = solve_with_cut(g, terms, cut).cost
        dec = decompose_from_multiway_cut(g, terms, cut)
        nice = to_nice(g, terms, dec)
        costs["kfree"] = solve_decomposition(g, terms, nice).cost
        for solver, cost in costs.items():
            if cost != reference:
                failures.append((seed, solver, cost, reference))
    report(1, "cross-solver exactness on 500 instances", failures)


def test_criterion_2_representative_set_contract():
    rng = random.Random(2024)
    failures = []
    for trial in range(1000):
        size = 1 + trial % 5
        universe = tuple(range(1, size + 1))
        table = random_partition_table(rng, universe, rng.randint(0, 30))
        reduced = reduce_partitions(table)
        if len(reduced) > 2 ** (size - 1):
            failures.append((trial, "size", len(reduced)))
        elif not is_representative(reduced, table):
            failures.append((trial, "representation"))
    report(2, "representative sets over 1000 random tables", failures)


def test_criterion_3_leaf_table_contract():
    rng = random.Random(4096)
    failures = []
    for trial in range(200):
        z_size = rng.randint(1, 3)
        y_size = rng.randint(0, 4)
        n = z_size + y_size
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        g = Graph(
            range(1, n + 1),
            [(u, v, rng.randint(1, 9)) for u, v in pairs[: rng.randint(0, min(10, len(pairs)))]],
        )
        boundary = set(range(1, z_size + 1))
        inner = set(range(z_size + 1, n + 1))
        table = leaf_table(g, inner, boundary)
        if len(table) > 2 ** (z_size - 1):
            failures.append((trial, "size", len(table)))
            continue
        full = exhaustive_subgraph_table(g, boundary | inner, boundary)
        if not is_representative(table, full):
            failures.append((trial, "representation"))
    report(3, "leaf tables represent all subgraphs (200 graphs)", failures)


def test_criterion_4_connecting_system_census():
    failures = []
    for size in (1, 2, 3, 4):
        base = set(range(1, size + 1))
        complete = Graph(
            range(1, size + 1), [(u, v, 1) for u in base for v in base if u < v]
        )
        edgeless = Graph(range(1, size + 1), [])
        for tag, g in (("complete", complete), ("edgeless", edgeless)):
            ours = list(enumerate_connecting_systems(g, base))
            keys = {(s.base_edges, frozenset(s.subsets)) for s in ours}
            expected = brute_force_connecting_systems(g, base)
            if len(ours) != len(keys) or keys != expected:
                failures.append((size, tag, len(ours), len(expected)))
            if any(len(s.subsets) > size - 1 for s in ours):
                failures.append((size, tag, "subset bound"))
    report(4, "connecting-system census for |S| in 1..4", failures)


def test_criterion_5_self_reachability_composition():
    rng = random.Random(555)
    failures = []
    seen = 0
    attempts = 0
    while seen < 200 and attempts < 20000:
        attempts += 1
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.randint(n - 1, min(14, n * (n - 1) // 2)))
        base = frozenset(rng.sample(sorted(g.vertex_set), rng.randint(2, min(4, n))))
        systems = list(enumerate_connecting_systems(g, base))
        system = systems[rng.randrange(len(systems))]
        h = Subgraph(g, g.vertex_set, [e for e in g.edges if rng.random() < 0.55])
        if not all(is_self_reachable(h, s) for s in system.subsets):
            continue
        seen += 1
        merged = Subgraph(g, h.vertices | base, h.edges | system.base_edges)
        if not is_self_reachable(merged, base):
            failures.append((attempts, sorted(base)))
    if seen < 200:
        failures.append(("insufficient samples", seen))
    report(5, "base stays reachable under system edges (200 pairs)", failures)


def test_criterion_6_decomposition_structure():
    failures = []
    for seed in range(200):
        inst = random_instance(seed, nmax=10, kmax=4)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        dec = decompose_from_multiway_cut(g, terms, cut)
        if validate_decomposition(g, terms, dec) is not None:
            failures.append((seed, "validate"))
            continue
        if width(dec) > len(cut.vertices):
            failures.append((seed, "width", width(dec)))
            continue
        nice = to_nice(g, terms, dec)
        if validate_nice(g, terms, nice) is not None:
            failures.append((seed, "nice"))
            continue
        if width(nice) != width(dec):
            failures.append((seed, "nice width"))
            continue
        if set(nice.edge_assignment) != set(g.edges):
            failures.append((seed, "edge assignment"))
    for seed in range(200):
        inst = random_instance(seed, nmax=8, kmax=4)
        dec = elimination_decomposition(inst.graph)
        if validate_decomposition(inst.graph, inst.terminals, dec) is not None:
            failures.append((seed, "elimination validate"))
            continue
        nice = to_nice(inst.graph, inst.terminals, dec)
        if any(kind == LEAF_INTRODUCE for kind in nice.kinds.values()):
            failures.append((seed, "unexpected leaf-introduce"))
            continue
        got = solve_decomposition(inst.graph, inst.terminals, nice).cost
        want = dreyfus_wagner(inst.graph, inst.terminals).cost
        if got != want:
            failures.append((seed, "leaf-free solve", got, want))
    report(6, "decomposition structure and leaf-free cross-check", failures)


def test_criterion_7_gadget_reduction():
    failures = []
    for seed in range(200):
        inst = random_instance(seed, nmax=10, kmax=4)
        g, terms = inst.graph, inst.terminals
        gadget, gm = terminal_gadget_graph(g, terms)
        tris = enumerate_triangles(gadget)
        if len(tris) != len(terms):
            failures.append((seed, "triangle count", len(tris)))
            continue
        for tri in tris:
            owners = [v for v in tri if v in gm.terminal_copies]
            if len(owners) != 1 or set(tri) - {owners[0]} != set(
                gm.terminal_copies[owners[0]]
            ):
                failures.append((seed, "triangle shape", tri))
                break
    for seed in range(80):
        inst = random_instance(seed, nmax=8, kmax=3)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        dec = decompose_from_multiway_cut(g, terms, cut)
        lifted = gadget_decomposition(g, terms, dec)
        gadget, _ = terminal_gadget_graph(g, terms)
        if validate_triangle_decomposition(gadget, lifted) is not None:
            failures.append((seed, "lift validate"))
            continue
        back = from_gadget_decomposition(g, terms, lifted)
        if validate_decomposition(g, terms, back) is not None:
            failures.append((seed, "conversion validate"))
        elif width(back) > width(lifted):
            failures.append((seed, "conversion width", width(back), width(lifted)))
    report(7, "triangle-gadget reduction round trip", failures)


def test_criterion_8_witness_integrity():
    failures = []
    for seed in range(120):
        inst = random_instance(seed, nmax=10, kmax=4)
        g, terms = inst.graph, inst.terminals
        cut = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        nice = to_nice(g, terms, decompose_from_multiway_cut(g, terms, cut))
        instance = Instance(g, terms, inst.name)
        results = {
            "dw": dreyfus_wagner(g, terms),
            "brute": brute_force_steiner(g, terms),
            "mwc": solve_with_cut(g, terms, cut),
            "kfree": solve_decomposition(g, terms, nice),
        }
        for solver, res in results.items():
            if not res.feasible:
                continue
            problem = verify_tree(instance, sorted(res.tree.edges), res.cost)
            if problem is not None:
                failures.append((seed, solver, problem))
            if len(connected_components(res.tree)) > 1:
                failures.append((seed, solver, "disconnected"))
    report(8, "witness integrity across all solvers", failures)


def test_criterion_9_declared_non_goals_documented():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    failures = []
    for marker in (
        "asymptotic running-time guarantees",
        "polynomial-space",
        "5-approximation",
    ):
        if marker not in text:
            failures.append(marker)
    report(9, "non-reproduced guarantees documented", failures)
