"""Seeded differential tests: every solver against the brute-force oracle.

Each case is a small random graph, often disconnected, with ordinary,
zero-heavy or 2^62-scale weights and 0 to 4 terminals.  All four CLI
solvers run with the witness on and independently verified; the cut
solver and the decomposition DP also run on a cut padded with a
terminal, the DP both with and without its witness.
"""

import random

from steiner.cli import SolverConfig, run, verify_tree
from steiner.connecting import solve_with_cut
from steiner.cuts import default_multiway_cut, minimum_multiway_cut
from steiner.decomposition import decompose_from_multiway_cut, to_nice
from steiner.dp import solve_decomposition
from steiner.exact import brute_force_steiner
from steiner.graph import INF, Graph
from steiner.io import Instance

from helpers import random_graph

SOLVERS = ("dw", "brute", "mwc", "kfree")
BIG = 2**62


def random_case(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, rng.randint(0, min(12, n * (n - 1) // 2)))
    style = seed % 3
    if style:
        # 1: zero-heavy weights, 2: weights near 2**62
        pick = (lambda: rng.choice((0, 0, 1, 2))) if style == 1 else (
            lambda: BIG - rng.randint(0, 3)
        )
        g = Graph(g.vertices, [(u, v, pick()) for u, v in g.edges])
    terms = frozenset(rng.sample(g.vertices, rng.randint(0, min(n, 4))))
    return Instance(g, terms, f"diff-{seed}"), rng


def assert_solved(inst, want, result):
    assert result.cost == want
    if want != INF:
        edges = sorted(result.tree.edges)
        assert verify_tree(inst, edges, want) is None


def test_all_solvers_agree_with_brute_force():
    for seed in range(300):
        inst, rng = random_case(seed)
        g, terms = inst.graph, inst.terminals
        want = brute_force_steiner(g, terms).cost
        for solver in SOLVERS:
            report = run(inst, SolverConfig(solver=solver, witness=True, verify=True))
            assert report.value == want, (seed, solver)
            assert report.status == (2 if want == INF else 0)
            if want != INF:  # the witness exists, so verify=True checked it
                assert report.edges is not None

        # a cut holding a terminal (plus a random extra vertex) is still a cut
        found = minimum_multiway_cut(g, terms, max(0, len(terms) - 1))
        cut = (found or default_multiway_cut(g, terms)).vertices
        padded = cut | {rng.choice(g.vertices)}
        if terms:
            padded |= {rng.choice(sorted(terms))}
        assert_solved(inst, want, solve_with_cut(g, terms, padded))
        nice = to_nice(g, terms, decompose_from_multiway_cut(g, terms, padded))
        assert_solved(inst, want, solve_decomposition(g, terms, nice))
