"""Steiner tree solving driven by a vertex multiway cut.

The solver guesses which cut vertices the optimal tree uses and how the
tree attaches to them.  Each attachment pattern -- a *connecting system*
-- is a spanning hypertree of the used cut vertices: tree edges between
them plus helper hyperedges that stand for contracted components and
record which cut subsets must be made reachable through single
components.  Fixing a pattern reduces the optimization to a
minimum-cost assignment: ``build_weights`` gives a matrix with one row
per helper subset and m+1 columns per component (m helper subsets),
column ``p*(m+1) + j`` being slot j of component p, and its entries
come from small Steiner subproblems solved with Dreyfus-Wagner.  One
``CutInvariants`` per solve holds the components, their boundary
graphs and the terminals' distances, and only the best guess is
rebuilt into a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .cuts import MultiwayCut
from .exact import SteinerResult, _dijkstra, dreyfus_wagner
from .graph import (
    INF,
    Graph,
    Subgraph,
    boundary_graph,
    connected_components,
    cut_components,
    edge_key,
    shortest_path,
    spanning_tree,
)
from .graph import is_multiway_cut  # noqa: F401  kept: bench/layers.py rebinds it
from .matching import min_cost_assignment


@dataclass(frozen=True)
class ConnectingSystem:
    """How a tree can attach to a base vertex set.

    ``subsets`` are the neighborhoods of the contracted helper vertices
    (each a subset of the base of size >= 2), and ``base_edges`` the tree
    edges running directly between base vertices; those must be actual
    graph edges.
    """

    base: frozenset[int]
    subsets: tuple[frozenset[int], ...]
    base_edges: frozenset[tuple[int, int]]


def is_self_reachable(h: Subgraph, vertices) -> bool:
    """True iff all of ``vertices`` lies inside one component of ``h``."""
    vs = frozenset(vertices)
    if not vs:
        return True
    if not vs <= h.vertices:
        return False
    return any(vs <= comp for comp in connected_components(h))


def enumerate_connecting_systems(g: Graph, base):
    """Yield every connecting system for ``base`` exactly once.

    The systems are the spanning hypertrees of the base: sets of
    hyperedges of size >= 2 that connect it without a cycle.  A hyperedge
    of size 2 is either a tree edge between base vertices, offered only
    when it is a graph edge, or a helper; every larger one is a helper.
    """
    base_sorted = sorted(set(base))
    if not base_sorted:
        raise ValueError("base must be non-empty")
    for v in base_sorted:
        if v not in g:
            raise ValueError(f"base vertex {v} not in graph")
    basev = frozenset(base_sorted)
    for subsets, base_edges in _hypertrees(tuple(base_sorted), g.has_edge, {}):
        yield ConnectingSystem(
            basev, tuple(sorted(subsets, key=sorted)), frozenset(base_edges)
        )


def _hypertrees(vertices, has_edge, cache):
    """Spanning hypertrees of the sorted tuple ``vertices``, each once,
    as (helper hyperedges, base edges).

    The smallest vertex r is the root, and the hyperedges at r split a
    tree into branches.  The branch holding the second smallest vertex
    is fixed first, by its vertex set and then by its shape; the other
    branches form any hypertree on the vertices left over.
    """
    if len(vertices) == 1:
        yield (), ()
        return
    root, first, *others = vertices
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            rest = (root,) + tuple(v for v in others if v not in extra)
            for subsets, edges in _branches(root, (first,) + extra, has_edge, cache):
                for more_subsets, more_edges in _listed(rest, has_edge, cache):
                    yield subsets + more_subsets, edges + more_edges


def _branches(root, branch, has_edge, cache):
    """Hypertrees on ``root`` plus ``branch`` in which ``root`` lies in
    exactly one hyperedge.

    That hyperedge meets ``branch`` in ``top``; every other branch vertex
    hangs below exactly one vertex of ``top``, and the block under each
    top vertex carries any hypertree of its own.
    """
    for size in range(1, len(branch) + 1):
        for top in combinations(branch, size):
            heads = [((frozenset((root,) + top),), ())]
            if size == 1 and has_edge(root, top[0]):
                heads.append(((), (edge_key(root, top[0]),)))
            below = [v for v in branch if v not in top]
            for owners in product(top, repeat=len(below)):
                blocks = [
                    (u,) + tuple(v for v, o in zip(below, owners) if o == u)
                    for u in top
                ]
                parts = [_listed(tuple(sorted(block)), has_edge, cache) for block in blocks]
                for head in heads:
                    for chosen in product(*parts):
                        yield (
                            head[0] + tuple(x for part in chosen for x in part[0]),
                            head[1] + tuple(x for part in chosen for x in part[1]),
                        )


def _listed(vertices, has_edge, cache):
    """``_hypertrees`` of a proper subset, kept in ``cache`` for reuse."""
    hit = cache.get(vertices)
    if hit is None:
        hit = cache[vertices] = list(_hypertrees(vertices, has_edge, cache))
    return hit


class CutInvariants:
    """What every guess of one solve shares, computed once.

    The components of ``g - cutset`` (one ``cut_components`` pass, which
    also checks the cut), one boundary graph per component, the terminal
    of each component with its distances to every vertex of ``g``, each
    base's distances to those terminals, and the minimum Steiner trees
    found inside components so far.  Raises ValueError when ``cutset`` is
    not a multiway cut for the terminals.
    """

    def __init__(self, g: Graph, terminals, cutset):
        self.g = g
        terms = frozenset(terminals)
        self.comps = cut_components(g, terms, cutset)
        if self.comps is None:
            raise ValueError("input vertex set is not a multiway cut for the terminals")
        self.graphs = [boundary_graph(g, cutset, comp) for comp in self.comps]
        self.terminal = [min(comp & terms, default=None) for comp in self.comps]
        self._dists = [None if t is None else _dijkstra(g, t)[0] for t in self.terminal]
        self._reach = {}
        self._trees = {}

    def reach(self, basev: frozenset[int]) -> tuple[int | float, ...]:
        """Per component, its terminal's distance to the nearest base
        vertex; INF when it has no terminal or cannot reach the base."""
        hit = self._reach.get(basev)
        if hit is None:
            hit = self._reach[basev] = tuple(
                INF if dist is None else min(dist.get(v, INF) for v in basev)
                for dist in self._dists
            )
        return hit

    def steiner(self, p: int, want: frozenset[int]) -> SteinerResult:
        """Minimum Steiner tree for ``want`` inside component p's boundary graph."""
        key = (p, want)
        hit = self._trees.get(key)
        if hit is None:
            gp = self.graphs[p]
            local = dreyfus_wagner(gp, want) if want <= gp.vertex_set else None
            if local is not None and local.feasible:
                tree = Subgraph(self.g, local.tree.vertices, local.tree.edges)
                hit = SteinerResult(local.cost, tree)
            else:
                hit = SteinerResult(INF, self.g.empty_subgraph())
            self._trees[key] = hit
        return hit


def build_weights(inv: CutInvariants, system: ConnectingSystem) -> list[list[int | float]]:
    """Assignment matrix of one connecting system, for ``min_cost_assignment``.

    Row i is ``system.subsets[i]``.  With ``m = len(system.subsets)``,
    column ``p*(m+1) + j`` is slot (p, j) of component ``inv.comps[p]``.
    Slot (p, 0) connects the subset through component p picking up its
    terminal; the weight nets out the terminal's distance to the base and
    can be negative.  Slots (p, j>0) connect the subset through
    component p without claiming the terminal.
    """
    reach = inv.reach(system.base)
    m = len(system.subsets)
    matrix = []
    for subset in system.subsets:
        row = []
        for p, reached in enumerate(reach):
            if reached == INF:
                row.append(INF)
            else:
                row.append(inv.steiner(p, subset | {inv.terminal[p]}).cost - reached)
            row.extend([inv.steiner(p, subset).cost] * m)
        matrix.append(row)
    return matrix


def reconstruct_tree(inv: CutInvariants, system: ConnectingSystem, pairs) -> SteinerResult | None:
    """Assemble a Steiner tree from a finite assignment.

    ``pairs`` are ``min_cost_assignment``'s (row, column) pairs on
    ``build_weights(inv, system)``.  Unions the base tree edges, the
    matched component trees and shortest paths for the uncovered
    terminals, then returns a spanning tree of the component containing
    the base and the terminals.  Returns None when some terminal cannot
    be attached.
    """
    g, basev = inv.g, system.base
    # the cut's terminals lie in the base, every other one in its component
    ends = basev | {t for t in inv.terminal if t is not None}
    m = len(system.subsets)
    edges = set(system.base_edges)
    covered = set()
    for i, col in pairs:
        p, j = divmod(col, m + 1)
        want = system.subsets[i]
        if j == 0:
            want = want | {inv.terminal[p]}
            covered.add(p)
        piece = inv.steiner(p, want)
        if not piece.feasible:
            raise ValueError("assignment uses an infeasible slot")
        edges |= piece.tree.edges
    for p, terminal in enumerate(inv.terminal):
        if terminal is None or p in covered:
            continue
        found = shortest_path(g, basev, terminal)
        if found is None:
            return None
        path, _ = found
        edges |= path.edges
    tree = spanning_tree(g, edges, ends)
    return None if tree is None else SteinerResult(tree.cost, tree)


def solve_with_cut(g: Graph, terminals, cut) -> SteinerResult:
    """Optimal Steiner tree given a multiway cut for the terminals.

    Guesses every used subset of the cut containing its terminals and
    every connecting system on it.  A guess's value is the cost of its
    base edges, plus the minimum total of an assignment in its
    ``build_weights`` matrix (every subset to its own component slot),
    plus each component terminal's distance to the used set: the cost of
    the pieces its tree would be rebuilt from.  That is at least the
    rebuilt tree's cost, which is at least the optimum, and the optimal
    guess attains the optimum.  So only the first guess of lowest value
    is rebuilt, and its tree must cost exactly that value.
    """
    cutset = cut.vertices if isinstance(cut, MultiwayCut) else frozenset(cut)
    terms = frozenset(terminals)
    if not terms <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    inv = CutInvariants(g, terms, cutset)
    if len(terms) <= 1:
        return SteinerResult(0, Subgraph(g, terms, frozenset()))
    if not any(terms <= comp for comp in connected_components(g)):
        return SteinerResult(INF, g.empty_subgraph())

    forced = terms & cutset
    optional = sorted(cutset - terms)
    best_value, best = INF, None
    for size in range(len(optional) + 1):
        for combo in combinations(optional, size):
            basev = forced | frozenset(combo)
            if not basev:
                continue  # with >= 2 terminals any tree must meet the cut
            paths = sum(
                d for d, t in zip(inv.reach(basev), inv.terminal) if t is not None
            )
            if paths == INF:
                continue  # some terminal cannot reach the used set
            for system in enumerate_connecting_systems(g, basev):
                solved = min_cost_assignment(build_weights(inv, system))
                if solved is None:
                    continue
                pairs, total = solved
                value = paths + total + sum(g.weight(u, v) for u, v in system.base_edges)
                if value < best_value:
                    best_value, best = value, (system, pairs)
    if best is None:
        return SteinerResult(INF, g.empty_subgraph())
    tree = reconstruct_tree(inv, *best)
    if tree is None or tree.cost != best_value:
        raise AssertionError("the rebuilt tree does not cost its guess's value")
    return tree
