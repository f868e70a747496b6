"""Steiner tree solving driven by a vertex multiway cut.

The solver guesses which cut vertices the optimal tree uses and how the
tree attaches to them.  Each attachment pattern -- a *connecting system*
-- is a spanning hypertree of the used cut vertices: tree edges between
them plus helper hyperedges that stand for contracted components and
record which cut subsets must be made reachable through single
components.  Fixing a pattern reduces the optimization to a
minimum-weight assignment between those subsets and component slots,
where the slot weights come from small Steiner subproblems solved with
Dreyfus-Wagner.  The components, their boundary graphs and the
terminals' distances are computed once per solve, and only the best
guess is rebuilt into a tree.
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
    edge_key,
    is_multiway_cut,
    minimum_spanning_tree,
    shortest_path,
)
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


def _hypertrees(vertices, has_edge, memo):
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
            for subsets, edges in _branches(root, (first,) + extra, has_edge, memo):
                for more_subsets, more_edges in _listed(rest, has_edge, memo):
                    yield subsets + more_subsets, edges + more_edges


def _branches(root, branch, has_edge, memo):
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
                parts = [_listed(tuple(sorted(block)), has_edge, memo) for block in blocks]
                for head in heads:
                    for chosen in product(*parts):
                        yield (
                            head[0] + tuple(x for part in chosen for x in part[0]),
                            head[1] + tuple(x for part in chosen for x in part[1]),
                        )


def _listed(vertices, has_edge, memo):
    """``_hypertrees`` of a proper subset, kept in ``memo`` for reuse."""
    hit = memo.get(vertices)
    if hit is None:
        hit = memo[vertices] = list(_hypertrees(vertices, has_edge, memo))
    return hit


@dataclass(frozen=True)
class AssignmentWeights:
    """Cost matrix between a system's subsets and (component, slot) pairs.

    Slot (p, 0) means "connect the subset through component p picking up
    its terminal"; the weight nets out the terminal's plain shortest-path
    cost and can be negative.  Slots (p, j>0) connect the subset through
    component p without claiming the terminal.
    """

    rows: tuple[frozenset[int], ...]
    slots: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[int | float, ...], ...]
    components: tuple[frozenset[int], ...]


def _cut_vertices(cut) -> frozenset[int]:
    if isinstance(cut, MultiwayCut):
        return cut.vertices
    return frozenset(cut)


class _CutInvariants:
    """What every guess of one solve shares, computed once.

    The components of ``g - cut``, one boundary graph per component, the
    terminal of each component with its distances to every vertex of
    ``g``, each base's distances to those terminals, and the minimum
    Steiner trees found inside components so far.
    """

    def __init__(self, g: Graph, terms: frozenset[int], cutset: frozenset[int]):
        self.g, self.terms, self.cutset = g, terms, cutset
        self.comps = connected_components(g.without(cutset))
        self.graphs = [boundary_graph(g, cutset, comp) for comp in self.comps]
        self.terminal = []
        for comp in self.comps:
            inside = sorted(comp & terms)
            if len(inside) > 1:
                raise ValueError("input is not a multiway cut for the terminals")
            self.terminal.append(inside[0] if inside else None)
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


def _invariants(g: Graph, terms, cutset, memo) -> _CutInvariants:
    """The solve's invariants, kept in ``memo`` when one is given."""
    if memo is None:
        return _CutInvariants(g, terms, cutset)
    found = memo.get(_CutInvariants)
    if found is None or (found.g, found.terms, found.cutset) != (g, terms, cutset):
        found = memo[_CutInvariants] = _CutInvariants(g, terms, cutset)
    return found


def build_weights(
    g: Graph, terminals, cut, base, system: ConnectingSystem, memo=None
) -> AssignmentWeights:
    """Assignment weights for one (used set, connecting system) pair.

    Components are taken with respect to the full cut; shortest paths to
    terminals are measured in the whole graph against the used set.
    Calls that share one ``memo`` dict on the same graph, terminals and
    cut compute the components, distances and component trees once.
    """
    cutset = _cut_vertices(cut)
    basev = frozenset(base)
    terms = frozenset(terminals)
    if basev != system.base:
        raise ValueError("base does not match the system")
    if not terms & cutset <= basev:
        raise ValueError("used set must contain the cut terminals")
    inv = _invariants(g, terms, cutset, memo)
    reach = inv.reach(basev)
    m = len(system.subsets)
    slots = tuple((p, j) for p in range(len(inv.comps)) for j in range(m + 1))
    matrix = []
    for subset in system.subsets:
        row = []
        for p, reached in enumerate(reach):
            if reached == INF:
                row.append(INF)
            else:
                want = subset | {inv.terminal[p]}
                row.append(inv.steiner(p, want).cost - reached)
            row.extend([inv.steiner(p, subset).cost] * m)
        matrix.append(tuple(row))
    return AssignmentWeights(
        system.subsets, slots, tuple(matrix), tuple(inv.comps)
    )


def minimum_weight_matching(weights: AssignmentWeights):
    """Minimum-weight matching saturating all subsets, or None if impossible."""
    if not weights.rows:
        return (), 0
    matrix = [list(row) for row in weights.matrix]
    solved = min_cost_assignment(matrix)
    if solved is None:
        return None
    pairs, total = solved
    return tuple((i, weights.slots[j]) for i, j in pairs), total


def reconstruct_tree(
    g: Graph, terminals, cut, base, system: ConnectingSystem, matching, memo=None
) -> SteinerResult | None:
    """Assemble a Steiner tree from a finite matching.

    Unions the base tree edges, the matched component trees and shortest
    paths for the uncovered terminals, then returns a spanning tree of
    the component containing the used set and the terminals.  Returns
    None when some terminal cannot be attached in this iteration.
    ``memo`` is shared with ``build_weights``.
    """
    cutset = _cut_vertices(cut)
    basev = frozenset(base)
    terms = frozenset(terminals)
    inv = _invariants(g, terms, cutset, memo)
    edges = set(system.base_edges)
    vertices = set(basev) | terms
    covered = set()
    for i, (p, j) in matching:
        subset = system.subsets[i]
        if j == 0:
            if inv.terminal[p] is None:
                raise ValueError("matching claims a terminal in a terminal-free component")
            want = subset | {inv.terminal[p]}
            covered.add(p)
        else:
            want = subset
        piece = inv.steiner(p, want)
        if not piece.feasible:
            raise ValueError("matching uses an infeasible slot")
        edges |= piece.tree.edges
        vertices |= piece.tree.vertices
    for p, terminal in enumerate(inv.terminal):
        if terminal is None or p in covered:
            continue
        found = shortest_path(g, basev, terminal)
        if found is None:
            return None
        path, _ = found
        edges |= path.edges
        vertices |= path.vertices
    assembled = Subgraph(g, frozenset(vertices), frozenset(edges))
    for comp in connected_components(assembled):
        if basev | terms <= comp:
            inner = Subgraph(
                g, comp, [e for e in edges if e[0] in comp and e[1] in comp]
            )
            tree = minimum_spanning_tree(inner)
            return SteinerResult(tree.cost, tree)
    return None


def solve_with_cut(g: Graph, terminals, cut) -> SteinerResult:
    """Optimal Steiner tree given a multiway cut for the terminals.

    Guesses every used subset of the cut containing its terminals and
    every connecting system on it.  A guess's value is the cost of its
    base edges, plus its matching total, plus each component terminal's
    distance to the used set: the cost of the pieces its tree would be
    rebuilt from.  That is at least the rebuilt tree's cost, which is at
    least the optimum, and the optimal guess attains the optimum.  So
    only the first guess of lowest value is rebuilt, and its tree must
    cost exactly that value.
    """
    cutset = _cut_vertices(cut)
    terms = frozenset(terminals)
    if not terms <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    if not is_multiway_cut(g, terms, cutset):
        raise ValueError("input vertex set is not a multiway cut for the terminals")
    if len(terms) <= 1:
        return SteinerResult(0, Subgraph(g, terms, frozenset()))
    if not any(terms <= comp for comp in connected_components(g)):
        return SteinerResult(INF, g.empty_subgraph())

    memo: dict = {}
    inv = _invariants(g, terms, cutset, memo)
    forced = terms & cutset
    optional = sorted(cutset - terms)
    best_value, best = INF, None
    for size in range(len(optional) + 1):
        for combo in combinations(optional, size):
            basev = forced | frozenset(combo)
            if not basev:
                continue  # with >= 2 terminals any tree must meet the cut
            reach = inv.reach(basev)
            paths = sum(
                d for d, t in zip(reach, inv.terminal) if t is not None
            )
            if paths == INF:
                continue  # some terminal cannot reach the used set
            for system in enumerate_connecting_systems(g, basev):
                weights = build_weights(g, terms, cutset, basev, system, memo)
                matched = minimum_weight_matching(weights)
                if matched is None:
                    continue
                matching, total = matched
                value = paths + total + sum(g.weight(u, v) for u, v in system.base_edges)
                if value < best_value:
                    best_value, best = value, (basev, system, matching)
    if best is None:
        return SteinerResult(INF, g.empty_subgraph())
    basev, system, matching = best
    tree = reconstruct_tree(g, terms, cutset, basev, system, matching, memo)
    if tree is None or tree.cost != best_value:
        raise AssertionError("the rebuilt tree does not cost its guess's value")
    return tree
