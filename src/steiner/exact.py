"""Baseline exact Steiner tree algorithms.

``dreyfus_wagner`` is the classical 3^|K| dynamic program and serves both
as a standalone solver and as the subroutine the other solvers call on
small terminal sets.  ``brute_force_steiner`` is an independent oracle
used by the test harness; it shares no code path with the DP.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import (
    INF,
    Graph,
    Subgraph,
    connected_components,
    edge_key,
    minimum_spanning_tree,
)


@dataclass(frozen=True)
class SteinerResult:
    """Cost and witness tree of a Steiner computation.

    Every solver returns the tree.  ``cost`` is INF (and the tree empty)
    when the terminals cannot be connected; otherwise the tree is
    connected, acyclic, spans the terminals and its edge weights sum to
    ``cost``.
    """

    cost: int | float
    tree: Subgraph

    @property
    def feasible(self) -> bool:
        return self.cost != INF


def _dijkstra(g: Graph, source: int):
    """Distances and shortest-path parents from one source.

    Strict-improvement updates plus the (dist, vertex) heap order make
    the parent assignment deterministic.
    """
    dist = {source: 0}
    parent = {source: None}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        for u in g.neighbors(v):
            nd = d + g.weight(v, u)
            if nd < dist.get(u, INF):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, parent


def dreyfus_wagner(g: Graph, terminals, limit: int = 20) -> SteinerResult:
    """Minimum-cost Steiner tree via the Dreyfus-Wagner dynamic program.

    Table D[T][v] holds the optimum for terminal subset T plus extra
    vertex v; subsets are processed by increasing popcount, combining a
    split over proper subsets with a shortest-path relaxation.  The
    witness tree is rebuilt from backpointers.
    """
    terms = sorted(set(terminals))
    for t in terms:
        if t not in g:
            raise ValueError(f"terminal {t} not in graph")
    if len(terms) > limit:
        raise ValueError(f"terminal set larger than the configured limit ({limit})")
    if len(terms) <= 1:
        return SteinerResult(0, Subgraph(g, frozenset(terms), frozenset()))

    root = terms[0]
    others = terms[1:]
    t = len(others)
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)

    base_parent = []
    table: list[list] = [None] * (1 << t)
    back: list[list] = [None] * (1 << t)
    for i, s in enumerate(others):
        dist, parent = _dijkstra(g, s)
        base_parent.append(parent)
        row = [dist.get(v, INF) for v in verts]
        table[1 << i] = row
        back[1 << i] = [("path", i) if row[j] != INF else None for j in range(n)]

    masks = sorted(range(1, 1 << t), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        if mask & (mask - 1) == 0:
            continue
        cur = [INF] * n
        bp: list = [None] * n
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # canonical halving: keep the lowest terminal on one side
                comp = mask ^ sub
                ts, tc = table[sub], table[comp]
                for j in range(n):
                    c = ts[j] + tc[j]
                    if c < cur[j]:
                        cur[j] = c
                        bp[j] = ("split", sub)
            sub = (sub - 1) & mask
        heap = [(c, verts[j]) for j, c in enumerate(cur) if c != INF]
        heapq.heapify(heap)
        while heap:
            c, v = heapq.heappop(heap)
            jv = idx[v]
            if c > cur[jv]:
                continue
            for u in g.neighbors(v):
                ju = idx[u]
                nc = c + g.weight(v, u)
                if nc < cur[ju]:
                    cur[ju] = nc
                    bp[ju] = ("edge", v)
                    heapq.heappush(heap, (nc, u))
        table[mask] = cur
        back[mask] = bp

    full = (1 << t) - 1
    total = table[full][idx[root]]
    if total == INF:
        return SteinerResult(INF, g.empty_subgraph())

    edges: set[tuple[int, int]] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        tag = back[mask][idx[v]]
        if tag is None:
            continue
        kind, arg = tag
        if kind == "path":
            parent = base_parent[arg]
            cur = v
            while parent[cur] is not None:
                edges.add(edge_key(cur, parent[cur]))
                cur = parent[cur]
        elif kind == "split":
            stack.append((arg, v))
            stack.append((mask ^ arg, v))
        else:  # relaxation edge
            edges.add(edge_key(arg, v))
            stack.append((mask, arg))

    vertices = set(terms)
    for u, v in edges:
        vertices.add(u)
        vertices.add(v)
    witness = Subgraph(g, frozenset(vertices), frozenset(edges))
    tree = minimum_spanning_tree(witness)
    if tree.cost != total:
        raise AssertionError("witness reconstruction disagrees with the DP value")
    return SteinerResult(total, tree)


def brute_force_steiner(g: Graph, terminals) -> SteinerResult:
    """Exhaustive oracle: best MST over all connected supersets of the terminals.

    Enumerates every W with terminals <= W <= V(g); limited to 16
    vertices.  Deliberately independent of the Dreyfus-Wagner code path.
    """
    if len(g) > 16:
        raise ValueError("brute force limited to 16 vertices")
    terms = frozenset(terminals)
    if not terms <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    if not terms:
        return SteinerResult(0, g.empty_subgraph())
    rest = sorted(g.vertex_set - terms)
    best_cost = INF
    best_tree = g.empty_subgraph()
    for mask in range(1 << len(rest)):
        chosen = {rest[i] for i in range(len(rest)) if mask >> i & 1}
        sub = g.subgraph(terms | chosen)
        if len(connected_components(sub)) != 1:
            continue
        tree = minimum_spanning_tree(sub)
        if tree.cost < best_cost:
            best_cost = tree.cost
            best_tree = tree
    if best_cost == INF:
        return SteinerResult(INF, g.empty_subgraph())
    return SteinerResult(best_cost, best_tree)
