"""Undirected edge-weighted graphs and the classical subroutines shared by all solvers.

Vertices are 1-based integers (PACE convention).  Edge weights are
non-negative integers and all arithmetic stays in exact Python integers,
so weights near 2**62 sum without overflow.  ``INF`` stands for the cost
of a subgraph that does not exist; it compares greater than every finite
weight and absorbs addition and subtraction of finite values.

Graphs and subgraphs are immutable after construction, so they can be
shared freely between concurrent workers.
"""

from __future__ import annotations

import heapq

INF = float("inf")


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph with non-negative integer edge weights.

    Self-loops are dropped and parallel edges collapse to their minimum
    weight; neither can occur in a minimum Steiner tree.
    """

    __slots__ = ("_vertices", "_vset", "_weights", "_adj")

    def __init__(self, vertices, edges=()):
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"vertex ids must be positive integers, got {v!r}")
            vset.add(v)
        weights: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if u == v:
                continue
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) has an undeclared endpoint")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(
                    f"edge ({u}, {v}) needs a non-negative integer weight, got {w!r}"
                )
            key = edge_key(u, v)
            if key not in weights or w < weights[key]:
                weights[key] = w
        adj: dict[int, list[int]] = {v: [] for v in vset}
        for u, v in weights:
            adj[u].append(v)
            adj[v].append(u)
        self._vertices = tuple(sorted(vset))
        self._vset = frozenset(vset)
        self._weights = weights
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vset

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._weights))

    def edge_items(self):
        """Iterate (u, v, weight) with u < v in sorted edge order."""
        for u, v in sorted(self._weights):
            yield u, v, self._weights[(u, v)]

    def weight(self, u: int, v: int) -> int:
        try:
            return self._weights[edge_key(u, v)]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._weights

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def __contains__(self, v: int) -> bool:
        return v in self._vset

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def induced(self, vertices) -> "Graph":
        """New graph on the given vertex subset with all edges inside it."""
        keep = frozenset(vertices)
        if not keep <= self._vset:
            raise ValueError("induced vertex set is not a subset of the graph")
        es = [
            (u, v, w)
            for (u, v), w in self._weights.items()
            if u in keep and v in keep
        ]
        return Graph(keep, es)

    def subgraph(self, vertices, edges=None) -> "Subgraph":
        """Subgraph view on this graph; edges default to all induced edges."""
        vs = frozenset(vertices)
        if edges is None:
            edges = [
                (u, v) for (u, v) in self._weights if u in vs and v in vs
            ]
        return Subgraph(self, vs, edges)

    def empty_subgraph(self) -> "Subgraph":
        return Subgraph(self, frozenset(), frozenset())

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self._vset == other._vset and self._weights == other._weights
        return NotImplemented

    def __repr__(self):
        return f"Graph({len(self._vertices)} vertices, {len(self._weights)} edges)"


class Subgraph:
    """A vertex and edge subset of a parent graph.

    Solvers return their trees as subgraphs, and leaf tables of the
    decomposition DP build their partial solutions this way.  ``cost`` is
    the sum of the included edge weights.
    """

    __slots__ = ("parent", "vertices", "edges", "_adj", "_cost")

    def __init__(self, parent: Graph, vertices=(), edges=()):
        vs = frozenset(vertices)
        es = frozenset(edge_key(u, v) for u, v in edges)
        if not vs <= parent.vertex_set:
            raise ValueError("subgraph vertices must belong to the parent graph")
        for u, v in es:
            if not parent.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) is not a parent edge")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the subgraph")
        self.parent = parent
        self.vertices = vs
        self.edges = es
        self._adj = None
        self._cost = None

    @property
    def cost(self) -> int:
        if self._cost is None:
            self._cost = sum(self.parent.weight(u, v) for u, v in self.edges)
        return self._cost

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._adj is None:
            adj = {u: [] for u in self.vertices}
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = {u: tuple(sorted(ns)) for u, ns in adj.items()}
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in subgraph") from None

    def is_connected(self) -> bool:
        return len(connected_components(self)) <= 1

    def __eq__(self, other):
        if isinstance(other, Subgraph):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Subgraph({sorted(self.vertices)}, {sorted(self.edges)})"


def connected_components(g, without=()) -> list[frozenset[int]]:
    """Maximal connected vertex sets of a Graph or Subgraph, skipping ``without``.

    So ``connected_components(g, cut)`` is the components of ``g - cut``,
    found without building that graph.  Components are ordered by their
    smallest vertex, which makes every downstream iteration deterministic.
    """
    seen = set(without)
    out = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in comp and u not in seen:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def shortest_path(g: Graph, targets, source: int):
    """Cheapest path from ``source`` to any vertex of ``targets``.

    Returns ``(path, dist)`` where ``path`` is a Subgraph, or ``None``
    when no target is reachable.  Ties are broken by the
    lexicographically smallest vertex sequence, so the result is unique.
    A source already inside ``targets`` yields the zero-cost empty path.
    """
    if source not in g:
        raise ValueError(f"source vertex {source} not in graph")
    goal = frozenset(targets)
    if not goal <= g.vertex_set:
        raise ValueError("target set is not a subset of the graph")
    if source in goal:
        return Subgraph(g, frozenset([source]), frozenset()), 0
    if not goal:
        return None
    heap = [(0, (source,))]
    settled = set()
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v in goal:
            edges = frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
            return Subgraph(g, frozenset(path), edges), dist
        for u in g.neighbors(v):
            if u not in settled:
                heapq.heappush(heap, (dist + g.weight(v, u), path + (u,)))
    return None


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_tree(g) -> Subgraph:
    """Kruskal minimum spanning tree of a connected Graph or Subgraph.

    Edges are scanned in (weight, u, v) order, so the result is
    deterministic.  Raises ValueError on disconnected input.
    """
    parent = g.parent if isinstance(g, Subgraph) else g
    vertices = sorted(g.vertices)
    if not vertices:
        return Subgraph(parent, frozenset(), frozenset())
    weight = parent.weight
    ranked = sorted((weight(u, v), u, v) for u, v in g.edges)
    uf = _UnionFind(vertices)
    chosen = []
    for w, u, v in ranked:
        if uf.union(u, v):
            chosen.append((u, v))
            if len(chosen) == len(vertices) - 1:
                break
    if len(chosen) != len(vertices) - 1:
        raise ValueError("minimum_spanning_tree requires a connected input")
    return Subgraph(parent, frozenset(vertices), frozenset(chosen))


def spanning_tree(g: Graph, edges, ends) -> Subgraph | None:
    """Minimum spanning tree of the part of ``edges`` that connects ``ends``.

    The edges, together with the vertices ``ends``, form a subgraph of
    ``g``; returns the minimum spanning tree of its component that holds
    all of ``ends``, or None when no component does.
    """
    ends = frozenset(ends)
    assembled = Subgraph(g, ends.union(*edges), edges)
    for comp in connected_components(assembled):
        if ends <= comp:
            inner = [e for e in assembled.edges if e[0] in comp]
            return minimum_spanning_tree(Subgraph(g, comp, inner))
    return None


def boundary_graph(g: Graph, cut, comp) -> Graph:
    """The graph induced on ``comp``, a component of ``g - cut``, plus its boundary.

    The boundary consists of the edges between the component and ``cut``
    together with their cut endpoints; edges inside ``cut`` are excluded.
    """
    vertices = set(comp)
    edges = []
    for u in sorted(comp):
        for v in g.neighbors(u):
            if v in comp:
                if u < v:
                    edges.append((u, v, g.weight(u, v)))
            elif v in cut:
                vertices.add(v)
                edges.append((u, v, g.weight(u, v)))
    return Graph(vertices, edges)


def component_graph(g: Graph, cut, index: int) -> Graph:
    """``boundary_graph`` of one component of ``g - cut``.

    Components are indexed in sorted order (smallest member first).
    """
    cutset = frozenset(cut)
    comps = cut_components(g, (), cutset)
    if not 0 <= index < len(comps):
        raise ValueError(f"component index {index} out of range (q={len(comps)})")
    return boundary_graph(g, cutset, comps[index])


def cut_components(g: Graph, terminals, cut) -> list[frozenset[int]] | None:
    """The components of ``g - cut``, or None when one holds two terminals.

    Terminals inside the cut are removed along with it.  Raises
    ValueError when the cut is not a subset of the graph.
    """
    cutset = frozenset(cut)
    if not cutset <= g.vertex_set:
        raise ValueError("cut is not a subset of the graph")
    terms = frozenset(terminals)
    comps = connected_components(g, cutset)
    if any(len(comp & terms) > 1 for comp in comps):
        return None
    return comps


def is_multiway_cut(g: Graph, terminals, cut) -> bool:
    """True iff every component of ``g - cut`` holds at most one terminal."""
    return cut_components(g, terminals, cut) is not None
