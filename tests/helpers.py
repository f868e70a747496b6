"""Shared test fixtures: random generators and independent brute-force oracles.

Oracles here deliberately avoid the library code paths they are checking.
"""

from __future__ import annotations

from itertools import combinations, product

from steiner.decomposition import Decomposition
from steiner.graph import Graph, Subgraph, edge_key
from steiner.io import generate_instance
from steiner.partitions import Partition
from steiner.representatives import PartitionTable


def random_instance(seed, nmax=10, mmax=20, kmax=4, wmax=10):
    """Seed-indexed random connected instance inside the given bounds."""
    n = 4 + seed % (nmax - 3)
    top = min(mmax, n * (n - 1) // 2)
    m = (n - 1) + seed % (top - (n - 1) + 1)
    k = min(n, 1 + seed % kmax)
    return generate_instance(seed, n, m, k, wmax)


def random_graph(rng, n, m, wmax=10):
    """Random graph on 1..n, not necessarily connected."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    edges = [(u, v, rng.randint(1, wmax)) for u, v in pairs[:m]]
    return Graph(range(1, n + 1), edges)


def spanning_tree_minimum(sub) -> int:
    """Brute-force minimum spanning tree cost over all edge subsets."""
    parent = sub.parent if isinstance(sub, Subgraph) else sub
    vertices = sorted(sub.vertices)
    n = len(vertices)
    if n <= 1:
        return 0
    best = None
    for combo in combinations(sorted(sub.edges), n - 1):
        seen = {vertices[0]}
        adj = {}
        for u, v in combo:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        stack = [vertices[0]]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            continue
        cost = sum(parent.weight(u, v) for u, v in combo)
        if best is None or cost < best:
            best = cost
    return best


def all_simple_path_costs(g, source, target):
    """Costs of every simple path from source to target (DFS enumeration)."""
    out = []

    def walk(v, seen, cost):
        if v == target:
            out.append(cost)
            return
        for u in g.neighbors(v):
            if u not in seen:
                walk(u, seen | {u}, cost + g.weight(v, u))

    walk(source, {source}, 0)
    return out


def elimination_decomposition(g) -> Decomposition:
    """Standard tree decomposition from a min-degree elimination order.

    Leaf set is empty; used for the decomposition-DP cross-checks that
    exercise the transfer functions without leaf machinery.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    bags = []
    alive = set(g.vertices)
    while alive:
        v = min(alive, key=lambda x: (len(adj[x]), x))
        nb = set(adj[v])
        bags.append(frozenset({v} | nb))
        order.append(v)
        for a in nb:
            adj[a].discard(v)
        for a, b in combinations(sorted(nb), 2):
            adj[a].add(b)
            adj[b].add(a)
        alive.discard(v)
        del adj[v]
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    bag_map = {i + 1: bags[i] for i in range(n)}
    children = {i + 1: [] for i in range(n)}
    for i in range(n - 1):
        later = [pos[u] for u in bags[i] if u != order[i]]
        parent = (min(later) if later else n - 1) + 1
        children[parent].append(i + 1)
    return Decomposition(n, bag_map, children, frozenset())


def random_partition(rng, universe) -> Partition:
    uni = sorted(universe)
    groups = []
    for v in uni:
        if groups and rng.random() < 0.6:
            rng.choice(groups).append(v)
        else:
            groups.append([v])
    return Partition.from_sets(uni, groups)


def random_partition_table(rng, universe, size, wmax=100) -> PartitionTable:
    table = PartitionTable(universe)
    for _ in range(size):
        table.add(random_partition(rng, universe), rng.randint(0, wmax))
    return table


def exhaustive_subgraph_table(g, scope_vertices, boundary) -> PartitionTable:
    """Minimum weight per boundary partition over all subgraphs of g[scope].

    Isolated vertices change neither projections nor costs, so edge
    subsets cover every achievable (partition, weight) pair.
    """
    scope = frozenset(scope_vertices)
    inner_edges = sorted(
        (u, v) for (u, v) in g.edges if u in scope and v in scope
    )
    table = PartitionTable(sorted(boundary))
    for mask in range(1 << len(inner_edges)):
        chosen = [inner_edges[i] for i in range(len(inner_edges)) if mask >> i & 1]
        vertices = {x for e in chosen for x in e}
        sub = Subgraph(g, vertices, chosen)
        table.add(_project_by_components(sub, boundary), sub.cost)
    return table


def _project_by_components(sub, boundary):
    """Independent projection: own DFS over the subgraph edges."""
    adj = {}
    for u, v in sub.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    comp = {}
    label = 0
    for v in sorted(sub.vertices):
        if v in comp:
            continue
        label += 1
        stack = [v]
        comp[v] = label
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in comp:
                    comp[y] = label
                    stack.append(y)
    groups = {}
    for v in sorted(boundary):
        groups.setdefault(comp.get(v, ("solo", v)), []).append(v)
    return Partition.from_sets(sorted(boundary), groups.values())


def brute_force_connecting_systems(g, base):
    """Independent enumeration of connecting systems for the census check.

    Walks every labeled tree on |base| + m vertices (m < |base|) via its
    own Pruefer decoder, filters the structural conditions directly, and
    canonicalizes by (base edge set, subset collection).
    """
    base_sorted = sorted(base)
    b = len(base_sorted)
    found = set()
    for m in range(b):
        n = b + m
        for seq in product(range(n), repeat=max(0, n - 2)):
            edges = _decode_pruefer(list(seq), n)
            adjacency = {i: set() for i in range(n)}
            for x, y in edges:
                adjacency[x].add(y)
                adjacency[y].add(x)
            valid = True
            subsets = set()
            for helper in range(b, n):
                nbrs = adjacency[helper]
                if len(nbrs) <= 1 or any(i >= b for i in nbrs):
                    valid = False
                    break
                subsets.add(frozenset(base_sorted[i] for i in nbrs))
            if not valid or len(subsets) != m:
                continue
            base_edges = set()
            for x, y in edges:
                if x < b and y < b:
                    u, v = base_sorted[x], base_sorted[y]
                    if not g.has_edge(u, v):
                        valid = False
                        break
                    base_edges.add(edge_key(u, v))
            if valid:
                found.add((frozenset(base_edges), frozenset(subsets)))
    return found


def hypertree_connecting_systems(g, base):
    """Independent enumeration of connecting systems by rank sum.

    A connecting system is a set of hyperedges on the base that connects
    it with rank sum sum(|e| - 1) equal to |base| - 1.  Candidates are the
    base edges present in g plus every base subset of size >= 2 as a
    helper; each candidate set of the right rank sum is kept iff its own
    union-find joins the whole base.  Same canonical form as
    ``brute_force_connecting_systems``.
    """
    base_sorted = sorted(base)
    b = len(base_sorted)
    candidates = [
        ("edge", pair)
        for pair in combinations(base_sorted, 2)
        if g.has_edge(*pair)
    ]
    candidates += [
        ("helper", frozenset(sub))
        for size in range(2, b + 1)
        for sub in combinations(base_sorted, size)
    ]
    found = set()

    def connects(chosen):
        root = {v: v for v in base_sorted}

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for _, members in chosen:
            first, *others = members
            for v in others:
                root[find(v)] = find(first)
        return len({find(v) for v in base_sorted}) <= 1

    def pick(start, budget, chosen):
        if budget == 0:
            if connects(chosen):
                found.add((
                    frozenset(e for kind, e in chosen if kind == "edge"),
                    frozenset(e for kind, e in chosen if kind == "helper"),
                ))
            return
        for i in range(start, len(candidates)):
            rank = len(candidates[i][1]) - 1
            if rank <= budget:
                chosen.append(candidates[i])
                pick(i + 1, budget - rank, chosen)
                chosen.pop()

    pick(0, max(0, b - 1), [])
    return found


def _decode_pruefer(seq, n):
    if n == 1:
        return []
    vertices = list(range(n))
    degree = {v: 1 for v in vertices}
    for s in seq:
        degree[s] += 1
    edges = []
    remaining = set(vertices)
    for s in seq:
        leaf = min(v for v in remaining if degree[v] == 1)
        edges.append((leaf, s))
        remaining.remove(leaf)
        degree[s] -= 1
    a, b = sorted(remaining, key=lambda v: v)[:2]
    edges.append((a, b))
    return edges


def random_edge_subgraph(rng, g, keep=0.5) -> Subgraph:
    """Random spanning-vertex subgraph keeping each edge with given probability."""
    chosen = [e for e in g.edges if rng.random() < keep]
    return Subgraph(g, g.vertex_set, chosen)
