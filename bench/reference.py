"""Correctness checks for the benchmark that share no code with ``steiner``.

``steiner_cost`` is a plain Dreyfus-Wagner dynamic program over the
generator's own edge list; ``check_witness`` re-derives a reported tree's
cost and shape from that edge list.  The reference optima of every pool
instance are stored in ``refs.json`` next to this file, keyed by instance
id with a digest of its PACE text, so a generator change shows up as a
stale reference instead of a silent mismatch.

Regenerate the stored references (a few minutes on two cores):

    python3 bench/reference.py
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import sys
from operator import add

INF = float("inf")
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _relax(adj, dist):
    """Dijkstra from every vertex at once, starting from the labels ``dist``."""
    heap = [(d, v) for v, d in enumerate(dist) if d != INF]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def steiner_cost(n: int, edges, terminals) -> int | float:
    """Optimum Steiner tree cost; INF when the terminals are disconnected.

    ``table[mask][v]`` is the cheapest tree spanning the terminals in
    ``mask`` plus vertex v.  Masks run in numeric order, so every proper
    submask is final before it is used.
    """
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        return 0
    adj = [[] for _ in range(n + 1)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    root, rest = terms[-1], terms[:-1]
    table = [None] * (1 << len(rest))
    for i, t in enumerate(rest):
        start = [INF] * (n + 1)
        start[t] = 0
        table[1 << i] = _relax(adj, start)
    for mask in range(3, 1 << len(rest)):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        best = [INF] * (n + 1)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                best = list(map(min, best, map(add, table[sub], table[mask ^ sub])))
            sub = (sub - 1) & mask
        table[mask] = _relax(adj, best)
    return table[-1][root]


def check_witness(edges, terminals, value, tree) -> str | None:
    """Why ``tree`` (a list of (u, v) pairs) is not a Steiner tree of cost
    ``value`` for the instance, or None when it is one."""
    weight = {}
    for u, v, w in edges:
        weight[(u, v)] = weight[(v, u)] = w
    tree = [tuple(e) for e in tree]
    if any(e not in weight for e in tree):
        return "a witness edge is not an instance edge"
    if len({frozenset(e) for e in tree}) != len(tree):
        return "a witness edge is listed twice"
    total = sum(weight[e] for e in tree)
    if total != value:
        return f"witness edges sum to {total}, VALUE is {value}"
    terms = set(terminals)
    if not tree:
        return None if len(terms) <= 1 else "empty witness for several terminals"
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(adj):
        return "witness is not connected"
    if len(tree) != len(adj) - 1:
        return "witness has a cycle"
    if not terms <= seen:
        return f"witness misses terminals {sorted(terms - seen)}"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> None:
    """Recompute and store the optimum of every pool instance."""
    from workloads import WORKLOADS, pool_case

    refs = {}
    for workload in WORKLOADS.values():
        for stratum in workload.strata:
            for index in range(stratum.pool):
                case = pool_case(stratum, index)
                cost = steiner_cost(case.n, case.edges, case.terminals)
                key = f"{stratum.family}:{index}"
                refs[key] = {"value": cost, "pace": digest(case.pace())}
                print(key, cost, file=sys.stderr)
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    regenerate()
