"""Seeded, stdlib-only instance generators for the benchmark.

They live here rather than in ``steiner.io`` so that a change to the
library cannot change the benchmark's inputs.  Every generator takes a
``random.Random`` and returns a ``Case``: the graph as plain edge tuples
plus the PACE, cut and TKD texts the program is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WMAX = 20  # edge weights are drawn from 1..WMAX


@dataclass(frozen=True)
class Case:
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, w) with u < v
    terminals: tuple[int, ...]
    cut: tuple[int, ...] | None = None  # planted multiway cut
    tkd: str | None = None  # decomposition text with terminal-free leaf parts

    def pace(self) -> str:
        lines = ["SECTION Graph", f"Nodes {self.n}", f"Edges {len(self.edges)}"]
        lines += [f"E {u} {v} {w}" for u, v, w in self.edges]
        lines += ["END", "", "SECTION Terminals", f"Terminals {len(self.terminals)}"]
        lines += [f"T {t}" for t in self.terminals]
        lines += ["END", "", "EOF"]
        return "\n".join(lines) + "\n"

    def cut_text(self) -> str:
        return "\n".join([f"CUT {len(self.cut)}"] + [str(v) for v in self.cut]) + "\n"


def _weighted(rng, pairs):
    return tuple((min(u, v), max(u, v), rng.randint(1, WMAX)) for u, v in sorted(pairs))


def _tree_with_chords(rng, vertices, chords):
    """Random recursive tree on ``vertices`` plus ``chords`` extra edges."""
    pairs = set()
    for i in range(1, len(vertices)):
        u, v = vertices[rng.randrange(i)], vertices[i]
        pairs.add((min(u, v), max(u, v)))
    spare = sorted(
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
        if (min(u, v), max(u, v)) not in pairs
    )
    for u, v in rng.sample(spare, min(chords, len(spare))):
        pairs.add((min(u, v), max(u, v)))
    return pairs


def uniform(rng: random.Random, n: int, m: int, k: int) -> Case:
    """Connected uniform random graph with exactly n vertices and m edges."""
    pairs = _tree_with_chords(rng, list(range(1, n + 1)), m - (n - 1))
    terms = tuple(sorted(rng.sample(range(1, n + 1), k)))
    return Case(n, _weighted(rng, pairs), terms)


def clustered(
    rng: random.Random,
    s: int,
    q: int,
    size: int,
    chords: int,
    attach_all: bool = False,
    cut_ids: tuple[int, ...] | None = None,
) -> Case:
    """Paper-regime graph: a planted cut S of s vertices and q components.

    Each component is a random tree plus ``chords`` chords with one
    terminal, so |K| = q.  It attaches to a random non-empty subset of S
    (to all of S with ``attach_all``) through edges from random component
    vertices; extra attachments keep the whole graph connected.  With
    ``cut_ids`` the cut vertices get those ids and every other vertex a
    seeded random id; otherwise the cut is 1..s and components follow.
    """
    n = s + q * size
    if cut_ids is None:
        ids = list(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v not in set(cut_ids)]
        rng.shuffle(rest)
        ids = list(cut_ids) + rest
    cut = ids[:s]
    comps = [ids[s + i * size: s + (i + 1) * size] for i in range(q)]
    pairs = set()
    attach = []
    for comp in comps:
        pairs |= _tree_with_chords(rng, comp, chords)
        if attach_all:
            attach.append(list(range(s)))
        else:
            attach.append(sorted(rng.sample(range(s), rng.randint(1, s))))
    # union-find over cut vertices so every cut vertex ends up reachable
    owner = list(range(s))

    def find(x):
        while owner[x] != x:
            owner[x] = owner[owner[x]]
            x = owner[x]
        return x

    for i, xs in enumerate(attach):
        for x in xs[1:]:
            owner[find(x)] = find(xs[0])
    for x in range(1, s):
        if find(x) != find(0):
            i = rng.randrange(q)
            attach[i].append(x)
            owner[find(x)] = find(attach[i][0])
    for comp, xs in zip(comps, attach):
        for x in xs:
            for _ in range(2):
                u, v = cut[x], rng.choice(comp)
                pairs.add((min(u, v), max(u, v)))
    terms = tuple(sorted(rng.choice(comp) for comp in comps))
    return Case(n, _weighted(rng, pairs), terms, tuple(sorted(cut)))


def partial_wtree(
    rng: random.Random,
    core: int,
    w: int,
    k: int,
    blobs: int,
    blob_size: int,
    links: int,
) -> Case:
    """Partial w-tree on ``core`` vertices carrying the terminals, plus
    terminal-free blobs hung off leaf bags as leaf parts, and its TKD.

    The bags form a heap-shaped binary tree, so every instance of one
    size has the same number of join nodes: bag i >= 1 hangs below bag
    (i - 1) // 2 and holds a new core vertex plus a random w-subset of
    that bag, ``links`` of which it is joined to.  The root bag is a path
    plus ``links`` random chords, so the edge count is fixed too.  A blob
    is a random tree plus chords hung below a distinct random leaf bag
    and wired to two of its vertices; its leaf bag is those two vertices
    plus the blob.
    """
    bags = [list(range(1, w + 2))]
    parent = [None]
    pairs = {(u, u + 1) for u in range(1, w + 1)}
    spare = [(u, v) for u in range(1, w + 2) for v in range(u + 2, w + 2)]
    pairs |= set(rng.sample(spare, min(links, len(spare))))
    for v in range(w + 2, core + 1):
        host = (len(bags) - 1) // 2
        clique = rng.sample(bags[host], w)
        pairs |= {(u, v) for u in rng.sample(clique, links)}
        bags.append(sorted(clique + [v]))
        parent.append(host)
    leaf = set()
    n = core
    for host in rng.sample(range(len(bags) // 2, len(bags)), blobs):
        anchor = sorted(rng.sample(bags[host], 2))
        blob = list(range(n + 1, n + blob_size + 1))
        n += blob_size
        pairs |= _tree_with_chords(rng, blob, blob_size // 2)
        for a in anchor:
            pairs.add((a, rng.choice(blob)))
        leaf |= set(blob)
        bags.append(anchor + blob)
        parent.append(host)
    # terminals are the new vertices of k leaf bags, so each lies in
    # exactly one core bag and every instance has the same terminal-bag
    # incidence, which sets the number of used-boundary subsets per bag
    leaves = range((core - w) // 2, core - w)
    terms = tuple(sorted(i + w + 1 for i in rng.sample(leaves, k)))
    lines = [f"TKD {len(bags)} {w}", "ROOT 1"]
    lines += [f"B {i + 1} {len(b)} " + " ".join(map(str, b)) for i, b in enumerate(bags)]
    lines += [f"TE {p + 1} {i + 1}" for i, p in enumerate(parent) if p is not None]
    lines.append(f"L {len(leaf)} " + " ".join(map(str, sorted(leaf))))
    return Case(n, _weighted(rng, pairs), terms, None, "\n".join(lines) + "\n")
