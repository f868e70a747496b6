"""Tree decompositions with terminal-free leaf parts.

These are rooted tree decompositions plus a designated vertex set L: each
L-vertex lives in exactly one bag, that bag is a leaf, and L avoids the
terminals.  L-vertices are exempt from the width count, so arbitrarily
large terminal-free chunks can hang off the tree for free.  The module
provides the validator, a constructive decomposer from a multiway cut,
the nice-form transformation the DP consumes, and the reduction that
turns decompositions of a triangle-gadget expansion of the graph into
decompositions of the original graph (letting an external triangle-free
decomposer stand in for a native one).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import MultiwayCut
from .graph import Graph, cut_components
from .graph import connected_components  # noqa: F401  kept: bench/layers.py rebinds it
from .graph import is_multiway_cut  # noqa: F401  kept: bench/layers.py rebinds it


@dataclass(frozen=True)
class Violation:
    """First failed decomposition condition, with offending ids."""

    condition: str
    message: str
    witness: tuple = ()

    def __str__(self):
        return f"({self.condition}) {self.message}"


class Decomposition:
    """Rooted tree of bags with a leaf-only vertex set.

    ``bags`` maps node id to a vertex set, ``children`` node id to child
    ids; ``leaf_vertices`` is the set L.  The constructor checks tree
    shape only; use the validators for the decomposition conditions.
    """

    __slots__ = ("root", "bags", "children", "parent", "leaf_vertices")

    def __init__(self, root, bags, children, leaf_vertices=frozenset()):
        self.bags = {n: frozenset(b) for n, b in bags.items()}
        if root not in self.bags:
            raise ValueError("root must be one of the nodes")
        self.children = {n: tuple(children.get(n, ())) for n in self.bags}
        for n, kids in self.children.items():
            for c in kids:
                if c not in self.bags:
                    raise ValueError(f"child {c} of {n} has no bag")
        parent: dict[int, int] = {}
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for c in self.children[x]:
                if c in seen:
                    raise ValueError(f"node {c} has two parents")
                parent[c] = x
                seen.add(c)
                stack.append(c)
        if seen != set(self.bags):
            raise ValueError("some nodes are unreachable from the root")
        self.root = root
        self.parent = parent
        self.leaf_vertices = frozenset(leaf_vertices)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.bags))

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def postorder(self) -> list[int]:
        """Children before parents, siblings in ascending id order."""
        order = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for c in sorted(self.children[node], reverse=True):
                    stack.append((c, False))
        return order


def width(dec: Decomposition) -> int:
    """Largest bag size, not counting leaf-part vertices, minus one."""
    biggest = max(len(bag - dec.leaf_vertices) for bag in dec.bags.values())
    return max(0, biggest - 1)


def _shared_conditions(g: Graph, dec: Decomposition) -> Violation | None:
    for n, bag in dec.bags.items():
        if not bag <= g.vertex_set:
            raise ValueError(
                f"bag of node {n} contains vertices outside the graph: "
                f"{sorted(bag - g.vertex_set)}"
            )
    if not dec.leaf_vertices <= g.vertex_set:
        raise ValueError("leaf vertex set contains vertices outside the graph")
    occ = {v: set() for v in g.vertices}  # vertex -> nodes whose bag holds it
    for n, bag in dec.bags.items():
        for v in bag:
            occ[v].add(n)
    for v in sorted(occ):
        nodes = occ[v]
        if not nodes:
            return Violation("A", f"vertex {v} appears in no bag", (v,))
        links = sum(1 for n in nodes if dec.parent.get(n) in nodes)
        if links != len(nodes) - 1:
            return Violation(
                "A", f"bags containing vertex {v} are not a connected subtree", (v,)
            )
    for u, v in g.edges:
        if occ[u].isdisjoint(occ[v]):
            return Violation("B", f"edge ({u}, {v}) is covered by no bag", (u, v))
    for v in sorted(dec.leaf_vertices):
        if len(occ[v]) != 1:
            return Violation(
                "C", f"leaf vertex {v} appears in {len(occ[v])} bags", (v,)
            )
        (home,) = occ[v]
        if not dec.is_leaf(home):
            return Violation(
                "C", f"leaf vertex {v} appears in non-leaf node {home}", (v, home)
            )
    return None


def validate_decomposition(g: Graph, terminals, dec: Decomposition) -> Violation | None:
    """Check the four conditions; None when valid, else the first violation."""
    bad = _shared_conditions(g, dec)
    if bad:
        return bad
    terms = frozenset(terminals)
    for n in dec.nodes:
        clash = dec.bags[n] & dec.leaf_vertices & terms
        if clash:
            return Violation(
                "D",
                f"bag of node {n} holds terminal leaf vertices {sorted(clash)}",
                (n,) + tuple(sorted(clash)),
            )
    return None


def enumerate_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles (u, v, w) with u < v < w."""
    out = []
    for u, v in g.edges:
        nu = set(g.neighbors(u))
        for w in g.neighbors(v):
            if w > v and w in nu:
                out.append((u, v, w))
    return out


def validate_triangle_decomposition(g: Graph, dec: Decomposition) -> Violation | None:
    """Variant validator: leaf parts must induce triangle-free subgraphs."""
    bad = _shared_conditions(g, dec)
    if bad:
        return bad
    for n in dec.nodes:
        part = dec.bags[n] & dec.leaf_vertices
        tri = enumerate_triangles(g.induced(part))
        if tri:
            return Violation(
                "D",
                f"leaf part of node {n} induces triangle {tri[0]}",
                (n,) + tri[0],
            )
    return None


def decompose_from_multiway_cut(g: Graph, terminals, cut) -> Decomposition:
    """Star decomposition from a multiway cut: the cut is the root bag and
    each component becomes one leaf bag (cut plus component).

    Component vertices other than terminals form the leaf set, so the
    width is at most the cut size.
    """
    cutset = cut.vertices if isinstance(cut, MultiwayCut) else frozenset(cut)
    terms = frozenset(terminals)
    comps = cut_components(g, terms, cutset)
    if comps is None:
        raise ValueError("input vertex set is not a multiway cut for the terminals")
    bags = {1: cutset}
    children = {1: tuple(range(2, 2 + len(comps)))}
    loose: set[int] = set()
    for i, comp in enumerate(comps):
        bags[2 + i] = cutset | comp
        loose |= comp - terms
    dec = Decomposition(1, bags, children, loose)
    bad = validate_decomposition(g, terms, dec)
    if bad:
        raise AssertionError(f"constructed decomposition invalid: {bad}")
    return dec


# Node kinds of a nice decomposition.
LEAF = "leaf"
JOIN = "join"
INTRODUCE_VERTEX = "introduce-vertex"
FORGET_VERTEX = "forget-vertex"
INTRODUCE_EDGE = "introduce-edge"
LEAF_INTRODUCE = "leaf-introduce"


class NiceDecomposition(Decomposition):
    """Decomposition whose interior nodes carry one of five shapes.

    Every non-leaf node is a join, a single vertex introduce or forget,
    an edge introduce, or a leaf introduce sitting directly above a leaf
    bag that carries the leaf-part vertices.  ``edge_assignment`` places
    every graph edge at exactly one node: edges touching the leaf set at
    their unique leaf bag, all others at their edge-introduce node.
    """

    __slots__ = ("kinds", "intro_vertex", "intro_edge", "edge_assignment", "_node_edges")

    def __init__(
        self,
        root,
        bags,
        children,
        leaf_vertices,
        kinds,
        intro_vertex,
        intro_edge,
        edge_assignment,
    ):
        super().__init__(root, bags, children, leaf_vertices)
        self.kinds = dict(kinds)
        self.intro_vertex = dict(intro_vertex)
        self.intro_edge = dict(intro_edge)
        self.edge_assignment = dict(edge_assignment)
        by_node: dict[int, list] = {}
        for e, n in self.edge_assignment.items():
            by_node.setdefault(n, []).append(e)
        self._node_edges = {n: tuple(sorted(es)) for n, es in by_node.items()}

    def assigned_edges(self, node: int) -> tuple[tuple[int, int], ...]:
        return self._node_edges.get(node, ())


def validate_nice(g: Graph, terminals, dec: NiceDecomposition) -> Violation | None:
    """Nice-form checks on top of the decomposition conditions."""
    bad = validate_decomposition(g, terminals, dec)
    if bad:
        return bad
    L = dec.leaf_vertices
    for n in dec.nodes:
        kind = dec.kinds.get(n)
        kids = dec.children[n]
        bag = dec.bags[n]
        if not kids:
            if kind != LEAF:
                return Violation("kind", f"childless node {n} has kind {kind}", (n,))
            continue
        if kind == LEAF:
            return Violation("kind", f"leaf node {n} has children", (n,))
        if kind == JOIN:
            if len(kids) != 2 or any(dec.bags[c] != bag for c in kids):
                return Violation("kind", f"join node {n} bags mismatch", (n,))
        elif kind == INTRODUCE_VERTEX:
            v = dec.intro_vertex.get(n)
            if (
                len(kids) != 1
                or v is None
                or v in dec.bags[kids[0]]
                or bag != dec.bags[kids[0]] | {v}
            ):
                return Violation("kind", f"introduce node {n} malformed", (n,))
        elif kind == FORGET_VERTEX:
            v = dec.intro_vertex.get(n)
            if (
                len(kids) != 1
                or v is None
                or v not in dec.bags[kids[0]]
                or bag != dec.bags[kids[0]] - {v}
            ):
                return Violation("kind", f"forget node {n} malformed", (n,))
        elif kind == INTRODUCE_EDGE:
            e = dec.intro_edge.get(n)
            if (
                len(kids) != 1
                or e is None
                or bag != dec.bags[kids[0]]
                or not set(e) <= bag
                or dec.edge_assignment.get(e) != n
            ):
                return Violation("kind", f"edge node {n} malformed", (n,))
        elif kind == LEAF_INTRODUCE:
            if (
                len(kids) != 1
                or dec.kinds.get(kids[0]) != LEAF
                or bag != dec.bags[kids[0]] - L
                or not dec.bags[kids[0]] - bag <= L
            ):
                return Violation("kind", f"leaf-introduce node {n} malformed", (n,))
        else:
            return Violation("kind", f"node {n} has unknown kind {kind!r}", (n,))
    for n in dec.nodes:
        if dec.kinds.get(n) == LEAF and dec.bags[n] & L:
            par = dec.parent.get(n)
            if par is None or dec.kinds.get(par) != LEAF_INTRODUCE:
                return Violation(
                    "kind",
                    f"leaf bag {n} with leaf-part vertices lacks a leaf-introduce parent",
                    (n,),
                )
    assigned = set(dec.edge_assignment)
    expected = set(g.edges)
    if assigned != expected:
        missing = sorted(expected - assigned) + sorted(assigned - expected)
        return Violation(
            "edges", f"edge assignment does not cover the graph exactly: {missing[:3]}",
            tuple(missing[:3]),
        )
    for e, n in sorted(dec.edge_assignment.items()):
        kind = dec.kinds.get(n)
        u, v = e
        if kind == LEAF:
            if not {u, v} <= dec.bags[n] or not (u in L or v in L):
                return Violation(
                    "edges", f"edge ({u}, {v}) wrongly assigned to leaf {n}", (u, v, n)
                )
        elif kind == INTRODUCE_EDGE:
            if dec.intro_edge.get(n) != e:
                return Violation(
                    "edges", f"edge ({u}, {v}) assigned to foreign edge node {n}", (u, v, n)
                )
        else:
            return Violation(
                "edges", f"edge ({u}, {v}) assigned to a {kind} node", (u, v, n)
            )
    return None


def to_nice(g: Graph, terminals, dec: Decomposition) -> NiceDecomposition:
    """Nice-form transformation; width is preserved.

    Interior nodes become binary joins plus single introduce/forget
    chains.  Each leaf bag containing leaf-part vertices gets a
    leaf-introduce parent whose bag drops them.  Edges touching the leaf
    set are assigned to their unique leaf bag; every other edge gets its
    own edge-introduce node spliced in above the first node whose bag
    covers it.
    """
    bad = validate_decomposition(g, terminals, dec)
    if bad:
        raise ValueError(f"invalid decomposition: {bad}")
    L = dec.leaf_vertices
    bags: dict[int, frozenset] = {}
    children: dict[int, list[int]] = {}
    kinds: dict[int, str] = {}
    intro_v: dict[int, int] = {}
    intro_e: dict[int, tuple[int, int]] = {}
    counter = [0]

    def new_node(bag, kind):
        counter[0] += 1
        nid = counter[0]
        bags[nid] = frozenset(bag)
        children[nid] = []
        kinds[nid] = kind
        return nid

    leaf_home: dict[int, int] = {}

    def chain(target_bag, nid):
        cur = nid
        for v in sorted(bags[cur] - target_bag):
            x = new_node(bags[cur] - {v}, FORGET_VERTEX)
            intro_v[x] = v
            children[x] = [cur]
            cur = x
        for v in sorted(target_bag - bags[cur]):
            x = new_node(bags[cur] | {v}, INTRODUCE_VERTEX)
            intro_v[x] = v
            children[x] = [cur]
            cur = x
        return cur

    # Bottom-up, siblings in ascending order: each node's nice part is
    # built and chained to its parent's bag before the next sibling's.
    tops: dict[int, int] = {}
    for node in dec.postorder():
        kids = dec.children[node]
        bag = dec.bags[node]
        if not kids:
            cur = new_node(bag, LEAF)
            inner = bag & L
            for v in inner:
                leaf_home[v] = cur
            if inner:
                x = new_node(bag - L, LEAF_INTRODUCE)
                children[x] = [cur]
                cur = x
        else:
            below = [tops.pop(c) for c in sorted(kids)]
            cur = below[0]
            for nxt in below[1:]:
                j = new_node(bag, JOIN)
                children[j] = [cur, nxt]
                cur = j
        par = dec.parent.get(node)
        tops[node] = cur if par is None else chain(dec.bags[par], cur)
    root = tops[dec.root]

    parent: dict[int, int] = {}
    for n, kids in children.items():
        for c in kids:
            parent[c] = n

    assignment: dict[tuple[int, int], int] = {}
    loose = set()
    for u, v in g.edges:
        if u in L or v in L:
            home = leaf_home[u if u in L else v]
            if not {u, v} <= bags[home]:
                raise AssertionError("leaf edge not covered by its leaf bag")
            assignment[(u, v)] = home
        else:
            loose.add((u, v))

    # each loose edge is anchored at the first eligible node covering it
    by_anchor: dict[int, list] = {}
    for n in sorted(bags):
        bag = bags[n]
        if kinds[n] == LEAF and bag & L:
            continue
        for u in bag:
            for v in g.neighbors(u):
                if u < v and v in bag and (u, v) in loose:
                    loose.remove((u, v))
                    by_anchor.setdefault(n, []).append((u, v))
    if loose:
        u, v = min(loose)
        raise AssertionError(f"no bag covers edge ({u}, {v}) outside leaf parts")
    for anchor in sorted(by_anchor):
        par = parent.get(anchor)
        cur = anchor
        for e in sorted(by_anchor[anchor]):
            x = new_node(bags[anchor], INTRODUCE_EDGE)
            intro_e[x] = e
            assignment[e] = x
            children[x] = [cur]
            cur = x
        if par is None:
            root = cur
        else:
            children[par] = [cur if ch == anchor else ch for ch in children[par]]

    nice = NiceDecomposition(
        root,
        bags,
        {n: tuple(kids) for n, kids in children.items()},
        L,
        kinds,
        intro_v,
        intro_e,
        assignment,
    )
    bad = validate_nice(g, terminals, nice)
    if bad:
        raise AssertionError(f"nice-form construction produced {bad}")
    return nice


@dataclass(eq=False)
class GadgetMap:
    """Vertex bookkeeping of the triangle-gadget expansion."""

    edge_vertex: dict
    vertex_edge: dict
    terminal_copies: dict
    copy_terminal: dict


def terminal_gadget_graph(g: Graph, terminals) -> tuple[Graph, GadgetMap]:
    """Subdivide every edge and hang a triangle off every terminal.

    New ids follow the original ones: first one subdivision vertex per
    edge in sorted edge order, then two copies per terminal in sorted
    terminal order.  The only triangles of the result are the terminal
    gadgets, which is what lets a triangle-free decomposer take the
    place of a terminal-aware one.
    """
    terms = sorted(set(terminals))
    if not frozenset(terms) <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    nxt = (max(g.vertices) if g.vertices else 0) + 1
    edge_vertex = {}
    edges = []
    for u, v, _ in g.edge_items():
        ev = nxt
        nxt += 1
        edge_vertex[(u, v)] = ev
        edges.append((u, ev, 1))
        edges.append((ev, v, 1))
    terminal_copies = {}
    for t in terms:
        a, b = nxt, nxt + 1
        nxt += 2
        terminal_copies[t] = (a, b)
        edges.extend([(t, a, 1), (t, b, 1), (a, b, 1)])
    vertices = list(g.vertices) + list(edge_vertex.values())
    for a, b in terminal_copies.values():
        vertices.extend((a, b))
    gadget = Graph(vertices, edges)
    gm = GadgetMap(
        dict(edge_vertex),
        {ev: e for e, ev in edge_vertex.items()},
        dict(terminal_copies),
        {c: t for t, pair in terminal_copies.items() for c in pair},
    )
    return gadget, gm


def gadget_decomposition(g: Graph, terminals, dec: Decomposition) -> Decomposition:
    """Lift a decomposition of ``g`` to one of its gadget expansion.

    Subdivision vertices and terminal copies join the leaf set; each is
    placed into an existing leaf bag when its host bag is a leaf, or into
    a fresh child bag otherwise.  The result is triangle-free-valid for
    the gadget graph and its width is at most max(width, 1).
    """
    terms = sorted(set(terminals))
    bad = validate_decomposition(g, terms, dec)
    if bad:
        raise ValueError(f"invalid decomposition: {bad}")
    gadget, gm = terminal_gadget_graph(g, terms)
    bags = {n: set(b) for n, b in dec.bags.items()}
    children = {n: list(kids) for n, kids in dec.children.items()}
    loose = set(dec.leaf_vertices)
    counter = max(dec.bags) + 1

    def fresh_child(host, bag):
        nonlocal counter
        nid = counter
        counter += 1
        bags[nid] = set(bag)
        children[nid] = []
        children[host].append(nid)

    for t in terms:
        a, b = gm.terminal_copies[t]
        loose |= {a, b}
        host = min(n for n in dec.bags if t in dec.bags[n])
        if dec.is_leaf(host):
            bags[host] |= {a, b}
        else:
            fresh_child(host, {t, a, b})
    for e in sorted(gm.edge_vertex):
        ev = gm.edge_vertex[e]
        loose.add(ev)
        u, v = e
        host = min(n for n in dec.bags if {u, v} <= dec.bags[n])
        if dec.is_leaf(host):
            bags[host].add(ev)
        else:
            fresh_child(host, {u, v, ev})
    out = Decomposition(dec.root, bags, children, loose)
    bad = validate_triangle_decomposition(gadget, out)
    if bad:
        raise AssertionError(f"gadget lift produced {bad}")
    return out


def from_gadget_decomposition(g: Graph, terminals, dhat: Decomposition) -> Decomposition:
    """Convert a triangle-free decomposition of the gadget expansion back.

    Terminals are first rotated out of the leaf set (their gadget makes
    sure a copy vertex can take their place).  Every subdivision vertex
    is then replaced by a fixed endpoint of its edge -- the smaller id --
    and an endpoint standing in for a non-leaf subdivision vertex is
    pulled out of the leaf set.  Width never increases.
    """
    terms = frozenset(terminals)
    gadget, gm = terminal_gadget_graph(g, terms)
    bad = validate_triangle_decomposition(gadget, dhat)
    if bad:
        raise ValueError(f"invalid gadget decomposition: {bad}")
    bags = {n: set(b) for n, b in dhat.bags.items()}
    loose = set(dhat.leaf_vertices)
    for t in sorted(terms & loose):
        occ = [n for n in dhat.nodes if t in bags[n]]
        x = occ[0]
        a, b = gm.terminal_copies[t]
        swap = a if a not in loose else b
        if swap in loose:
            raise AssertionError("terminal gadget entirely inside the leaf set")
        for n in bags:
            if n != x:
                bags[n].discard(swap)
        loose.discard(t)
        loose.add(swap)

    alpha = {e: e[0] for e in g.edges}  # stand-in endpoint: the smaller id
    keep = g.vertex_set
    demoted = {
        alpha[e] for e in g.edges if gm.edge_vertex[e] not in loose
    }
    new_loose = (loose & keep) - demoted
    new_bags = {}
    for n, bag in bags.items():
        projected = set(bag & keep)
        for ev in bag - keep:
            e = gm.vertex_edge.get(ev)
            if e is not None:
                projected.add(alpha[e])
        new_bags[n] = projected
    out = Decomposition(
        dhat.root,
        new_bags,
        {n: dhat.children[n] for n in dhat.bags},
        new_loose,
    )
    bad = validate_decomposition(g, terms, out)
    if bad:
        raise AssertionError(f"gadget conversion produced {bad}")
    return out
