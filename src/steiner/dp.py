"""Dynamic programming over nice decompositions with terminal-free leaf parts.

Every node stores, per used-boundary subset Z, a table of weighted
partitions of Z summarizing how partial solutions group the boundary.
Tables are pruned to representative sets after every step, which keeps
them single-exponential in the boundary size rather than in the number
of partitions.  Leaf parts are folded in through ``leaf_table``, which
builds representative subgraph families of the (possibly large) leaf
chunk by growing the boundary one vertex at a time and calling
Dreyfus-Wagner for the connecting pieces.

Every entry carries a witness built in O(1): a frozenset of edge keys,
or a pair ``(witness, witness)`` whose edge sets are disjoint.  Leaves
store the empty set, leaf tables the edges of their subgraphs, an edge
introduction pairs the child's witness with the new edge, and a join
pairs the two children's witnesses; vertex introduce and forget pass
the child's witness through.  The vertices of a witness are its edge
endpoints plus Z.  Only the winning entry is flattened, by
``witness_edges``.
"""

from __future__ import annotations

from .decomposition import (
    FORGET_VERTEX,
    INTRODUCE_EDGE,
    INTRODUCE_VERTEX,
    JOIN,
    LEAF,
    LEAF_INTRODUCE,
    NiceDecomposition,
    validate_nice,
)
from .exact import SteinerResult, dreyfus_wagner
from .graph import INF, Graph, Subgraph, connected_components, minimum_spanning_tree
from .partitions import (
    Partition,
    add_singleton,
    join,
    pair_partition,
    restrict,
)
from .representatives import PartitionTable, reduce_partitions, reduce_subgraphs

def leaf_table(g: Graph, inner, boundary) -> PartitionTable:
    """Representative subgraph families of g[inner | boundary] on the boundary.

    The boundary is consumed in sorted order; at each step every kept
    subgraph is extended by a minimum Steiner tree (computed with
    Dreyfus-Wagner) for each boundary subset containing the new vertex,
    and the family is re-reduced on the full boundary.  The result
    represents all subgraphs of g[inner | boundary] with at most
    2^(|boundary|-1) entries; each entry's witness is the edge set of
    the subgraph that realizes it.
    """
    inner = frozenset(inner)
    bound = frozenset(boundary)
    if inner & bound:
        raise ValueError("inner part and boundary must be disjoint")
    if not bound:
        raise ValueError("boundary must be non-empty")
    if not (inner | bound) <= g.vertex_set:
        raise ValueError("inner part and boundary must be graph vertices")
    order = sorted(bound)
    current = [g.empty_subgraph()]
    for i in range(1, len(order) + 1):
        zi = order[:i]
        z_new = zi[-1]
        scope = g.induced(inner | set(zi))
        pool = list(current)
        # Steiner subcalls depend only on the target subset, not on the
        # subgraph being extended, so each is solved once.
        for mask in range(1 << (i - 1)):
            targets = {z_new} | {zi[j] for j in range(i - 1) if mask >> j & 1}
            piece = dreyfus_wagner(scope, targets)
            if not piece.feasible:
                continue
            pv, pe = piece.tree.vertices, piece.tree.edges
            for sub in current:
                pool.append(Subgraph(g, sub.vertices | pv, sub.edges | pe))
        reduced = reduce_subgraphs(pool, order)
        current = [sub for _, _, sub in reduced.items()]
    table = PartitionTable(order)
    for p, w, sub in reduced.items():
        table.add(p, w, sub.edges)
    return table


def _start_table(z) -> PartitionTable:
    """Table holding only the empty partial solution on z, at cost zero."""
    table = PartitionTable(z)
    table.add(Partition.singletons(z), 0, frozenset())
    return table


def introduce_vertex(child: dict, v: int, z, terminals) -> PartitionTable:
    """Table after introducing vertex v, for used-boundary set z.

    An introduced vertex inside z joins every child entry as a fresh
    singleton; outside z it must not be a terminal, otherwise nothing
    survives; a non-terminal outside z leaves the table unchanged.
    """
    zset = frozenset(z)
    out = PartitionTable(zset)
    if v in zset:
        src = child.get(zset - {v})
        if src is not None:
            for p, w, wit in src.items():
                out.add(add_singleton(p, v), w, wit)
    elif v not in terminals:
        src = child.get(zset)
        if src is not None:
            for p, w, wit in src.items():
                out.add(p, w, wit)
    return out


def forget_vertex(child: dict, v: int, z) -> PartitionTable:
    """Table after forgetting vertex v for used-boundary set z.

    Solutions that never used v carry over; solutions that used v drop it
    from their partition unless it was a singleton block, since every
    component must stay attached to the boundary.
    """
    zset = frozenset(z)
    out = PartitionTable(zset)
    src = child.get(zset)
    if src is not None:
        for p, w, wit in src.items():
            out.add(p, w, wit)
    src = child.get(zset | {v})
    if src is not None:
        for p, w, wit in src.items():
            if p.is_singleton(v):
                continue
            out.add(restrict(p, zset), w, wit)
    return out


def introduce_edge(child: dict, edge, weight: int, z) -> PartitionTable:
    """Table after making one edge available, for used-boundary set z."""
    u, v = edge
    zset = frozenset(z)
    out = PartitionTable(zset)
    src = child.get(zset)
    if src is None:
        return out
    use_edge = u in zset and v in zset
    pairp = pair_partition(zset, u, v) if use_edge else None
    used = frozenset([edge])
    for p, w, wit in src.items():
        out.add(p, w, wit)
        if use_edge:
            out.add(join(p, pairp), w + weight, (wit, used))
    return out


def join_tables(left: dict, right: dict, z) -> PartitionTable:
    """Table combining two children over the same bag, for used-boundary z.

    Partitions join and weights add; the children's edge sets are
    disjoint because every edge is available on exactly one side.
    """
    zset = frozenset(z)
    out = PartitionTable(zset)
    a = left.get(zset)
    b = right.get(zset)
    if a is None or b is None:
        return out
    right_entries = b.items()
    for p1, w1, wit1 in a.items():
        for p2, w2, wit2 in right_entries:
            out.add(join(p1, p2), w1 + w2, (wit1, wit2))
    return out


def witness_edges(witness) -> set:
    """All edge keys of a DP witness, flattened without recursion."""
    edges = set()
    stack = [witness]
    while stack:
        wit = stack.pop()
        if isinstance(wit, tuple):
            stack.extend(wit)
        else:
            edges |= wit
    return edges


def _z_subsets(bag, terminals):
    """Used-boundary subsets in fixed order; each contains the bag terminals."""
    base = sorted(set(bag) & set(terminals))
    free = sorted(set(bag) - set(terminals))
    for mask in range(1 << len(free)):
        yield frozenset(base + [free[i] for i in range(len(free)) if mask >> i & 1])


def compute_tables(g: Graph, terminals, dec: NiceDecomposition):
    """Bottom-up node tables plus the vertex set seen below each node.

    Children of leaf-introduce nodes are folded into their parent via
    ``leaf_table`` and store no table of their own.  Every table is
    pruned to a representative set right after it is computed.
    """
    terms = frozenset(terminals)
    tables: dict[int, dict] = {}
    below: dict[int, frozenset] = {}
    handled_leaves = {
        dec.children[n][0] for n in dec.nodes if dec.kinds.get(n) == LEAF_INTRODUCE
    }
    for node in dec.postorder():
        bag = dec.bags[node]
        kids = dec.children[node]
        below[node] = bag.union(*(below[c] for c in kids)) if kids else bag
        if node in handled_leaves:
            continue
        kind = dec.kinds[node]
        node_tables = {}
        if kind == LEAF:
            for z in _z_subsets(bag, terms):
                node_tables[z] = _start_table(z)
        elif kind == LEAF_INTRODUCE:
            child = kids[0]
            child_bag = dec.bags[child]
            inner = child_bag - bag
            part_graph = Graph(
                child_bag,
                [(u, v, g.weight(u, v)) for u, v in dec.assigned_edges(child)],
            )
            for z in _z_subsets(bag, terms):
                node_tables[z] = leaf_table(part_graph, inner, z) if z else _start_table(z)
        elif kind == INTRODUCE_VERTEX:
            child = tables[kids[0]]
            v = dec.intro_vertex[node]
            for z in _z_subsets(bag, terms):
                node_tables[z] = introduce_vertex(child, v, z, terms)
        elif kind == FORGET_VERTEX:
            child = tables[kids[0]]
            v = dec.intro_vertex[node]
            for z in _z_subsets(bag, terms):
                node_tables[z] = forget_vertex(child, v, z)
        elif kind == INTRODUCE_EDGE:
            child = tables[kids[0]]
            e = dec.intro_edge[node]
            w = g.weight(*e)
            for z in _z_subsets(bag, terms):
                node_tables[z] = introduce_edge(child, e, w, z)
        elif kind == JOIN:
            left, right = tables[kids[0]], tables[kids[1]]
            for z in _z_subsets(bag, terms):
                node_tables[z] = join_tables(left, right, z)
        else:
            raise AssertionError(f"unhandled node kind {kind!r}")
        tables[node] = {z: reduce_partitions(t) for z, t in node_tables.items()}
    return tables, below


def solve_decomposition(
    g: Graph, terminals, dec: NiceDecomposition, witness: bool = False
) -> SteinerResult:
    """Minimum-weight Steiner tree via the decomposition DP.

    The answer is the cheapest single-block entry over all nodes whose
    seen-below vertex set already covers the terminals (the root always
    qualifies; checking the others also covers optima that avoid the
    root bag entirely).  With ``witness`` enabled the winning entry's
    witness is flattened into its edge set, padded with the vertices of
    Z, and its terminal component is returned as a minimum spanning tree,
    which must cost exactly the table weight.
    """
    terms = frozenset(terminals)
    if not terms <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    bad = validate_nice(g, terms, dec)
    if bad:
        raise ValueError(f"invalid nice decomposition: {bad}")
    if len(terms) <= 1:
        return SteinerResult(0, Subgraph(g, terms, frozenset()))

    tables, below = compute_tables(g, terms, dec)
    best_weight = INF
    best_entry = None
    for node in sorted(tables):
        if not terms <= below[node]:
            continue
        for z in sorted(tables[node], key=sorted):
            if not z:
                continue
            table = tables[node][z]
            for p, w in table.entries():
                if len(p) == 1 and w < best_weight:
                    best_weight = w
                    best_entry = (table, p, z)
    if best_weight == INF:
        return SteinerResult(INF, g.empty_subgraph() if witness else None)
    if not witness:
        return SteinerResult(best_weight, None)

    table, p, z = best_entry
    edges = witness_edges(table.witness(p))
    padded = Subgraph(g, z.union(*edges), edges)
    for comp in connected_components(padded):
        if terms <= comp:
            tree = minimum_spanning_tree(
                Subgraph(g, comp, [e for e in edges if e[0] in comp and e[1] in comp])
            )
            if tree.cost != best_weight:
                raise AssertionError("witness cost disagrees with the table weight")
            return SteinerResult(best_weight, tree)
    raise AssertionError("witness does not span the terminals")
