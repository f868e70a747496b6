"""Dynamic programming over nice decompositions with terminal-free leaf parts.

Every node stores, per used-boundary subset Z that some partial solution
reaches, a table of weighted partitions of Z summarizing how partial
solutions group the boundary; transfer functions map a child's whole
``{Z: table}`` dict to the node's and never build an empty table.
After every step a table larger than the rank bound 2^max(0, |Z|-1) is
pruned to a representative set, which keeps tables single-exponential in
the boundary size rather than in the number of partitions; a table
within the bound is kept whole, since it represents itself.  Leaf parts
are folded in through ``leaf_table``, which builds representative
subgraph families of the (possibly large) leaf chunk by growing the
boundary one vertex at a time and calling Dreyfus-Wagner for the
connecting pieces.

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
from .graph import INF, Graph, Subgraph, spanning_tree
from .graph import connected_components  # noqa: F401  kept: bench/layers.py rebinds it
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


def _put(out: dict, z, p: Partition, w, wit):
    """Add an entry to table z of a node's tables, creating it on first use."""
    table = out.get(z)
    if table is None:
        table = out[z] = PartitionTable(z)
    table.add(p, w, wit)


def introduce_vertex(child: dict, v: int, terminals) -> dict:
    """Tables after introducing vertex v.

    Every child entry gains v as a fresh singleton in table z | {v}; a
    non-terminal v may also stay unused, leaving the entry in table z.
    """
    out: dict = {}
    for z, src in child.items():
        entries = src.items()
        with_v = z | {v}
        for p, w, wit in entries:
            _put(out, with_v, add_singleton(p, v), w, wit)
        if v not in terminals:
            for p, w, wit in entries:
                _put(out, z, p, w, wit)
    return out


def forget_vertex(child: dict, v: int) -> dict:
    """Tables after forgetting vertex v.

    Solutions that never used v carry over; solutions that used v drop it
    from their partition unless it was a singleton block, since every
    component must stay attached to the boundary.  Child tables are read
    by size, so table z is read before table z | {v}.
    """
    out: dict = {}
    for z in sorted(child, key=len):
        kept = z - {v}
        for p, w, wit in child[z].items():
            if v not in z:
                _put(out, z, p, w, wit)
            elif not p.is_singleton(v):
                _put(out, kept, restrict(p, kept), w, wit)
    return out


def introduce_edge(child: dict, edge, weight: int) -> dict:
    """Tables after making one edge available to entries whose Z holds both ends."""
    u, v = edge
    used = frozenset([edge])
    out: dict = {}
    for z, src in child.items():
        pairp = pair_partition(z, u, v) if u in z and v in z else None
        for p, w, wit in src.items():
            _put(out, z, p, w, wit)
            if pairp is not None:
                _put(out, z, join(p, pairp), w + weight, (wit, used))
    return out


def join_tables(left: dict, right: dict) -> dict:
    """Tables combining two children over the same bag.

    Tables with the same used set pair up; partitions join and weights
    add.  The children's edge sets are disjoint because every edge is
    available on exactly one side.
    """
    out: dict = {}
    for z, a in left.items():
        if z not in right:
            continue
        right_entries = right[z].items()
        for p1, w1, wit1 in a.items():
            for p2, w2, wit2 in right_entries:
                _put(out, z, join(p1, p2), w1 + w2, (wit1, wit2))
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


def _bag_start(bag, terminals) -> dict:
    """Tables of a bag before any edge: its vertices introduced one by one."""
    empty = PartitionTable(())
    empty.add(Partition.singletons(()), 0, frozenset())
    tables = {frozenset(): empty}
    for v in sorted(bag):
        tables = introduce_vertex(tables, v, terminals)
    return tables


def compute_tables(g: Graph, terminals, dec: NiceDecomposition):
    """Bottom-up node tables plus the vertex set seen below each node.

    A node stores one table per used-boundary set Z that some partial
    solution reaches; every Z holds the bag's terminals.  Children of
    leaf-introduce nodes are folded into their parent via ``leaf_table``
    and store no table of their own.  A table holding more than
    2^max(0, |Z|-1) entries is pruned to a representative set right
    after it is computed; ``reduce_partitions`` guarantees no more, so a
    table within that bound stays as it is and still represents itself.
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
        if kind == LEAF:
            node_tables = _bag_start(bag, terms)
        elif kind == LEAF_INTRODUCE:
            child = kids[0]
            child_bag = dec.bags[child]
            inner = child_bag - bag
            part_graph = Graph(
                child_bag,
                [(u, v, g.weight(u, v)) for u, v in dec.assigned_edges(child)],
            )
            node_tables = {
                z: leaf_table(part_graph, inner, z) if z else start
                for z, start in _bag_start(bag, terms).items()
            }
        elif kind == INTRODUCE_VERTEX:
            node_tables = introduce_vertex(tables[kids[0]], dec.intro_vertex[node], terms)
        elif kind == FORGET_VERTEX:
            node_tables = forget_vertex(tables[kids[0]], dec.intro_vertex[node])
        elif kind == INTRODUCE_EDGE:
            e = dec.intro_edge[node]
            node_tables = introduce_edge(tables[kids[0]], e, g.weight(*e))
        elif kind == JOIN:
            node_tables = join_tables(tables[kids[0]], tables[kids[1]])
        else:
            raise AssertionError(f"unhandled node kind {kind!r}")
        tables[node] = {
            z: reduce_partitions(t) if len(t) > 1 << max(0, len(z) - 1) else t
            for z, t in node_tables.items()
        }
    return tables, below


def solve_decomposition(g: Graph, terminals, dec: NiceDecomposition) -> SteinerResult:
    """Minimum-weight Steiner tree via the decomposition DP.

    The answer is the cheapest single-block entry over all nodes whose
    seen-below vertex set already covers the terminals (the root always
    qualifies; checking the others also covers optima that avoid the
    root bag entirely).  The winning entry's witness is flattened into
    its edge set and returned as a minimum spanning tree of its terminal
    component, which must cost exactly the table weight.
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
                if len(p.blocks) == 1 and w < best_weight:
                    best_weight = w
                    best_entry = (table, p)
    if best_weight == INF:
        return SteinerResult(INF, g.empty_subgraph())

    table, p = best_entry
    tree = spanning_tree(g, witness_edges(table.witness(p)), terms)
    if tree is None:
        raise AssertionError("witness does not span the terminals")
    if tree.cost != best_weight:
        raise AssertionError("witness cost disagrees with the table weight")
    return SteinerResult(best_weight, tree)
