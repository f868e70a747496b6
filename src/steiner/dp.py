"""Dynamic programming over nice decompositions with terminal-free leaf parts.

Every node stores, per used-boundary subset Z that some partial solution
reaches, a table of weighted partitions of Z summarizing how partial
solutions group the boundary: a plain dict ``{blocks: (weight, witness)}``
keyed by the partition's mask tuple over the sorted Z, as in
``Partition.blocks``.  Transfer functions map a child's whole
``{Z: table}`` dict to the node's through the mask kernels of
``steiner.partitions`` and ``steiner.representatives``; they share a
table they pass through unchanged, and never build an empty table or
change one once built.  Of the ``Partition`` types, only ``leaf_table``'s
``PartitionTable`` result is built, and the DP reads its rows.
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
    width,
)
from .exact import SteinerResult, dreyfus_wagner
from .graph import INF, Graph, Subgraph, spanning_tree
from .graph import connected_components  # noqa: F401  kept: bench/layers.py rebinds it
# the mask kernels under their Partition-level names, which bench/layers.py wraps
from .partitions import add_singleton_blocks as add_singleton
from .partitions import join_blocks as join
from .partitions import pair_blocks as pair_partition
from .partitions import restrict_blocks as restrict
from .representatives import PartitionTable, reduce_subgraphs
from .representatives import reduce_rows as reduce_partitions

# Widest decomposition ``solve_decomposition`` accepts, leaf-part vertices
# not counted.  Rows grow like 3^width: on a 2-core machine with CPython
# 3.11, elimination decompositions of width 10 solve in about 5 s and of
# width 12 (bags of 13 vertices) in about 75 s with 0.8 GiB resident, and
# each further +2 of width costs 6-7x more, so anything wider is refused
# rather than left to run for hours.
MAX_WIDTH = 12


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
        current = [sub for _, sub in reduced.rows.values()]
    return PartitionTable(order, {b: (w, sub.edges) for b, (w, sub) in reduced.rows.items()})


def _position(z, v) -> int:
    """Bit position of vertex v among the sorted vertices of z."""
    return sum(1 for x in z if x < v)


def introduce_vertex(child: dict, v: int, terminals) -> dict:
    """Tables after introducing vertex v.

    Every child row gains v as a fresh singleton in table z | {v}; a
    non-terminal v may also stay unused, which leaves table z as it is.
    """
    out: dict = {}
    for z, src in child.items():
        i = _position(z, v)
        out[z | {v}] = {add_singleton(b, i): entry for b, entry in src.items()}
        if v not in terminals:
            out[z] = src
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
        src = child[z]
        if v not in z:
            out[z] = src
            continue
        kept = z - {v}
        i = _position(z, v)
        bit = 1 << i
        table = dict(out.get(kept, ()))  # a copy: out[kept] may be the child's table
        for b, entry in src.items():
            if bit in b:
                continue
            r = restrict(b, i)
            old = table.get(r)
            if old is None or entry[0] < old[0]:
                table[r] = entry
        if table:
            out[kept] = table
    return out


def introduce_edge(child: dict, edge, weight: int) -> dict:
    """Tables after making one edge available to rows whose Z holds both ends."""
    u, v = edge
    used = frozenset([edge])
    out: dict = {}
    for z, src in child.items():
        if u not in z or v not in z:
            out[z] = src
            continue
        pair = pair_partition(len(z), _position(z, u), _position(z, v))
        table = dict(src)
        for b, (w, wit) in src.items():
            j = join(b, pair)
            w += weight
            old = table.get(j)
            if old is None or w < old[0]:
                table[j] = (w, (wit, used))
        out[z] = table
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
        right_rows = list(right[z].items())
        table: dict = {}
        for b1, (w1, wit1) in a.items():
            for b2, (w2, wit2) in right_rows:
                j = join(b1, b2)
                w = w1 + w2
                old = table.get(j)
                if old is None or w < old[0]:
                    table[j] = (w, (wit1, wit2))
        out[z] = table
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
    tables = {frozenset(): {(): (0, frozenset())}}
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
                z: leaf_table(part_graph, inner, z).rows if z else start
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
    component, which must cost exactly the table weight.  A decomposition
    wider than ``MAX_WIDTH`` is refused with ``ValueError`` before any
    table is built.
    """
    terms = frozenset(terminals)
    if not terms <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    bad = validate_nice(g, terms, dec)
    if bad:
        raise ValueError(f"invalid nice decomposition: {bad}")
    dec_width = width(dec)
    if dec_width > MAX_WIDTH:
        raise ValueError(f"decomposition width {dec_width} exceeds the limit {MAX_WIDTH}")
    if len(terms) <= 1:
        return SteinerResult(0, Subgraph(g, terms, frozenset()))

    tables, below = compute_tables(g, terms, dec)
    best_weight = INF
    best_witness = None
    for node in sorted(tables):
        if not terms <= below[node]:
            continue
        for z in sorted(tables[node], key=sorted):
            if not z:
                continue
            for blocks, (w, wit) in tables[node][z].items():
                if len(blocks) == 1 and w < best_weight:
                    best_weight = w
                    best_witness = wit
    if best_weight == INF:
        return SteinerResult(INF, g.empty_subgraph())

    tree = spanning_tree(g, witness_edges(best_witness), terms)
    if tree is None:
        raise AssertionError("witness does not span the terminals")
    if tree.cost != best_weight:
        raise AssertionError("witness cost disagrees with the table weight")
    return SteinerResult(best_weight, tree)
