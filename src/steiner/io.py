"""Instance and decomposition text formats, plus the test-instance generator.

The instance format follows PACE 2018 Track 1: a ``SECTION Graph`` block
with ``Nodes``/``Edges``/``E u v w`` lines and a ``SECTION Terminals``
block with ``Terminals``/``T v`` lines, closed by ``END`` and ``EOF``.
Cut files carry ``CUT s`` plus one vertex per line.  Decomposition files
(``TKD`` header, or ``TFD`` for decompositions of the triangle-gadget
expansion) carry a node count and width, a ``ROOT`` line, ``B`` bag
lines, ``TE`` tree edges and one ``L`` leaf-set line.  ``#`` starts a
comment anywhere; parsing is line-based and whitespace-separated.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import Graph

MAX_NODES = 1_000_000  # every declared vertex is built, so the count is capped


class FormatError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# a namedtuple, not a dataclass: ``dataclasses`` would load ``inspect`` at start-up
Instance = namedtuple("Instance", ("graph", "terminals", "name"), defaults=("instance",))
Instance.__doc__ = "A Steiner instance: a Graph, a frozenset of terminal ids and a name."


def _content_lines(text):
    """Yield (line_number, tokens) skipping blanks and comments."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "c":
            continue
        yield no, tokens


def parse_pace(text: str, name: str = "instance") -> Instance:
    """Parse a PACE-style Steiner instance; errors carry line numbers."""
    n_nodes = None
    n_edges = None
    n_terms = None
    edges = []
    terminals = []
    section = None
    saw_eof = False
    for no, tokens in _content_lines(text):
        head = tokens[0]
        if saw_eof:
            raise FormatError("content after EOF", no)
        if head == "SECTION":
            if section is not None:
                raise FormatError("SECTION inside an open section", no)
            if len(tokens) != 2 or tokens[1] not in ("Graph", "Terminals"):
                raise FormatError(f"unknown section {' '.join(tokens[1:])!r}", no)
            section = tokens[1]
            if section == "Graph" and n_nodes is not None:
                raise FormatError("duplicate Graph section", no)
            if section == "Terminals" and n_terms is not None:
                raise FormatError("duplicate Terminals section", no)
        elif head == "END":
            if section is None:
                raise FormatError("END outside a section", no)
            section = None
        elif head == "EOF":
            if section is not None:
                raise FormatError("EOF inside an open section", no)
            saw_eof = True
        elif section == "Graph":
            if head == "Nodes" and len(tokens) == 2:
                n_nodes = _int(tokens[1], no)
                if n_nodes > MAX_NODES:
                    raise FormatError(f"{n_nodes} nodes exceed the limit of {MAX_NODES}", no)
            elif head == "Edges" and len(tokens) == 2:
                n_edges = _int(tokens[1], no)
            elif head == "E" and len(tokens) == 4:
                edges.append(
                    (_int(tokens[1], no), _int(tokens[2], no), _int(tokens[3], no))
                )
            else:
                raise FormatError(f"malformed graph line {' '.join(tokens)!r}", no)
        elif section == "Terminals":
            if head == "Terminals" and len(tokens) == 2:
                n_terms = _int(tokens[1], no)
            elif head == "T" and len(tokens) == 2:
                terminals.append(_int(tokens[1], no))
            else:
                raise FormatError(f"malformed terminal line {' '.join(tokens)!r}", no)
        else:
            raise FormatError(f"unexpected line {' '.join(tokens)!r}", no)
    if section is not None:
        raise FormatError("unterminated section (missing END)")
    if not saw_eof:
        raise FormatError("missing EOF")
    if n_nodes is None:
        raise FormatError("missing Nodes declaration")
    if n_edges is not None and n_edges != len(edges):
        raise FormatError(f"declared {n_edges} edges but found {len(edges)}")
    if n_terms is not None and n_terms != len(terminals):
        raise FormatError(f"declared {n_terms} terminals but found {len(terminals)}")
    for u, v, w in edges:
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise FormatError(f"edge ({u}, {v}) outside 1..{n_nodes}")
        if w < 0:
            raise FormatError(f"negative weight on edge ({u}, {v})")
    for t in terminals:
        if not 1 <= t <= n_nodes:
            raise FormatError(f"terminal {t} outside 1..{n_nodes}")
    graph = Graph(range(1, n_nodes + 1), edges)
    return Instance(graph, frozenset(terminals), name)


def _int(token, line):
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", line) from None


def emit_pace(instance: Instance) -> str:
    """Canonical PACE text for an instance (stable under re-parsing).

    The format identifies vertices with 1..n, so the node count is the
    largest vertex id.
    """
    g = instance.graph
    nodes = max(g.vertices, default=0)
    lines = ["SECTION Graph", f"Nodes {nodes}", f"Edges {g.edge_count}"]
    for u, v, w in g.edge_items():
        lines.append(f"E {u} {v} {w}")
    lines.append("END")
    lines.append("")
    lines.append("SECTION Terminals")
    lines.append(f"Terminals {len(instance.terminals)}")
    for t in sorted(instance.terminals):
        lines.append(f"T {t}")
    lines.append("END")
    lines.append("")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def parse_cut(text: str) -> frozenset[int]:
    """Cut file: ``CUT s`` then s lines with one vertex id each."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty cut file")
    no, tokens = lines[0]
    if tokens[0] != "CUT" or len(tokens) != 2:
        raise FormatError("cut file must start with 'CUT <size>'", no)
    size = _int(tokens[1], no)
    vertices = set()
    for no, tokens in lines[1:]:
        if len(tokens) != 1:
            raise FormatError("expected one vertex id per line", no)
        v = _int(tokens[0], no)
        if v in vertices:
            raise FormatError(f"duplicate cut vertex {v}", no)
        vertices.add(v)
    if len(vertices) != size:
        raise FormatError(f"declared {size} cut vertices but found {len(vertices)}")
    return frozenset(vertices)


def emit_cut(cut) -> str:
    vertices = sorted(cut)
    return "\n".join([f"CUT {len(vertices)}"] + [str(v) for v in vertices]) + "\n"


def parse_decomposition(text: str) -> tuple[str, Decomposition]:
    """Decomposition file; returns the header kind ('TKD' or 'TFD') and the tree."""
    # imported here, so that reading an instance loads no decomposition code
    from .decomposition import Decomposition, width

    header_kind = None
    n_nodes = None
    declared_width = None
    root = None
    bags = {}
    tree_edges = []
    leaf_set = None
    for no, tokens in _content_lines(text):
        head = tokens[0]
        if head in ("TKD", "TFD"):
            if header_kind is not None:
                raise FormatError("duplicate header", no)
            if len(tokens) != 3:
                raise FormatError("header must be 'TKD|TFD <nodes> <width>'", no)
            header_kind = head
            n_nodes = _int(tokens[1], no)
            declared_width = _int(tokens[2], no)
        elif head == "ROOT":
            if len(tokens) != 2 or root is not None:
                raise FormatError("expected a single 'ROOT <id>' line", no)
            root = _int(tokens[1], no)
        elif head == "B":
            if len(tokens) < 3:
                raise FormatError("bag line must be 'B <id> <size> <v...>'", no)
            nid = _int(tokens[1], no)
            size = _int(tokens[2], no)
            verts = [_int(t, no) for t in tokens[3:]]
            if len(verts) != size:
                raise FormatError(
                    f"bag {nid} declares {size} vertices but lists {len(verts)}", no
                )
            if nid in bags:
                raise FormatError(f"duplicate bag {nid}", no)
            bags[nid] = frozenset(verts)
        elif head == "TE":
            if len(tokens) != 3:
                raise FormatError("tree edge must be 'TE <parent> <child>'", no)
            tree_edges.append((_int(tokens[1], no), _int(tokens[2], no)))
        elif head == "L":
            if leaf_set is not None:
                raise FormatError("duplicate L line", no)
            if len(tokens) < 2:
                raise FormatError("leaf line must be 'L <count> <v...>'", no)
            count = _int(tokens[1], no)
            verts = [_int(t, no) for t in tokens[2:]]
            if len(verts) != count:
                raise FormatError(
                    f"leaf set declares {count} vertices but lists {len(verts)}", no
                )
            leaf_set = frozenset(verts)
        else:
            raise FormatError(f"unexpected line {' '.join(tokens)!r}", no)
    if header_kind is None:
        raise FormatError("missing TKD/TFD header")
    if root is None:
        raise FormatError("missing ROOT line")
    if len(bags) != n_nodes:
        raise FormatError(f"declared {n_nodes} nodes but found {len(bags)} bags")
    children: dict[int, list[int]] = {n: [] for n in bags}
    for p, c in tree_edges:
        if p not in bags or c not in bags:
            raise FormatError(f"tree edge ({p}, {c}) references an unknown node")
        children[p].append(c)
    try:
        dec = Decomposition(root, bags, children, leaf_set or frozenset())
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    actual = width(dec)
    if actual != declared_width:
        raise FormatError(
            f"declared width {declared_width} but the decomposition has width {actual}"
        )
    return header_kind, dec


def emit_decomposition(dec: Decomposition, kind: str = "TKD") -> str:
    from .decomposition import width

    if kind not in ("TKD", "TFD"):
        raise ValueError("kind must be 'TKD' or 'TFD'")
    lines = [f"{kind} {len(dec.bags)} {width(dec)}", f"ROOT {dec.root}"]
    for n in dec.nodes:
        bag = sorted(dec.bags[n])
        lines.append(" ".join(["B", str(n), str(len(bag))] + [str(v) for v in bag]))
    for n in dec.nodes:
        for c in dec.children[n]:
            lines.append(f"TE {n} {c}")
    leaf = sorted(dec.leaf_vertices)
    lines.append(" ".join(["L", str(len(leaf))] + [str(v) for v in leaf]))
    return "\n".join(lines) + "\n"


def generate_instance(seed: int, n: int, m: int, k: int, wmax: int) -> Instance:
    """Reproducible random connected instance.

    A random recursive tree guarantees connectivity; the remaining edges
    are drawn uniformly from the non-tree pairs.  Identical parameters
    always produce byte-identical instances.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= k <= n:
        raise ValueError("terminal count out of range")
    if wmax < 1:
        raise ValueError("maximum weight must be positive")
    max_edges = n * (n - 1) // 2
    if not n - 1 <= m <= max_edges:
        raise ValueError(f"edge count must be in [{n - 1}, {max_edges}]")
    import random

    rng = random.Random(seed)
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randrange(1, v), v))
    spare = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(spare)
    for e in spare[: m - len(edges)]:
        edges.add(e)
    weighted = [(u, v, rng.randint(1, wmax)) for u, v in sorted(edges)]
    terminals = frozenset(rng.sample(range(1, n + 1), k))
    graph = Graph(range(1, n + 1), weighted)
    return Instance(graph, terminals, f"random-{seed}-{n}-{m}-{k}-{wmax}")
