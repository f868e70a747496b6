"""Representative sets of weighted partitions.

A table of (partition, weight) pairs can be pruned to at most 2^(|U|-1)
entries while preserving, for every query partition Q, the minimum
weight among entries whose join with Q is the single block.  The prune
builds one GF(2) cut row per entry over the bipartitions of the universe
that fix its first element, sorts entries by weight, and keeps an entry
iff its cut row is linearly independent of those kept so far.  Cut rows
are plain Python int bitsets.

The kernels work on a table's rows, the plain dict
``{blocks: (weight, witness)}`` keyed by canonical mask tuples, which is
what the decomposition DP stores; ``PartitionTable`` wraps one such dict
with its universe for everything else.
"""

from __future__ import annotations

from .graph import INF
from .partitions import MAX_UNIVERSE, Partition, enumerate_partitions, join, project

_ABSENT = (INF, None)  # weight and witness of a partition not in a table


class PartitionTable:
    """Weighted partitions over one universe, minimum weight per partition.

    A typed view of ``rows``, the plain dict ``{blocks: (weight, witness)}``
    that the decomposition DP builds and reads directly: ``blocks`` is a
    partition's canonical mask tuple over ``universe``.  Each partition
    keeps the witness it was added with, an opaque object the caller
    chooses: the decomposition DP stores edge sets (see ``steiner.dp``),
    ``reduce_subgraphs`` the subgraphs themselves.
    """

    __slots__ = ("universe", "rows")

    def __init__(self, universe, rows=None):
        self.universe = tuple(sorted(set(universe)))
        self.rows: dict[tuple, tuple] = {} if rows is None else rows

    def add(self, partition: Partition, weight, witness=None):
        """Insert keeping the minimum weight per partition (first wins ties)."""
        if partition.universe != self.universe:
            raise ValueError("partition universe does not match the table")
        if weight == INF:
            return
        old = self.rows.get(partition.blocks)
        if old is None or weight < old[0]:
            self.rows[partition.blocks] = (weight, witness)

    def items(self) -> list[tuple[Partition, int, object]]:
        """(partition, weight, witness) triples in the order partitions were first added."""
        uni = self.universe
        return [(Partition(uni, b), w, wit) for b, (w, wit) in self.rows.items()]

    def entries(self) -> list[tuple[Partition, int]]:
        return [(p, w) for p, w, _ in self.items()]

    def _entry(self, partition: Partition):
        if partition.universe != self.universe:
            return _ABSENT
        return self.rows.get(partition.blocks, _ABSENT)

    def weight(self, partition: Partition):
        return self._entry(partition)[0]

    def witness(self, partition: Partition):
        return self._entry(partition)[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, partition: Partition) -> bool:
        return self._entry(partition) is not _ABSENT


def cut_row(blocks: tuple) -> int:
    """GF(2) row of a partition's blocks over the bipartitions fixing element 0.

    Column c puts the elements of mask ``c << 1`` on the far side; its bit
    is 1 iff every block fits into one side, so the ones are the columns
    ``far >> 1`` for ``far`` a union of blocks other than the one holding
    element 0 (the odd mask).
    """
    fars = [0]
    for b in blocks:
        if not b & 1:
            fars += [f | b for f in fars]
    row = 0
    for far in fars:
        row |= 1 << (far >> 1)
    return row


def reduce_rows(rows: dict) -> dict:
    """Mask kernel of ``reduce_partitions`` over ``{blocks: (weight, witness)}``.

    Rows are scanned by ascending weight (blocks breaking ties) and kept,
    weight and witness as they were, iff their cut row is independent of
    the kept ones; the result holds them in that scan order, at most
    2^max(0, |U|-1) of them.
    """
    out = {}
    basis: dict[int, int] = {}  # pivot bit -> reduced cut row
    for blocks, entry in sorted(rows.items(), key=lambda item: (item[1][0], item[0])):
        row = cut_row(blocks)
        while row:
            pivot = row & -row
            other = basis.get(pivot)
            if other is None:
                break
            row ^= other
        if row:
            basis[row & -row] = row
            out[blocks] = entry
    return out


def reduce_partitions(table: PartitionTable) -> PartitionTable:
    """Representative subset of a table, at most 2^max(0, |U|-1) entries."""
    if len(table.universe) > MAX_UNIVERSE:
        raise ValueError("universe too large to reduce")
    return PartitionTable(table.universe, reduce_rows(table.rows))


def is_representative(reduced: PartitionTable, full: PartitionTable) -> bool:
    """Brute-force check of the representation contract (testing oracle).

    For every query partition Q the minimum weight joining with Q to the
    single block must agree between the two tables.  Universe limited to
    6 elements.
    """
    if reduced.universe != full.universe:
        raise ValueError("tables over different universes")
    uni = full.universe
    if len(uni) > 6:
        raise ValueError("universe too large for the brute-force check")
    target = Partition.single_block(uni)

    def best(table, q):
        return min(
            (w for p, w in table.entries() if join(p, q) == target),
            default=INF,
        )

    return all(
        best(full, q) == best(reduced, q) for q in enumerate_partitions(uni)
    )


def reduce_subgraphs(subgraphs, boundary) -> PartitionTable:
    """Representative subgraphs of a family, summarized on a boundary.

    Each subgraph is projected to its boundary partition at its cost,
    duplicates keep the cheapest subgraph, and the table is reduced.
    Every surviving entry's witness is the subgraph that realizes it.
    """
    table = PartitionTable(boundary)
    for sub in subgraphs:
        table.add(project(sub, table.universe), sub.cost, sub)
    return reduce_partitions(table)
