"""Representative sets of weighted partitions.

A table of (partition, weight) pairs can be pruned to at most 2^(|U|-1)
entries while preserving, for every query partition Q, the minimum
weight among entries whose join with Q is the single block.  The prune
builds one GF(2) row per entry over the bipartitions of the universe
that fix its first element, sorts rows by weight, and keeps a row iff it
is linearly independent of the rows kept so far.  Rows are plain Python
int bitsets.
"""

from __future__ import annotations

from .graph import INF
from .partitions import Partition, enumerate_partitions, join, project

_ABSENT = (INF, None)  # weight and witness of a partition not in a table


class PartitionTable:
    """Weighted partitions over one universe, minimum weight per partition.

    Each partition keeps the witness it was added with, an opaque object
    the caller chooses: the decomposition DP stores edge sets (see
    ``steiner.dp``), ``reduce_subgraphs`` the subgraphs themselves.
    """

    __slots__ = ("universe", "_entries")

    def __init__(self, universe):
        self.universe = tuple(sorted(set(universe)))
        self._entries: dict[Partition, tuple] = {}  # partition -> (weight, witness)

    def add(self, partition: Partition, weight, witness=None):
        """Insert keeping the minimum weight per partition (first wins ties)."""
        if partition.universe != self.universe:
            raise ValueError("partition universe does not match the table")
        if weight == INF:
            return
        old = self._entries.get(partition)
        if old is None or weight < old[0]:
            self._entries[partition] = (weight, witness)

    def items(self) -> list[tuple[Partition, int, object]]:
        """(partition, weight, witness) triples in the order partitions were first added."""
        return [(p, w, wit) for p, (w, wit) in self._entries.items()]

    def entries(self) -> list[tuple[Partition, int]]:
        return [(p, w) for p, w, _ in self.items()]

    def weight(self, partition: Partition):
        return self._entries.get(partition, _ABSENT)[0]

    def witness(self, partition: Partition):
        return self._entries.get(partition, _ABSENT)[1]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, partition: Partition) -> bool:
        return partition in self._entries


def cut_row(partition: Partition) -> int:
    """GF(2) row of a partition over the bipartitions fixing its first element.

    Column c puts the elements of mask ``c << 1`` on the far side; its bit
    is 1 iff every block fits into one side, so the ones are the columns
    ``far >> 1`` for ``far`` a union of blocks other than the first.
    """
    fars = [0]
    for b in partition.blocks[1:]:
        fars += [f | b for f in fars]
    row = 0
    for far in fars:
        row |= 1 << (far >> 1)
    return row


def reduce_partitions(table: PartitionTable) -> PartitionTable:
    """Representative subset of a table, at most 2^max(0, |U|-1) entries.

    Entries are scanned by ascending weight (blocks breaking ties)
    and kept iff their cut-matrix row is independent of the kept rows;
    the result holds them in that scan order.
    """
    if len(table.universe) > 62:
        raise ValueError("universe too large to reduce")
    out = PartitionTable(table.universe)
    ranked = sorted(table._entries.items(), key=lambda item: (item[1][0], item[0].blocks))
    basis: dict[int, int] = {}  # pivot bit -> reduced row
    for partition, entry in ranked:
        row = cut_row(partition)
        while row:
            pivot = row & -row
            other = basis.get(pivot)
            if other is None:
                break
            row ^= other
        if row:
            basis[row & -row] = row
            out._entries[partition] = entry  # weight and witness as they were
    return out


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
