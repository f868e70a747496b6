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

from dataclasses import dataclass

from .graph import INF, Subgraph
from .partitions import Partition, enumerate_partitions, join, project


class PartitionTable:
    """Weighted partitions over one universe, minimum weight per partition.

    Optionally carries one witness subgraph per surviving partition; the
    witness realizes the partition on the universe at exactly its weight.
    """

    __slots__ = ("universe", "_weights", "_witnesses")

    def __init__(self, universe, track_witness: bool = False):
        self.universe = tuple(sorted(set(universe)))
        self._weights: dict[Partition, int] = {}
        self._witnesses = {} if track_witness else None

    @property
    def tracks_witness(self) -> bool:
        return self._witnesses is not None

    def add(self, partition: Partition, weight, witness=None):
        """Insert keeping the minimum weight per partition (first wins ties)."""
        if partition.universe != self.universe:
            raise ValueError("partition universe does not match the table")
        if weight == INF:
            return
        old = self._weights.get(partition)
        if old is None or weight < old:
            self._weights[partition] = weight
            if self._witnesses is not None:
                self._witnesses[partition] = witness

    def entries(self) -> list[tuple[Partition, int]]:
        return sorted(self._weights.items(), key=lambda item: item[0].key)

    def weight(self, partition: Partition):
        return self._weights.get(partition, INF)

    def witness(self, partition: Partition):
        if self._witnesses is None:
            return None
        return self._witnesses.get(partition)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, partition: Partition) -> bool:
        return partition in self._weights


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

    Entries are scanned by ascending weight (partition key breaking ties)
    and kept iff their cut-matrix row is independent of the kept rows.
    """
    if len(table.universe) > 62:
        raise ValueError("universe too large to reduce")
    out = PartitionTable(table.universe, table.tracks_witness)
    ranked = sorted(table._weights.items(), key=lambda item: (item[1], item[0].key))
    basis: dict[int, int] = {}  # pivot bit -> reduced row
    for partition, weight in ranked:
        row = cut_row(partition)
        while row:
            pivot = row & -row
            other = basis.get(pivot)
            if other is None:
                break
            row ^= other
        if row:
            basis[row & -row] = row
            out.add(partition, weight, table.witness(partition))
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


@dataclass(frozen=True)
class WitnessedEntry:
    partition: Partition
    weight: int
    witness: Subgraph


def reduce_subgraphs(subgraphs, boundary) -> list[WitnessedEntry]:
    """Representative subgraphs of a family, summarized on a boundary.

    Each subgraph is projected to its boundary partition, duplicates keep
    the cheapest witness, and the partition table is reduced.  The
    surviving entries keep one witness subgraph each.
    """
    uni = tuple(sorted(set(boundary)))
    table = PartitionTable(uni, track_witness=True)
    for sub in subgraphs:
        table.add(project(sub, uni), sub.cost, sub)
    reduced = reduce_partitions(table)
    return [
        WitnessedEntry(p, w, reduced.witness(p)) for p, w in reduced.entries()
    ]
