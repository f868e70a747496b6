"""Partitions of a finite ordered universe.

This is the connectivity bookkeeping language of the decomposition DP: a
partial solution is summarized by how it groups the boundary vertices.
A partition is a plain ``(universe, blocks)`` tuple value whose blocks
are bitmasks over the sorted universe (at most 62 elements), which keeps
the lattice join and the cut-matrix rows of the representative-set
machinery at a few word operations per block.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .graph import Subgraph, connected_components

MAX_UNIVERSE = 62


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical(masks) -> tuple[int, ...]:
    """Nonzero masks in ascending int order: the one order ``blocks`` uses.

    Blocks are disjoint, so plain int comparison orders them by highest
    element and no two compare equal.
    """
    return tuple(sorted(m for m in masks if m))


class Partition(namedtuple("Partition", ("universe", "blocks"))):
    """A partition of an ordered universe into disjoint covering blocks.

    A plain ``(universe, blocks)`` tuple value: ``universe`` is a sorted
    tuple of vertex ids and ``blocks`` a tuple of nonzero bitmasks over
    it in ascending int order, so tuple equality and hashing are
    structural.  ``len(p.blocks)`` counts the blocks; ``len(p)`` is the
    tuple's 2.  The constructor trusts its arguments: the functions of
    this module build every partition with canonical blocks.
    """

    __slots__ = ()

    @classmethod
    def from_sets(cls, universe, groups) -> "Partition":
        uni = tuple(sorted(set(universe)))
        if len(uni) > MAX_UNIVERSE:
            raise ValueError(f"universe larger than {MAX_UNIVERSE} elements")
        pos = {v: i for i, v in enumerate(uni)}
        masks = []
        seen = 0
        for grp in groups:
            m = 0
            for v in grp:
                if v not in pos:
                    raise ValueError(f"element {v} outside the universe")
                m |= 1 << pos[v]
            if m & seen:
                raise ValueError("blocks overlap")
            seen |= m
            masks.append(m)
        if seen != (1 << len(uni)) - 1:
            raise ValueError("blocks must cover the universe")
        return cls(uni, _canonical(masks))

    @classmethod
    def singletons(cls, universe) -> "Partition":
        uni = tuple(sorted(set(universe)))
        return cls(uni, tuple(1 << i for i in range(len(uni))))

    @classmethod
    def single_block(cls, universe) -> "Partition":
        uni = tuple(sorted(set(universe)))
        return cls(uni, ((1 << len(uni)) - 1,) if uni else ())

    def as_sets(self) -> list[frozenset[int]]:
        uni = self.universe
        return [frozenset(uni[i] for i in _bits(m)) for m in self.blocks]

    def block_of(self, v: int) -> frozenset[int]:
        try:
            i = self.universe.index(v)
        except ValueError:
            raise ValueError(f"element {v} outside the universe") from None
        bit = 1 << i
        for m in self.blocks:
            if m & bit:
                return frozenset(self.universe[j] for j in _bits(m))
        raise AssertionError("partition does not cover its universe")

    def is_singleton(self, v: int) -> bool:
        """True iff ``v`` forms a block on its own."""
        return 1 << self.universe.index(v) in self.blocks

    def __repr__(self):
        sets = "/".join(
            ",".join(str(v) for v in sorted(b)) for b in self.as_sets()
        )
        return f"Partition({sets or 'empty'})"


def _require_same_universe(p: Partition, q: Partition):
    if p.universe != q.universe:
        raise ValueError("partitions over different universes")


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition coarser than both: each block of q absorbs those it meets.

    Returns ``p`` itself when no block of q meets two blocks of p; the
    singleton blocks of q never do.
    """
    _require_same_universe(p, q)
    blocks = p.blocks
    for qb in q.blocks:
        if not qb & (qb - 1):
            continue
        merged = qb
        rest = []
        for m in blocks:
            if m & qb:
                merged |= m
            else:
                rest.append(m)
        if len(rest) < len(blocks) - 1:  # qb met two blocks or more
            rest.append(merged)
            blocks = rest
    if blocks is p.blocks:
        return p
    return Partition(p.universe, _canonical(blocks))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``q`` lies inside some block of ``p``."""
    _require_same_universe(p, q)
    for qb in q.blocks:
        if not any(qb & pb == qb for pb in p.blocks):
            return False
    return True


def restrict(p: Partition, keep) -> Partition:
    """Partition of ``keep`` obtained by intersecting blocks and dropping empties."""
    keep = frozenset(keep)
    uni, blocks = p.universe, p.blocks
    dropped = [i for i in reversed(range(len(uni))) if uni[i] not in keep]
    if len(uni) - len(dropped) != len(keep):
        raise ValueError("restriction set must be a subset of the universe")
    for i in dropped:  # highest first, so lower positions stay put
        low = (1 << i) - 1
        blocks = [(m & low) | (m >> 1 & ~low) for m in blocks]
    return Partition(tuple(v for v in uni if v in keep), _canonical(blocks))


def project(f: Subgraph, vertices) -> Partition:
    """Partition of ``vertices`` by the connected components of subgraph ``f``.

    Vertices absent from ``f`` become singleton blocks.
    """
    uni = frozenset(vertices)
    if not uni <= f.parent.vertex_set:
        raise ValueError("projection set must be a subset of the parent graph")
    comp_id: dict[int, int] = {}
    for i, comp in enumerate(connected_components(f)):
        for v in comp:
            comp_id[v] = i
    groups: dict[object, set[int]] = {}
    for v in uni:
        key = comp_id.get(v, ("lone", v))
        groups.setdefault(key, set()).add(v)
    return Partition.from_sets(uni, groups.values())


def pair_partition(universe, u: int, v: int) -> Partition:
    """Partition of ``universe`` with u, v grouped and all others singleton."""
    uni = tuple(sorted(universe))
    if len(uni) > MAX_UNIVERSE:
        raise ValueError(f"universe larger than {MAX_UNIVERSE} elements")
    if u not in uni or v not in uni:
        raise ValueError(f"pair ({u}, {v}) outside the universe")
    pair = 1 << uni.index(u) | 1 << uni.index(v)
    blocks = [pair] + [1 << i for i in range(len(uni)) if not pair >> i & 1]
    return Partition(uni, _canonical(blocks))


def add_singleton(p: Partition, v: int) -> Partition:
    """Extend the universe with a fresh element forming its own block."""
    uni = p.universe
    if v in uni:
        raise ValueError(f"element {v} already in the universe")
    if len(uni) >= MAX_UNIVERSE:
        raise ValueError(f"universe larger than {MAX_UNIVERSE} elements")
    i = bisect_left(uni, v)
    low = (1 << i) - 1
    blocks = [(m & low) | (m & ~low) << 1 for m in p.blocks] + [1 << i]
    return Partition(uni[:i] + (v,) + uni[i:], _canonical(blocks))


def enumerate_partitions(universe):
    """Yield every partition of the universe in a fixed order."""
    uni = tuple(sorted(set(universe)))
    n = len(uni)
    if n == 0:
        yield Partition(uni, ())
        return

    blocks: list[list[int]] = []

    def rec(i):
        if i == n:
            yield Partition.from_sets(uni, [list(b) for b in blocks])
            return
        v = uni[i]
        for b in blocks:
            b.append(v)
            yield from rec(i + 1)
            b.pop()
        blocks.append([v])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)
