"""Per-layer spans and counters for the traced run.

Each wrapper is rebound on the module attribute the caller looks up
(``steiner.dp.join`` is what ``compute_tables`` calls), so nothing inside
``steiner`` changes.  Spans share one stack: a span's self time is its
duration minus the time spent in wrapped calls below it.  A generator
is timed across its iteration, one span per ``next``, not at creation.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (label, bindings the label wraps); every binding gets its own wrapper
# around the function found there, all feeding the same label.  The
# parser is not here: the traced run times it apart from the solves.
SPANS = (
    ("cuts.minimum_multiway_cut", ("steiner.cli.minimum_multiway_cut",)),
    (
        "graph.is_multiway_cut",
        (
            "steiner.cli.is_multiway_cut",
            "steiner.cuts.is_multiway_cut",
            "steiner.connecting.is_multiway_cut",
            "steiner.decomposition.is_multiway_cut",
        ),
    ),
    (
        "graph.connected_components",
        (
            "steiner.graph.connected_components",
            "steiner.connecting.connected_components",
            "steiner.decomposition.connected_components",
            "steiner.dp.connected_components",
            "steiner.partitions.connected_components",
        ),
    ),
    ("graph.shortest_path", ("steiner.connecting.shortest_path",)),
    ("connecting.build_weights", ("steiner.connecting.build_weights",)),
    ("connecting.reconstruct_tree", ("steiner.connecting.reconstruct_tree",)),
    ("matching.min_cost_assignment", ("steiner.connecting.min_cost_assignment",)),
    ("exact.dreyfus_wagner.cli", ("steiner.cli.dreyfus_wagner",)),
    ("exact.dreyfus_wagner.connecting", ("steiner.connecting.dreyfus_wagner",)),
    ("exact.dreyfus_wagner.dp", ("steiner.dp.dreyfus_wagner",)),
    (
        "decomposition.validate_decomposition",
        ("steiner.cli.validate_decomposition", "steiner.decomposition.validate_decomposition"),
    ),
    ("dp.leaf_table", ("steiner.dp.leaf_table",)),
    ("dp.introduce_vertex", ("steiner.dp.introduce_vertex",)),
    ("dp.forget_vertex", ("steiner.dp.forget_vertex",)),
    ("dp.introduce_edge", ("steiner.dp.introduce_edge",)),
    ("dp.join_tables", ("steiner.dp.join_tables",)),
    ("representatives.cut_row", ("steiner.representatives.cut_row",)),
    ("representatives.reduce_subgraphs", ("steiner.dp.reduce_subgraphs",)),
    ("partitions.join", ("steiner.dp.join",)),
)

# Bindings only counted, not timed: cheap and called very often.
COUNTS = (
    ("partitions.restrict", "steiner.dp.restrict"),
    ("partitions.add_singleton", "steiner.dp.add_singleton"),
    ("partitions.pair_partition", "steiner.dp.pair_partition"),
)

# The per-layer metrics in the order they are reported, with units.
METRICS = (
    ("io.parse_pace.self_s", "s"),
    ("cuts.minimum_multiway_cut.self_s", "s"),
    ("cuts.candidates", "count"),
    ("graph.Graph.built", "count"),
    ("graph.is_multiway_cut.self_s", "s"),
    ("graph.connected_components.calls", "count"),
    ("graph.connected_components.self_s", "s"),
    ("graph.shortest_path.calls", "count"),
    ("graph.shortest_path.self_s", "s"),
    ("connecting.enumerate_connecting_systems.self_s", "s"),
    ("connecting.systems", "count"),
    ("connecting.build_weights.calls", "count"),
    ("connecting.build_weights.self_s", "s"),
    ("connecting.reconstruct_tree.calls", "count"),
    ("connecting.reconstruct_tree.self_s", "s"),
    ("matching.min_cost_assignment.calls", "count"),
    ("matching.min_cost_assignment.self_s", "s"),
    ("exact.dreyfus_wagner.cli.calls", "count"),
    ("exact.dreyfus_wagner.cli.self_s", "s"),
    ("exact.dreyfus_wagner.connecting.calls", "count"),
    ("exact.dreyfus_wagner.connecting.self_s", "s"),
    ("exact.dreyfus_wagner.dp.calls", "count"),
    ("exact.dreyfus_wagner.dp.self_s", "s"),
    ("decomposition.validate_decomposition.self_s", "s"),
    ("decomposition.to_nice.self_s", "s"),
    ("decomposition.nice_nodes", "count"),
    ("dp.leaf_table.calls", "count"),
    ("dp.leaf_table.self_s", "s"),
    ("dp.introduce_vertex.self_s", "s"),
    ("dp.forget_vertex.self_s", "s"),
    ("dp.introduce_edge.self_s", "s"),
    ("dp.join_tables.self_s", "s"),
    ("representatives.reduce_partitions.calls", "count"),
    ("representatives.reduce_partitions.self_s", "s"),
    ("representatives.cut_row.calls", "count"),
    ("representatives.cut_row.self_s", "s"),
    ("representatives.rows_in", "count"),
    ("representatives.rows_kept", "count"),
    ("representatives.reduce_subgraphs.self_s", "s"),
    ("partitions.join.calls", "count"),
    ("partitions.join.self_s", "s"),
    ("partitions.restrict.calls", "count"),
    ("partitions.add_singleton.calls", "count"),
    ("partitions.pair_partition.calls", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span stack plus per-label totals: ``self_s``, ``calls`` and counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # time spent in wrapped children, one slot per open span
        self._restore = []

    def _close(self, label, started, call=True):
        duration = perf_counter() - started
        self.self_s[label] += duration - self._stack.pop()
        self.calls[label] += call
        if self._stack:
            self._stack[-1] += duration

    def span(self, label, fn, after=None):
        """Time ``fn``; ``after(args, result)`` may add counts."""

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(label, started)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span_iter(self, label, fn, items):
        """Time a generator's iteration, one span per step, counting items."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[label] += 1
            while True:
                self._stack.append(0.0)
                started = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(label, started, call=False)
                self.counts[items] += 1
                yield item

        return wrapper

    def counted(self, label, fn):
        def wrapper(*args, **kwargs):
            self.counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, binding, make):
        module_name, attr = binding.rsplit(".", 1)
        self._rebind(importlib.import_module(module_name), attr, make)

    def _rebind(self, owner, attr, make):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Rebind every wrapped function; ``uninstall`` undoes it."""
        for label, bindings in SPANS:
            for binding in bindings:
                self.rebind(binding, lambda fn, label=label: self.span(label, fn))
        for label, binding in COUNTS:
            self.rebind(binding, lambda fn, label=label: self.counted(label + ".calls", fn))
        # the search's own predicate calls are its candidates
        self.rebind("steiner.cuts.is_multiway_cut", lambda fn: self.counted("cuts.candidates", fn))
        self.rebind(
            "steiner.connecting.enumerate_connecting_systems",
            lambda fn: self.span_iter("connecting.enumerate_connecting_systems", fn, "connecting.systems"),
        )
        self.rebind(
            "steiner.cli.to_nice",
            lambda fn: self.span("decomposition.to_nice", fn, self._count_nice),
        )
        for binding in ("steiner.dp.reduce_partitions", "steiner.representatives.reduce_partitions"):
            self.rebind(
                binding,
                lambda fn: self.span("representatives.reduce_partitions", fn, self._count_rows),
            )
        graph_cls = importlib.import_module("steiner.graph").Graph
        self._rebind(graph_cls, "__init__", lambda fn: self.counted("graph.Graph.built", fn))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count_nice(self, args, nice):
        self.counts["decomposition.nice_nodes"] += len(nice.bags)

    def _count_rows(self, args, reduced):
        self.counts["representatives.rows_in"] += len(args[0])
        self.counts["representatives.rows_kept"] += len(reduced)

    def value(self, name):
        """A metric of ``METRICS`` by name, from the totals so far."""
        if name in self.counts:
            return self.counts[name]
        label, _, kind = name.rpartition(".")
        if kind == "self_s":
            return self.self_s.get(label, 0.0)
        return self.calls.get(label, 0)
