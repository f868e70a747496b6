"""Exact Steiner tree solvers built around two structural parameterizations:
a vertex multiway cut of the terminals, and tree decompositions whose leaf
parts are terminal-free."""

from .graph import (
    INF,
    Graph,
    Subgraph,
    component_graph,
    connected_components,
    is_multiway_cut,
    minimum_spanning_tree,
    shortest_path,
)
from .partitions import Partition, enumerate_partitions, join, project, refines, restrict
from .exact import SteinerResult, brute_force_steiner, dreyfus_wagner
from .cuts import MultiwayCut, default_multiway_cut, minimum_multiway_cut
from .connecting import (
    ConnectingSystem,
    build_weights,
    enumerate_connecting_systems,
    is_self_reachable,
    minimum_weight_matching,
    reconstruct_tree,
    solve_with_cut,
)
from .representatives import (
    PartitionTable,
    is_representative,
    reduce_partitions,
    reduce_subgraphs,
)
from .decomposition import (
    Decomposition,
    NiceDecomposition,
    Violation,
    decompose_from_multiway_cut,
    from_gadget_decomposition,
    gadget_decomposition,
    terminal_gadget_graph,
    to_nice,
    validate_decomposition,
    validate_nice,
    validate_triangle_decomposition,
    width,
)
from .dp import leaf_table, solve_decomposition
from .io import Instance, emit_pace, generate_instance, parse_pace

__all__ = [
    "INF",
    "Graph",
    "Subgraph",
    "component_graph",
    "connected_components",
    "is_multiway_cut",
    "minimum_spanning_tree",
    "shortest_path",
    "Partition",
    "enumerate_partitions",
    "join",
    "project",
    "refines",
    "restrict",
    "SteinerResult",
    "brute_force_steiner",
    "dreyfus_wagner",
    "MultiwayCut",
    "default_multiway_cut",
    "minimum_multiway_cut",
    "ConnectingSystem",
    "build_weights",
    "enumerate_connecting_systems",
    "is_self_reachable",
    "minimum_weight_matching",
    "reconstruct_tree",
    "solve_with_cut",
    "PartitionTable",
    "is_representative",
    "reduce_partitions",
    "reduce_subgraphs",
    "Decomposition",
    "NiceDecomposition",
    "Violation",
    "decompose_from_multiway_cut",
    "from_gadget_decomposition",
    "gadget_decomposition",
    "terminal_gadget_graph",
    "to_nice",
    "validate_decomposition",
    "validate_nice",
    "validate_triangle_decomposition",
    "width",
    "leaf_table",
    "solve_decomposition",
    "Instance",
    "emit_pace",
    "generate_instance",
    "parse_pace",
]
