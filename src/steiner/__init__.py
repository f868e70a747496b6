"""Exact Steiner tree solvers built around two structural parameterizations:
a vertex multiway cut of the terminals, and tree decompositions whose leaf
parts are terminal-free.

The package imports lazily (PEP 562): ``import steiner`` loads no
submodule, and each exported name loads its home module on first access,
so ``import steiner.io`` costs only ``steiner.graph`` and ``steiner.io``.
"""

from importlib import import_module

_EXPORTS = {
    "graph": (
        "INF",
        "Graph",
        "Subgraph",
        "component_graph",
        "connected_components",
        "is_multiway_cut",
        "minimum_spanning_tree",
        "shortest_path",
    ),
    "partitions": ("Partition", "enumerate_partitions", "join", "project", "refines", "restrict"),
    "exact": ("SteinerResult", "brute_force_steiner", "dreyfus_wagner"),
    "cuts": ("MultiwayCut", "default_multiway_cut", "minimum_multiway_cut"),
    "connecting": (
        "ConnectingSystem",
        "CutInvariants",
        "build_weights",
        "enumerate_connecting_systems",
        "is_self_reachable",
        "reconstruct_tree",
        "solve_with_cut",
    ),
    "representatives": (
        "PartitionTable",
        "is_representative",
        "reduce_partitions",
        "reduce_subgraphs",
    ),
    "decomposition": (
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
    ),
    "dp": ("leaf_table", "solve_decomposition"),
    "io": ("Instance", "emit_pace", "generate_instance", "parse_pace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules an eager import used to load (``matching`` through ``connecting``)
# stay reachable as attributes of the package
_SUBMODULES = frozenset(_EXPORTS) | {"matching"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
