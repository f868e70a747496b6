"""Batch command-line front end.

``steiner solve`` reads one PACE-format instance, runs the selected
solver and prints ``VALUE <cost>`` plus witness edges when requested;
``steiner generate`` emits a reproducible random instance.  Exit codes:
0 solved, 2 infeasible, 1 error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .connecting import solve_with_cut
from .cuts import MultiwayCut, default_multiway_cut, minimum_multiway_cut
from .decomposition import (
    decompose_from_multiway_cut,
    from_gadget_decomposition,
    to_nice,
)
from .decomposition import validate_decomposition  # noqa: F401  kept: bench/layers.py rebinds it
from .dp import solve_decomposition
from .exact import SteinerResult, brute_force_steiner, dreyfus_wagner
from .graph import INF
from .graph import is_multiway_cut  # noqa: F401  kept: bench/layers.py rebinds it
from .io import (
    Instance,
    generate_instance,
    parse_cut,
    parse_decomposition,
    parse_pace,
    emit_pace,
)

SOLVERS = ("dw", "brute", "mwc", "kfree")


@dataclass
class SolverConfig:
    solver: str = "dw"
    cut_path: str | None = None
    decomp_path: str | None = None
    witness: bool = False
    budget: int | None = None
    verify: bool = False


@dataclass
class Report:
    value: int | float
    edges: list[tuple[int, int]] | None
    status: int


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_cut(instance: Instance, config: SolverConfig) -> MultiwayCut:
    g, terms = instance.graph, instance.terminals
    if config.cut_path:
        # the solver the cut is handed to rejects one that is not a multiway cut
        return MultiwayCut(parse_cut(_read(config.cut_path)), False)
    budget = config.budget if config.budget is not None else max(0, len(terms) - 1)
    found = minimum_multiway_cut(g, terms, budget)
    if found is None:
        return default_multiway_cut(g, terms)
    return found


def _check_tree(instance: Instance, result: SteinerResult):
    """Library-side witness sanity check, run before anything is printed."""
    tree = result.tree
    if not result.feasible:
        return
    if tree.cost != result.cost:
        raise AssertionError("witness cost does not match the reported value")
    if not instance.terminals <= tree.vertices:
        raise AssertionError("witness does not span the terminals")
    if tree.vertices and not tree.is_connected():
        raise AssertionError("witness is not connected")


def verify_tree(instance: Instance, edges, value) -> str | None:
    """Independent witness check: re-derives adjacency, connectivity and
    cost from the instance alone.  Returns an error message or None."""
    weights = {}
    for u, v, w in instance.graph.edge_items():
        weights[(u, v)] = w
    total = 0
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if key not in weights:
            return f"edge {key} is not an instance edge"
        total += weights[key]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if total != value:
        return f"edge weights sum to {total}, reported {value}"
    terms = sorted(instance.terminals)
    if terms:
        start = terms[0] if edges or len(terms) == 1 else None
        if start is None:
            return "no edges but several terminals"
        reached = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, ()):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        missing = [t for t in terms if t not in reached]
        if missing:
            return f"terminals {missing} not reached"
        touched = set(adj)
        if touched and not touched <= reached:
            return "witness is not connected"
    return None


def run(instance: Instance, config: SolverConfig) -> Report:
    """Execute the configured pipeline on one instance."""
    g, terms = instance.graph, instance.terminals
    if config.solver == "dw":
        result = dreyfus_wagner(g, terms)
    elif config.solver == "brute":
        result = brute_force_steiner(g, terms)
    elif config.solver == "mwc":
        cut = _load_cut(instance, config)
        result = solve_with_cut(g, terms, cut)
    elif config.solver == "kfree":
        if config.decomp_path:
            kind, dec = parse_decomposition(_read(config.decomp_path))
            if kind == "TFD":
                dec = from_gadget_decomposition(g, terms, dec)
        else:
            dec = decompose_from_multiway_cut(g, terms, _load_cut(instance, config))
        nice = to_nice(g, terms, dec)
        result = solve_decomposition(g, terms, nice)
    else:
        raise ValueError(f"unknown solver {config.solver!r}")

    if not result.feasible:
        return Report(INF, None, 2)
    _check_tree(instance, result)
    edges = sorted(result.tree.edges)
    if config.verify:
        problem = verify_tree(instance, edges, result.cost)
        if problem:
            raise AssertionError(f"witness verification failed: {problem}")
    return Report(result.cost, edges if config.witness else None, 0)


def format_report(report: Report) -> str:
    lines = [f"VALUE {'INF' if report.status == 2 else report.value}"]
    if report.edges:
        lines.extend(f"{u} {v}" for u, v in report.edges)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner", description="Exact Steiner tree solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one PACE-format instance")
    solve.add_argument("instance", help="instance path, or - for stdin")
    solve.add_argument("--solver", choices=SOLVERS, default="dw")
    solve.add_argument("--cut", dest="cut_path", metavar="FILE")
    solve.add_argument("--decomp", dest="decomp_path", metavar="FILE")
    solve.add_argument("--witness", action="store_true", help="print tree edges")
    solve.add_argument("--budget", type=int, help="cut search depth limit")
    solve.add_argument(
        "--verify", action="store_true", help="independently re-check the witness"
    )

    gen = sub.add_parser("generate", help="emit a random connected instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--wmax", type=int, default=10)
    gen.add_argument("-o", "--output", help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            instance = generate_instance(args.seed, args.n, args.m, args.k, args.wmax)
            text = emit_pace(instance)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                sys.stdout.write(text)
            return 0
        config = SolverConfig(
            solver=args.solver,
            cut_path=args.cut_path,
            decomp_path=args.decomp_path,
            witness=args.witness,
            budget=args.budget,
            verify=args.verify,
        )
        instance = parse_pace(_read(args.instance))
        report = run(instance, config)
        sys.stdout.write(format_report(report))
        return report.status
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
