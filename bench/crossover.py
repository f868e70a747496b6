"""Crossover table: Dreyfus-Wagner beside the two paper solvers.

    python3 bench/crossover.py

Solves two seeded instances per row with each solver through
``steiner.cli.run`` (witness on) and prints a markdown table of the mean
wall time per solve.  DW runs only up to ``DW_MAX_K`` terminals, since
its table grows as 3^|K|; ``mwc`` and ``kfree`` are given the planted cut
or the generated TKD file.  Every answer is checked against DW where DW
ran, and against each other.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
from time import perf_counter

import gen
from run import OUT, Item, load_steiner

DW_MAX_K = 12
PER_ROW = 2

ROWS = (
    (r"clustered \|S\|=4, 8 comps of 8", lambda r: gen.clustered(r, 4, 8, 8, 4)),
    (r"clustered \|S\|=4, 11 comps of 8 (mwc-given-cut)", lambda r: gen.clustered(r, 4, 11, 8, 4)),
    (r"clustered \|S\|=4, 12 comps of 8", lambda r: gen.clustered(r, 4, 12, 8, 4)),
    (r"clustered \|S\|=4, 20 comps of 8", lambda r: gen.clustered(r, 4, 20, 8, 4)),
    (r"clustered \|S\|=5, 6 comps of 5 (mwc-given-cut)", lambda r: gen.clustered(r, 5, 6, 5, 2)),
    (r"clustered \|S\|=5, 10 comps of 6", lambda r: gen.clustered(r, 5, 10, 6, 3)),
    ("5-tree, 18 core, k=6 (kfree-tw)", lambda r: gen.partial_wtree(r, 18, 5, 6, 3, 8, 3)),
    ("6-tree, 14 core, k=4 (kfree-tw)", lambda r: gen.partial_wtree(r, 14, 6, 4, 2, 8, 3)),
    ("5-tree, 30 core, k=12", lambda r: gen.partial_wtree(r, 30, 5, 12, 4, 8, 3)),
    ("4-tree, 40 core, k=16", lambda r: gen.partial_wtree(r, 40, 4, 16, 4, 8, 3)),
)


def main() -> int:
    steiner = load_steiner()
    workdir = os.path.join(OUT, f"crossover-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    print("| instances | n | \\|K\\| | dw s | mwc s | kfree s |")
    print("| --- | --- | --- | --- | --- | --- |")
    try:
        for label, make in ROWS:
            totals = {}
            for i in range(PER_ROW):
                case = make(random.Random(f"crossover:{label}:{i}"))
                item = Item(f"row{i}", case, workdir, None)
                item.instance = steiner.io.parse_pace(case.pace())
                values = set()
                solvers = [("mwc", item.cut_path, None)] if case.cut else []
                solvers.append(("kfree", item.cut_path, item.decomp_path))
                if len(case.terminals) <= DW_MAX_K:
                    solvers.insert(0, ("dw", None, None))
                for solver, cut, decomp in solvers:
                    config = steiner.cli.SolverConfig(
                        solver=solver, cut_path=cut, decomp_path=decomp, witness=True
                    )
                    t0 = perf_counter()
                    values.add(steiner.cli.run(item.instance, config).value)
                    totals[solver] = totals.get(solver, 0.0) + perf_counter() - t0
                if len(values) != 1:
                    raise SystemExit(f"error: solvers disagree on {label}: {sorted(values)}")
            cells = [
                f"{totals[s] / PER_ROW:.3f}" if s in totals else "not run"
                for s in ("dw", "mwc", "kfree")
            ]
            print(f"| {label} | {case.n} | {len(case.terminals)} | " + " | ".join(cells) + " |")
            sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
