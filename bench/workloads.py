"""The benchmark's four workloads and how a seed picks their instances.

Each workload is a solver plus strata of instances.  A stratum is a pool
of ``pool`` seeded instances of one family; the workload seed picks
``take`` of them, so every seed solves the same mix of families and a
round's make-up never depends on the seed.  Pool instance ``i`` of a
family is generated from the string seed ``"<family>:<i>"``, and its
reference optimum is stored in ``refs.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Stratum:
    family: str
    make: Callable[[random.Random], gen.Case]
    pool: int
    take: int


@dataclass(frozen=True)
class Workload:
    solver: str  # the --solver the CLI is given
    strata: tuple[Stratum, ...]
    cut_file: bool = False  # pass the planted cut as --cut


def pool_case(stratum: Stratum, index: int) -> gen.Case:
    return stratum.make(random.Random(f"{stratum.family}:{index}"))


def pick(workload: Workload, seed: int) -> list[tuple[str, gen.Case]]:
    """The seed's instances as (instance id, case), in a seeded order."""
    rng = random.Random(seed)
    chosen = []
    for stratum in workload.strata:
        for index in sorted(rng.sample(range(stratum.pool), stratum.take)):
            chosen.append((f"{stratum.family}:{index}", pool_case(stratum, index)))
    rng.shuffle(chosen)
    return chosen


WORKLOADS = {
    "dw-uniform": Workload(
        "dw",
        (
            Stratum("uniform-k10", lambda r: gen.uniform(r, 200, 600, 10), 8, 6),
            Stratum("uniform-k11", lambda r: gen.uniform(r, 200, 600, 11), 3, 2),
        ),
    ),
    "mwc-given-cut": Workload(
        "mwc",
        (
            Stratum("clustered-s4", lambda r: gen.clustered(r, 4, 11, 8, 4), 20, 16),
            Stratum("clustered-s5", lambda r: gen.clustered(r, 5, 6, 5, 2), 2, 1),
        ),
        cut_file=True,
    ),
    "kfree-tw": Workload(
        "kfree",
        (
            Stratum("wtree-w5", lambda r: gen.partial_wtree(r, 18, 5, 6, 3, 8, 3), 10, 8),
            Stratum("wtree-w6", lambda r: gen.partial_wtree(r, 14, 6, 4, 2, 8, 3), 2, 2),
        ),
    ),
    "cut-search": Workload(
        "mwc",
        (
            Stratum(
                "shuffled-s3",
                lambda r: gen.clustered(r, 3, 6, 6, 3, attach_all=True, cut_ids=(6, 20, 33)),
                10,
                8,
            ),
            Stratum(
                "shuffled-s4",
                lambda r: gen.clustered(r, 4, 6, 5, 2, attach_all=True, cut_ids=(2, 12, 22, 32)),
                3,
                2,
            ),
        ),
    ),
}

# Toy sizes of the same families, for the smoke mode; references are
# computed on the fly.
SMOKE = {
    "dw-uniform": Workload(
        "dw", (Stratum("toy-uniform", lambda r: gen.uniform(r, 16, 30, 4), 4, 2),)
    ),
    "mwc-given-cut": Workload(
        "mwc",
        (Stratum("toy-clustered", lambda r: gen.clustered(r, 3, 4, 4, 1), 4, 2),),
        cut_file=True,
    ),
    "kfree-tw": Workload(
        "kfree", (Stratum("toy-wtree", lambda r: gen.partial_wtree(r, 9, 3, 3, 2, 4, 2), 4, 2),)
    ),
    "cut-search": Workload(
        "mwc",
        (
            Stratum(
                "toy-shuffled",
                lambda r: gen.clustered(r, 2, 4, 3, 1, attach_all=True, cut_ids=(3, 8)),
                4,
                2,
            ),
        ),
    ),
}
