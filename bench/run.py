"""Steiner benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload dw-uniform --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ``src``.
Every solve is ``steiner.cli.run`` on a parsed instance with the cut or
TKD file on disk and ``--witness`` on, one instance at a time.  Rounds
over the seed's instances repeat while the next round still fits into
``--seconds`` (the first always runs).  Every answer is checked against
the stored reference optimum and by an independent witness checker; a
wrong answer counts as a failed solve and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves every
instance twice in a row, without and with the per-layer wrappers of
``layers.py``, and reports each layer's totals per round of instances plus
the tracing overhead; it also writes them to ``bench/out/``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import reference  # noqa: E402
import layers  # noqa: E402
from workloads import SMOKE, WORKLOADS, pick  # noqa: E402


def load_steiner():
    if not os.path.isfile(os.path.join(SRC, "steiner", "cli.py")):
        raise SystemExit(f"error: no steiner sources under {SRC}")
    sys.path.insert(0, SRC)
    import steiner.cli
    import steiner.io

    return steiner


class Item:
    """One instance of the run: its texts on disk, parsed form and answer."""

    def __init__(self, key, case, workdir, ref):
        self.key, self.case, self.ref = key, case, ref
        stem = os.path.join(workdir, key.replace(":", "-"))
        self.pace_path = stem + ".gr"
        self.cut_path = self.decomp_path = None
        files = [(self.pace_path, case.pace())]
        if case.cut is not None:
            self.cut_path = stem + ".cut"
            files.append((self.cut_path, case.cut_text()))
        if case.tkd is not None:
            self.decomp_path = stem + ".tkd"
            files.append((self.decomp_path, case.tkd))
        for path, text in files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        self.instance = None


def make_items(workload, seed, workdir, smoke):
    refs = None if smoke else reference.load_refs()
    items = []
    for key, case in pick(workload, seed):
        if smoke:
            ref = reference.steiner_cost(case.n, case.edges, case.terminals)
        else:
            stored = refs.get(key)
            if stored is None or stored["pace"] != reference.digest(case.pace()):
                raise SystemExit(
                    f"error: no current reference for {key}; run python3 bench/reference.py"
                )
            ref = stored["value"]
        items.append(Item(key, case, workdir, ref))
    return items


def config_for(steiner, workload, item):
    return steiner.cli.SolverConfig(
        solver=workload.solver,
        cut_path=item.cut_path if workload.cut_file else None,
        decomp_path=item.decomp_path,
        witness=True,
    )


@dataclass
class Tally:
    times: list = field(default_factory=list)  # seconds per untraced solve
    traced: list = field(default_factory=list)  # seconds per traced solve
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return len(self.times) + len(self.traced)


def solve_once(steiner, item, config, tally, times):
    """Time one ``cli.run``, then check its answer outside the timing."""
    gc.collect()
    t0 = perf_counter()
    try:
        report = steiner.cli.run(item.instance, config)
    except Exception as exc:  # a crash is a failed solve, not a crashed run
        times.append(perf_counter() - t0)
        tally.failed += 1
        print(f"{item.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    times.append(perf_counter() - t0)
    if report.status != 0 or report.value != item.ref:
        problem = f"VALUE {report.value}, reference {item.ref}"
    else:
        problem = reference.check_witness(
            item.case.edges, item.case.terminals, report.value, report.edges or []
        )
    if problem:
        tally.failed += 1
        tally.wrong += 1
        print(f"{item.key}: {problem}", file=sys.stderr)


def solve_rounds(steiner, workload, items, seconds, between=None, tracer=None):
    """Closed loop over whole rounds of ``items``.

    Another round starts only while the time so far plus the last round's
    time fits into ``seconds``; the first round always runs.  ``between``
    runs after every round, outside that time.  With a ``tracer`` every
    instance is solved twice in a row, untraced and then traced, so the
    tracing overhead is measured on the same instances at the same moment.
    """
    configs = [config_for(steiner, workload, item) for item in items]
    tally, spent = Tally(), 0.0
    while True:
        round_started = perf_counter()
        for item, config in zip(items, configs):
            solve_once(steiner, item, config, tally, tally.times)
            if tracer is not None:
                tracer.install()
                try:
                    solve_once(steiner, item, config, tally, tally.traced)
                finally:
                    tracer.uninstall()
        tally.rounds += 1
        last = perf_counter() - round_started
        spent += last
        if between is not None:
            between()
        if spent + last > seconds:
            return tally


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(steiner, workload, items, seconds, workdir, probes):
    """End-to-end metrics.  Set-up samples are taken in fresh interpreters,
    ``probes`` before the first round and after every round, so that they
    span the same stretch of time as the solves."""
    manifest = os.path.join(workdir, "manifest")
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write("\n".join(item.pace_path for item in items))
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, manifest]
    setup = []

    def sample(count):
        for _ in range(count):
            done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60)
            setup.append(float(done.stdout))

    sample(1)
    setup.clear()  # warm-up: the first import in a checkout writes bytecode
    sample(probes)
    for item in items:
        item.instance = steiner.io.parse_pace(item.case.pace())
    tally = solve_rounds(steiner, workload, items, seconds, lambda: sample(probes))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.metrics = {
        "solve_s.p50": metric(statistics.median(tally.times), "s"),
        "solved_per_s": metric((tally.attempted - tally.failed) / sum(tally.times), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mib": metric(peak, "MiB"),
    }
    return tally


def traced_run(steiner, workload, items, seconds, label):
    """Per-layer metrics per round of instances, plus the tracing overhead."""
    parse = layers.Tracer()  # wraps the parser alone, so its Graph builds are not solve work
    parse.rebind("steiner.io.parse_pace", lambda fn: parse.span("io.parse_pace", fn))
    try:
        for item in items:
            item.instance = steiner.io.parse_pace(item.case.pace())
    finally:
        parse.uninstall()
    tracer = layers.Tracer()
    tally = solve_rounds(steiner, workload, items, seconds, tracer=tracer)
    rounds = tally.rounds
    tally.metrics = {name: metric(tracer.value(name) / rounds, unit) for name, unit in layers.METRICS}
    tally.metrics["io.parse_pace.self_s"] = metric(parse.self_s["io.parse_pace"], "s")
    overhead = (sum(tally.traced) - sum(tally.times)) / rounds
    tally.metrics["trace.overhead_s"] = metric(overhead, "s")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{label}.json"), "w", encoding="utf-8") as handle:
        json.dump({"rounds": rounds, "metrics": tally.metrics}, handle, indent=1)
    return tally


def run_one(steiner, name, workload, seed, seconds, tracing, smoke):
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        items = make_items(workload, seed, workdir, smoke)
        if tracing:
            tally = traced_run(steiner, workload, items, seconds, f"{name}-seed{seed}")
        else:
            tally = timed_run(steiner, workload, items, seconds, workdir, 1 if smoke else 5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": tally.metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="every workload at toy size, timed and traced"
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    steiner = load_steiner()
    if args.smoke:
        ok = True
        for name, workload in SMOKE.items():
            for tracing in (False, True):
                result = run_one(steiner, name, workload, args.seed, 0, tracing, True)
                print(json.dumps({"workload": name, "trace": int(tracing), **result}))
                ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    result = run_one(
        steiner, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1, False
    )
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
