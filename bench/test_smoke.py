"""Smoke test of the benchmark: every workload at toy size, timed and traced.

Checks that each run is correct with no failed solve and reports exactly
the metrics, with the units, that ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_mode_reports_every_declared_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    results = [json.loads(line) for line in done.stdout.splitlines()]
    seen = {(r["workload"], r["trace"]) for r in results}
    assert seen == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared[result["trace"]]
        if result["trace"] == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
