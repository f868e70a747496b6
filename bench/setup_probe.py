"""One set-up sample, run in a fresh interpreter: import ``steiner`` and
parse every PACE file named in the manifest, then print the seconds taken.

    python3 bench/setup_probe.py <src dir> <manifest>
"""

from time import perf_counter

started = perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import steiner.io  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as manifest:
    for path in manifest.read().split():
        with open(path, encoding="utf-8") as handle:
            steiner.io.parse_pace(handle.read())
print(perf_counter() - started)
