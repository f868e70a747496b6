"""The names ``bench/layers.py`` rebinds stay in ``steiner``, and no more.

The traced benchmark wraps module attributes by name, so a refactor that
drops one fails here, naming it, rather than inside the smoke run.  A
``src/`` import kept only for that rebinding must name a rebound binding.
"""

import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MARKER = "kept: bench/layers.py"


def rebound_bindings():
    """Every ``module.attr`` that ``Tracer.install()`` rebinds, read without rebinding."""
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    seen = []
    tracer.rebind = lambda binding, make: seen.append(binding)
    tracer._rebind = lambda owner, attr, make: seen.append(f"{owner.__module__}.{owner.__name__}.{attr}")
    tracer.install()
    return seen


BINDINGS = rebound_bindings()


@pytest.mark.parametrize("binding", sorted(set(BINDINGS)))
def test_rebound_binding_resolves(binding):
    owner, attr = binding.rsplit(".", 1)
    try:
        target = importlib.import_module(owner)
    except ModuleNotFoundError:  # a class attribute, such as Graph.__init__
        module, cls = owner.rsplit(".", 1)
        target = getattr(importlib.import_module(module), cls)
    assert hasattr(target, attr), f"{binding} is rebound by bench/layers.py but missing"


def test_kept_imports_are_rebound():
    kept = []
    for path in sorted((ROOT / "src" / "steiner").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if MARKER in line:
                names = line.split(" import ", 1)[1].split("#", 1)[0]
                kept += [f"steiner.{path.stem}.{n.strip()}" for n in names.split(",")]
    assert kept
    stale = sorted(set(kept) - set(BINDINGS))
    assert not stale, f"kept for bench/layers.py but not rebound there: {stale}"
