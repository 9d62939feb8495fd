"""The traced benchmark run wraps package attributes by name; each must exist,
so a deleted or renamed function fails here rather than in a traced run."""

import importlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "reachbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert targets
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}" for t in targets
               if t.attr not in t.owner.__dict__]
    assert not missing, f"traced attributes missing: {missing}"
