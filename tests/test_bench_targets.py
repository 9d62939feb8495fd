"""The benchmark reaches into the package by name: the traced run wraps
attributes, and the data checks read sample fields. A deleted or renamed
name, or a changed field type, fails here rather than in a benchmark run,
where an error outside the checks ends the run without a result line."""

import dataclasses
import importlib
from pathlib import Path

from reachcast import cli, datagen

BENCH_DIR = Path(__file__).resolve().parents[1] / "reachbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert targets
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}" for t in targets
               if t.attr not in t.owner.__dict__]
    assert not missing, f"traced attributes missing: {missing}"


def _check_shard(monkeypatch, tmp_path, workload, seed):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    session = importlib.import_module("session")
    w = dataclasses.replace(session.WORKLOADS[workload], shard=4)
    raw, repaired = tmp_path / "raw", tmp_path / "repaired"
    assert cli.main(w.gen_argv(w.shard, seed, raw)) == 0
    assert cli.main(["repair", "--data", str(raw), "--out", str(repaired)]) == 0
    rec = session.Recorder()
    wrong = session.check_data(w, seed, raw, datagen.read_dataset(repaired)[0], rec)
    assert rec.failures == []
    assert wrong > 0  # the raw set's dropout sentinels lift to wrong world points


def test_data_checks_hold_on_a_desk_shard(monkeypatch, tmp_path):
    _check_shard(monkeypatch, tmp_path, "train-desk", 1001)


def test_data_checks_hold_on_a_paper_shard(monkeypatch, tmp_path):
    # 64x64 frames and 32 to 40 steps, the benchmark's largest samples
    _check_shard(monkeypatch, tmp_path, "train-paper", 2001)
