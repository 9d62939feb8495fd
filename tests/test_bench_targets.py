"""The benchmark reaches into the package by name: the traced run wraps
attributes, and the data checks read sample fields. A deleted or renamed
name, or a changed field type, fails here rather than in a benchmark run,
where an error outside the checks ends the run without a result line. The
benchmark command itself runs once, on train-desk, so a failing output
check fails here too."""

import dataclasses
import importlib
import json
import subprocess
import sys
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


def test_byte_counters_find_the_dataset_files(monkeypatch, tmp_path):
    # the traced read and write count data.jsonl's bytes through the paths
    # write_dataset returns and the directory read_dataset takes
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
    samples, manifest = datagen.gen_dataset(3, 1, datagen.GenOptions(split_counts=(3, 0, 0, 0)))
    written = datagen.write_dataset(samples, manifest, tmp_path)
    size = (tmp_path / "data.jsonl").stat().st_size
    assert size > 0
    assert layers._written((samples, manifest, tmp_path), {}, written) == size
    assert layers._read((tmp_path,), {}, datagen.read_dataset(tmp_path)) == size
    assert layers._read((str(tmp_path),), {}, None) == size


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


def test_the_benchmark_command_passes_its_checks_on_train_desk():
    # the benchmark's own checks (the tiny gradcheck, the data round trip,
    # the falling loss, the masking probe, forecasts inside [-1, 1]) run
    # only in a full command, and any failed check makes it exit 1
    root = BENCH_DIR.parent
    done = subprocess.run([sys.executable, "reachbench/run.py", "--workload", "train-desk",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
