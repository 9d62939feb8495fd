import json
import sys

import numpy as np
import pytest

from reachcast import cli, datagen, model, trainer


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    argv = ["gen", "--n", "16", "--seed", "5", "--out", str(out), "--frame", "8",
            "--t-min", "6", "--t-max", "8", "--split", "8,2,3,3"]
    assert cli.main(argv) == 0
    return out


def _train(dataset, out, epochs, *extra):
    argv = ["train", "--preset", "tiny", "--data", str(dataset), "--out", str(out),
            "--epochs", str(epochs), "--batch-size", "4", "--seed", "3", *extra]
    assert cli.main(argv) == 0


def test_blas_pinned_before_numpy_loads():
    # bit-identity tests must see the single-threaded BLAS the CLI pins
    conftest = sys.modules["conftest"]
    assert not conftest.NUMPY_LOADED_FIRST
    assert conftest.BLAS_ENV == dict.fromkeys(conftest.BLAS_THREAD_VARS, "1")


def test_gradcheck_passes():
    assert cli.main(["gradcheck"]) == 0


@pytest.mark.parametrize("observed", ["0", "8"])
def test_gradcheck_observed_out_of_range_refused(observed, capsys):
    assert cli.main(["gradcheck", "--observed", observed]) == 2
    assert "--observed must be in [1, 7]" in capsys.readouterr().err


def test_resume_is_exact(dataset, tmp_path):
    straight, split = tmp_path / "straight", tmp_path / "split"
    _train(dataset, straight, 4)
    _train(dataset, split, 2)
    _train(dataset, split, 4, "--resume", str(split / "ckpt"))
    for name in ("loss_curve.csv", "ckpt.bin", "ckpt.json", "ckpt_adam.bin", "ckpt_adam.json"):
        assert (split / name).read_bytes() == (straight / name).read_bytes(), name


def test_resume_into_new_out_keeps_curve(dataset, tmp_path):
    _train(dataset, tmp_path / "a", 2)
    _train(dataset, tmp_path / "b", 4, "--resume", str(tmp_path / "a" / "ckpt"))
    rows = (tmp_path / "b" / "loss_curve.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [1, 2, 3, 4]


def test_resume_with_other_train_config_refused(dataset, tmp_path, capsys):
    _train(dataset, tmp_path / "a", 2)
    argv = ["train", "--preset", "tiny", "--data", str(dataset), "--out", str(tmp_path / "b"),
            "--epochs", "4", "--batch-size", "4", "--seed", "3", "--lr", "0.5",
            "--resume", str(tmp_path / "a" / "ckpt")]
    assert cli.main(argv) == 2
    assert "differs from the checkpoint's in lr" in capsys.readouterr().err


def test_eval_reads_the_dataset_once(dataset, tmp_path, monkeypatch):
    _train(dataset, tmp_path / "run", 1)
    reads = []
    read = datagen.read_dataset

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(datagen, "read_dataset", counted)
    assert cli.main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt"), "--data", str(dataset),
                     "--splits", "test_seen,test_unseen", "--out", str(tmp_path / "m.csv")]) == 0
    assert len(reads) == 1
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 3


def test_eval_dump_reuses_the_scored_forecasts(tmp_path, monkeypatch):
    # the dump rows come from the forecasts the metrics were scored on: one
    # model pass per split x ratio, whatever --dump-limit keeps
    data = tmp_path / "data"
    assert cli.main(["gen", "--n", "18", "--seed", "2", "--out", str(data), "--frame", "8",
                     "--t-min", "6", "--t-max", "8", "--split", "6,0,6,6"]) == 0
    _train(data, tmp_path / "run", 1, "--batch-size", "6")
    samples, manifest = datagen.read_dataset(data)
    calls = []
    forward = model.forward_batch

    def counted(params, cfg, frames, *args):
        calls.append(len(frames))
        return forward(params, cfg, frames, *args)

    monkeypatch.setattr(model, "forward_batch", counted)
    dump = tmp_path / "dump.json"
    assert cli.main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt"), "--data", str(data),
                     "--splits", "test_seen,test_unseen", "--ratios", "0.3,0.6",
                     "--out", str(tmp_path / "m.csv"), "--dump", str(dump),
                     "--dump-limit", "3"]) == 0
    assert calls == [6] * 4
    rows = json.loads(dump.read_text())
    expected = []
    for split in ("test_seen", "test_unseen"):
        kept = sorted(s.id for s in datagen.split_samples(samples, manifest, split)[:3])
        expected += [(split, ratio, i) for ratio in (0.3, 0.6) for i in kept]
    assert [(r["split"], r["ratio"], r["id"]) for r in rows] == expected


def test_local3d_predictions_are_global_everywhere(dataset, tmp_path, monkeypatch):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"preset": "tiny", "coordinate_mode": "local-3d"}}))
    _train(dataset, tmp_path / "run", 1, "--config", str(config))
    ckpt = str(tmp_path / "run" / "ckpt")

    scored = []
    score = trainer.score

    def record(cases, *args):
        cases = list(cases)
        scored.extend((pred.copy(), observed) for _, observed, pred, _ in cases)
        return score(cases, *args)

    monkeypatch.setattr(trainer, "score", record)
    dump = tmp_path / "dump.json"
    assert cli.main(["eval", "--ckpt", ckpt, "--data", str(dataset), "--splits", "test_seen",
                     "--ratios", "0.6", "--out", str(tmp_path / "m.csv"),
                     "--dump", str(dump), "--dump-limit", "100"]) == 0
    rows = json.loads(dump.read_text())
    assert len(rows) == len(scored) == 3
    for row, (pred, observed) in zip(rows, scored):
        assert row["observed_count"] == observed
        np.testing.assert_array_equal(np.array(row["predicted"]), pred[observed:])

    out = tmp_path / "fc.json"
    assert cli.main(["forecast", "--ckpt", ckpt, "--data", str(dataset), "--id", rows[0]["id"],
                     "--ratio", "0.6", "--out", str(out)]) == 0
    fc = json.loads(out.read_text())
    assert fc["future_gt"] == rows[0]["future_gt"]
    np.testing.assert_allclose(fc["predicted"], rows[0]["predicted"], rtol=0, atol=1e-12)
