import json
import sys

import numpy as np
import pytest

from reachcast import autodiff as ad
from reachcast import cli, datagen, model, trainer


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    argv = ["gen", "--n", "16", "--seed", "5", "--out", str(out), "--frame", "8",
            "--t-min", "6", "--t-max", "8", "--split", "8,2,3,3"]
    assert cli.main(argv) == 0
    return out


def _train_argv(dataset, out, epochs, *extra):
    return ["train", "--preset", "tiny", "--data", str(dataset), "--out", str(out),
            "--epochs", str(epochs), "--batch-size", "4", "--seed", "3", *extra]


def _train(dataset, out, epochs, *extra):
    assert cli.main(_train_argv(dataset, out, epochs, *extra)) == 0


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    _train(dataset, out, 1)
    return out / "ckpt"


def test_blas_pinned_before_numpy_loads():
    # bit-identity tests must see the single-threaded BLAS the CLI pins
    conftest = sys.modules["conftest"]
    assert not conftest.NUMPY_LOADED_FIRST
    assert conftest.BLAS_ENV == dict.fromkeys(conftest.BLAS_THREAD_VARS, "1")


def test_gradcheck_passes():
    assert cli.main(["gradcheck"]) == 0


def test_gradcheck_builds_float64_whatever_the_preset(monkeypatch):
    # finite differences need float64, so the float32 paper preset is checked in it
    seen = {}

    def record(build, inputs, **kwargs):
        seen[preset] = {t.data.dtype for t in inputs.values()}
        return ad.GradCheckReport([ad.GradCheckEntry("w", 0.0, 1, True)], 1e-3)

    monkeypatch.setattr(ad, "check_gradients", record)
    for preset in cli.MODEL_PRESETS:
        assert cli.main(["gradcheck", "--preset", preset]) == 0
    assert seen == dict.fromkeys(cli.MODEL_PRESETS, {np.dtype(np.float64)})


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


def test_float32_resume_is_exact(dataset, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"preset": "tiny", "compute_dtype": "float32"}}))
    straight, split = tmp_path / "straight", tmp_path / "split"
    _train(dataset, straight, 4, "--config", str(config))
    _train(dataset, split, 2, "--config", str(config))
    _train(dataset, split, 4, "--config", str(config), "--resume", str(split / "ckpt"))
    for name in ("loss_curve.csv", "ckpt.bin", "ckpt.json", "ckpt_adam.bin", "ckpt_adam.json"):
        assert (split / name).read_bytes() == (straight / name).read_bytes(), name
    params, cfg, _ = model.load_checkpoint(split / "ckpt")
    assert cfg.compute_dtype == "float32"
    assert {t.data.dtype for _, t in params.items()} == {np.dtype(np.float32)}


def test_unsupported_compute_dtype_refused(dataset, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"preset": "tiny", "compute_dtype": "float16"}}))
    out = tmp_path / "run"
    assert cli.main(_train_argv(dataset, out, 1, "--config", str(config))) == 2
    assert "compute_dtype must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_eval_split_refused(dataset, trained, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert cli.main(["eval", "--ckpt", str(trained), "--data", str(dataset),
                     "--splits", "test_seen,bogus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "has splits test_seen, test_unseen, train, val" in err
    assert not out.exists()


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


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--batch-size", "0"),
                                         ("--lr", "-1")])
def test_bad_train_values_refused_before_writing(dataset, tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert cli.main(_train_argv(dataset, out, 2, flag, value)) == 2
    assert "bad train config" in capsys.readouterr().err
    assert not out.exists()


def test_resume_with_other_model_or_loss_config_refused(dataset, tmp_path, capsys):
    _train(dataset, tmp_path / "a", 2)
    ckpt = str(tmp_path / "a" / "ckpt")
    config = tmp_path / "gamma.json"
    config.write_text(json.dumps({"loss": {"gamma": 0.5}}))
    out = tmp_path / "b"
    assert cli.main(_train_argv(dataset, out, 4, "--preset", "desk", "--resume", ckpt)) == 2
    assert "model config differs from the checkpoint's in horizon" in capsys.readouterr().err
    assert cli.main(_train_argv(dataset, out, 4, "--config", str(config),
                                "--resume", ckpt)) == 2
    assert "loss config differs from the checkpoint's in gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epochs", [1, 2])
def test_resume_with_nothing_left_to_train_refused(dataset, tmp_path, capsys, epochs):
    # the weights are at epoch 2: a checkpoint saying epoch 1 would be wrong
    _train(dataset, tmp_path / "a", 2)
    out = tmp_path / "b"
    assert cli.main(_train_argv(dataset, out, epochs, "--resume",
                                str(tmp_path / "a" / "ckpt"))) == 2
    assert "leaves nothing to train" in capsys.readouterr().err
    assert not out.exists()


def test_resume_without_optimizer_state_refused(dataset, tmp_path, capsys):
    _train(dataset, tmp_path / "a", 2)
    for suffix in (".json", ".bin"):
        (tmp_path / "a" / "ckpt_adam").with_suffix(suffix).unlink()
    out = tmp_path / "b"
    assert cli.main(_train_argv(dataset, out, 4, "--resume", str(tmp_path / "a" / "ckpt"))) == 2
    assert "ckpt_adam.json" in capsys.readouterr().err
    assert not out.exists()


def test_ratio_ranges_parse():
    assert cli._parse_ratios("0.1..0.9") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert cli._parse_ratios("0.3,0.6") == [0.3, 0.6]
    assert cli._parse_ratios("0.4..0.4") == [0.4]


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--ratios", "abc"), ("eval", "--ratios", "1.5"), ("eval", "--ratios", "0"),
    ("eval", "--ratios", "0.9..0.1"), ("eval", "--ratios", "0.1..0.5..0.9"),
    ("eval", "--ratios", "0.5..0.96"),  # the 0.1 steps would reach 1.0
    ("forecast", "--ratio", "1.2"), ("forecast", "--ratio", "0")])
def test_bad_ratios_are_usage_errors(dataset, trained, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--ckpt", str(trained), "--data", str(dataset), "--out", str(out),
            flag, value] + (["--id", "s00000"] if command == "forecast" else [])
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--dropout", "1.5"], "probability"),
    (["--t-min", "9", "--t-max", "5"], "t_min <= t_max"),
    (["--split", "10,5,5"], "not four counts"),
    (["--split", "10,x,3,2"], "--split"),
    (["--split", "10,5,4,2"], "do not sum to n=20"),
])
def test_bad_gen_options_are_usage_errors(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert cli.main(["gen", "--n", "20", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_command_writes_where_its_flags_say(dataset, trained, tmp_path, monkeypatch):
    # no environment variable redirects the outputs
    monkeypatch.setenv("REACHCAST_OUT", str(tmp_path / "elsewhere"))
    assert cli.main(["gen", "--n", "10", "--out", str(tmp_path / "data")]) == 0
    assert cli.main(["eval", "--ckpt", str(trained), "--data", str(dataset),
                     "--out", str(tmp_path / "m.csv")]) == 0
    assert (tmp_path / "data" / "manifest.json").exists() and (tmp_path / "m.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


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


def test_cv_rows_of_a_2d_checkpoint_fill_the_image_plane(dataset, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"preset": "tiny", "coordinate_mode": "2d"}}))
    _train(dataset, tmp_path / "run", 1, "--config", str(config))
    out = tmp_path / "m.csv"
    assert cli.main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt"), "--data", str(dataset),
                     "--splits", "test_seen", "--ratios", "0.6", "--baseline", "cv",
                     "--out", str(out)]) == 0
    header, model_line, cv_line = out.read_text().splitlines()
    model_row = dict(zip(header.split(","), model_line.split(",")))
    cv_row = dict(zip(header.split(","), cv_line.split(",")))
    assert cv_row["model"] == "cv-baseline"
    assert model_row["ade3d"] == "" and model_row["ade2d"] != ""
    samples, manifest = datagen.read_dataset(dataset)
    expected = trainer.evaluate_baseline(datagen.split_samples(samples, manifest, "test_seen"),
                                         0.6, split="test_seen", image_plane=True)
    assert cv_line == expected.as_csv()
    assert all(cv_row[k] != "" for k in trainer.MetricsRow.METRICS)
