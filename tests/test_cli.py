import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    *lines, verdict = capsys.readouterr().out.splitlines()
    # one line per trainable tensor of the tiny model, then the verdict
    names = [n for n, _ in model.init_params(model.ModelConfig.tiny()).trainable_items()]
    assert [line.split()[:2] for line in lines] == [["pass", n] for n in names]
    assert all("max_rel_err=" in line and "checked=" in line for line in lines)
    assert verdict.startswith("PASS: worst relative error ")


def test_gradcheck_builds_float64_whatever_the_preset(monkeypatch):
    # finite differences need float64, so the float32 paper preset is checked in it
    seen = {}

    def record(build, inputs, **kwargs):
        seen[preset] = {t.data.dtype for t in inputs.values()}
        return [ad.GradCheckEntry("w", 0.0, 1, True)]

    monkeypatch.setattr(ad, "check_gradients", record)
    for preset in cli.MODEL_PRESETS:
        assert cli.main(["gradcheck", "--preset", preset]) == 0
    assert seen == dict.fromkeys(cli.MODEL_PRESETS, {np.dtype(np.float64)})


@pytest.mark.parametrize("flag, value", [("--observed", "0"), ("--observed", "8"),
                                         ("--max-checks", "0"), ("--max-checks", "-1")])
def test_bad_gradcheck_flags_are_usage_errors(flag, value, capsys):
    assert cli.main(["gradcheck", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert flag in err
    if flag == "--observed":
        assert "--observed must be in [1, 7]" in err


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


@pytest.mark.parametrize("flags, config, message", [
    pytest.param(["--epochs", "0"], {}, "bad train config", id="--epochs-0"),
    pytest.param(["--batch-size", "0"], {}, "bad train config", id="--batch-size-0"),
    pytest.param(["--lr", "-1"], {}, "bad train config", id="--lr--1"),
    # the clip norm and the random-mode ratio range are trainer constants, not settings
    pytest.param([], {"train": {"clip_norm": -1.0}}, "unknown train config key: 'clip_norm'",
                 id="clip_norm--1"),
    pytest.param([], {"train": {"clip_norm": 0}}, "unknown train config key: 'clip_norm'",
                 id="clip_norm-0"),
    pytest.param([], {"train": {"clip_norm": None}}, "unknown train config key: 'clip_norm'",
                 id="clip_norm-null"),
    pytest.param([], {"train": {"ratio_low": 0.1}}, "unknown train config key: 'ratio_low'",
                 id="ratio_low"),
    pytest.param([], {"train": {"ratio_high": 0.9}}, "unknown train config key: 'ratio_high'",
                 id="ratio_high"),
    pytest.param([], {"train": {"warmup_epochs": -1}}, "warmup_epochs >= 0", id="warmup--1"),
    pytest.param([], {"model": {"heads": 0}}, "heads must be >= 1", id="heads-0"),
    pytest.param([], {"model": {"d_z": 0}}, "d_z must be >= 1", id="d_z-0"),
    pytest.param([], {"model": {"enc_channels": [0, 4]}}, "enc_channels must be >= 1",
                 id="enc_channels-0"),
    pytest.param([], {"model": {"enc_channels": [2, 4, 8]}},
                 "enc_channels must name 2 channel counts", id="enc_channels-3-long"),
    pytest.param([], {"model": {"enc_channels": [4]}},
                 "enc_channels must name 2 channel counts", id="enc_channels-1-long"),
    pytest.param([], {"model": {"blocks": -1}}, "blocks and prompt_width must be >= 0",
                 id="blocks--1"),
    pytest.param([], {"model": {"d_obs": 8.0}}, "sizes must be integers: d_obs", id="d_obs-8.0"),
    pytest.param([], {"model": {"enc_channels": [2.0, 4]}}, "sizes must be integers: enc_channels",
                 id="enc_channels-float"),
    pytest.param([], {"model": {"blocks": True}}, "sizes must be integers: blocks",
                 id="blocks-true"),
    pytest.param([], {"model": {"coordinate_mode": "local-3d"}},
                 "coordinate_mode must be one of ('global-3d', '2d')", id="local-3d"),
])
def test_bad_train_values_refused_before_writing(dataset, tmp_path, capsys, flags, config,
                                                 message):
    out, path = tmp_path / "run", tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(_train_argv(dataset, out, 2, "--config", str(path), *flags)) == 2
    err = capsys.readouterr().err
    assert message in err and err.startswith(f"error: config {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("{", "is not valid JSON"), ("[]", "is not a JSON object"),
    # the training seed is train.seed; a top-level copy of it is unknown
    ('{"seed": 3, "train": {"seed": 5}}', "unknown config key 'seed'"),
    ('{"train": []}', "'train' is not an object"),
    ('{"model": "desk"}', "'model' is not an object"),
    ('{"loss": 1}', "'loss' is not an object"),
    # paths come only from --data and --out
    ('{"data": "d"}', "unknown config key 'data'"), ('{"out": "o"}', "unknown config key 'out'")],
    ids=["invalid-json", "json-list", "top-level-seed", "train-list", "model-string",
         "loss-number", "data-key", "out-key"])
def test_bad_config_file_refused_before_writing(dataset, tmp_path, capsys, text, message):
    out, path = tmp_path / "run", tmp_path / "run.json"
    path.write_text(text)
    assert cli.main(_train_argv(dataset, out, 2, "--config", str(path))) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err
    assert not out.exists()


def test_train_without_data_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--preset", "tiny", "--epochs", "1"]) == 2
    assert "the following arguments are required: --data" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["gradcheck", "--step", "1e-4"],
                                  ["gradcheck", "--tolerance", "1e-3"],
                                  ["gradcheck", "--seed", "0"],
                                  ["train", "--data", "d", "--observation-ratio", "0.6"],
                                  ["eval", "--ckpt", "c", "--data", "d", "--baseline", "cv"],
                                  ["repair", "--data", "d", "--out", "o", "--report", "r.csv"]],
                         ids=["step", "tolerance", "gradcheck-seed", "observation-ratio",
                              "eval-baseline", "repair-report"])
def test_retired_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # gradcheck's step, tolerance and seed are constants; the observation
    # ratio is set as train.observation_ratio in the run config; eval always
    # writes the CV rows, and repair always writes <out>/repair_report.csv
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "x", "--out", "o"], "reachcast gen: argument --n: invalid int value: 'x'"),
    (["train", "--data", "d", "--preset", "huge"],
     "reachcast train: argument --preset: invalid choice: 'huge'"),
    ([], "reachcast: the following arguments are required: command")],
    ids=["bad-int", "bad-choice", "no-command"])
def test_argparse_errors_return_2(tmp_path, capsys, monkeypatch, argv, message):
    # argparse's usage errors come back from main like every other, not as SystemExit
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


def test_seed_flag_wins_over_train_seed(dataset, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"seed": 5}}))
    base = ["train", "--preset", "tiny", "--data", str(dataset), "--epochs", "1",
            "--batch-size", "4", "--config", str(path)]
    for extra, seed in (([], 5), (["--seed", "3"], 3)):
        out = tmp_path / f"seed{seed}"
        assert cli.main([*base, "--out", str(out), *extra]) == 0
        assert json.loads((out / "ckpt.json").read_text())["extra"]["train"]["seed"] == seed


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


def _cut_8_bytes(base):
    path = base.with_suffix(".bin")
    path.write_bytes(path.read_bytes()[:-8])


def _pad_16_bytes(base):
    with open(base.with_suffix(".bin"), "ab") as f:
        f.write(b"\0" * 16)


def _json_text(text):
    def spoil(base):
        base.with_suffix(".json").write_text(text)
    return spoil


def _drop_config(base):
    path = base.with_suffix(".json")
    doc = json.loads(path.read_text())
    del doc["config"]
    path.write_text(json.dumps(doc))


def _name_local_3d(base):
    path = base.with_suffix(".json")
    doc = json.loads(path.read_text())
    doc["config"]["coordinate_mode"] = "local-3d"
    path.write_text(json.dumps(doc))


def _float_size(base):
    path = base.with_suffix(".json")
    doc = json.loads(path.read_text())
    doc["config"]["d_obs"] = float(doc["config"]["d_obs"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, name", [("eval", "ckpt"), ("forecast", "ckpt"),
                                           ("train", "ckpt"), ("train", "ckpt_adam")])
@pytest.mark.parametrize("spoil, message", [
    (_cut_8_bytes, "bytes, not the"), (_pad_16_bytes, "bytes, not the"),
    (_name_local_3d, "coordinate_mode must be one of ('global-3d', '2d')"),
    (_float_size, "sizes must be integers: d_obs"),
    (_json_text("{"), ".json is not valid JSON"), (_json_text("[]"), ".json is not a JSON object"),
    (_drop_config, ".json is not a JSON object with a config object"),
    (_json_text('{"config": {}, "extra": []}'), "is not an object")],
    ids=["short", "padded", "local-3d", "float-size", "invalid-json", "json-list", "no-config",
         "extra-list"])
def test_refused_checkpoint_is_a_usage_error(dataset, trained, tmp_path, capsys, command, name,
                                             spoil, message):
    run, out = tmp_path / "run", tmp_path / "out"
    shutil.copytree(trained.parent, run)
    spoil(run / name)
    files = {p: p.read_bytes() for p in run.iterdir()}
    if command == "train":
        argv = _train_argv(dataset, out, 2, "--resume", str(run / "ckpt"))
    else:
        argv = [command, "--ckpt", str(run / "ckpt"), "--data", str(dataset), "--out", str(out)]
        argv += ["--id", "s00000"] if command == "forecast" else []
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {run / name}: ") and message in err
    assert not out.exists()
    assert {p: p.read_bytes() for p in run.iterdir()} == files


def test_resume_with_another_models_optimizer_state_refused(dataset, trained, tmp_path, capsys):
    # a desk model's optimizer state beside the tiny checkpoint
    run, out = tmp_path / "run", tmp_path / "out"
    shutil.copytree(trained.parent, run)
    desk = model.ModelConfig.desk()
    trainer.Adam(model.init_params(desk)).save(run / "ckpt_adam", desk)
    assert cli.main(_train_argv(dataset, out, 2, "--resume", str(run / "ckpt"))) == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint {run / 'ckpt_adam'}: optimizer "
                                              "state does not match")
    assert not out.exists()


@pytest.mark.parametrize("command, name, extra, message", [
    ("eval", "ckpt", {}, "has no 'norm'"), ("forecast", "ckpt", {}, "has no 'norm'"),
    ("train", "ckpt", {"epoch": 1}, "has no 'norm'"),
    ("eval", "ckpt", {"norm": {"min": [0, 0, 0], "max": [1, 1]}}, "has no 'norm'"),
    ("train", "ckpt_adam", {}, "has no step count t"),
    ("train", "ckpt_adam", {"t": "1"}, "has no step count t")],
    ids=["eval", "forecast", "train", "eval-2-max", "adam", "adam-t-string"])
def test_checkpoint_extra_without_its_fields_refused(dataset, trained, tmp_path, capsys, command,
                                                     name, extra, message):
    run, out = tmp_path / "run", tmp_path / "out"
    shutil.copytree(trained.parent, run)
    doc = json.loads((run / name).with_suffix(".json").read_text())
    (run / name).with_suffix(".json").write_text(json.dumps({**doc, "extra": extra}))
    if command == "train":
        argv = _train_argv(dataset, out, 2, "--resume", str(run / "ckpt"))
    else:
        argv = [command, "--ckpt", str(run / "ckpt"), "--data", str(dataset), "--out", str(out)]
        argv += ["--id", "s00000"] if command == "forecast" else []
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {run / name}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda extra: extra.update(train=[1]), lambda extra: extra.pop("loss"),
    lambda extra: extra.update(loss="gamma"), lambda extra: extra.pop("epoch"),
    lambda extra: extra.update(epoch="1"), lambda extra: extra.update(epoch=1.0),
    lambda extra: extra.update(epoch=True), lambda extra: extra.update(epoch=-1)],
    ids=["train-list", "no-loss", "loss-string", "no-epoch", "epoch-string", "epoch-float",
         "epoch-true", "epoch-negative"])
def test_resume_from_a_malformed_extra_refused(dataset, trained, tmp_path, capsys, edit):
    run, out = tmp_path / "run", tmp_path / "out"
    shutil.copytree(trained.parent, run)
    doc = json.loads((run / "ckpt.json").read_text())
    edit(doc["extra"])
    (run / "ckpt.json").write_text(json.dumps(doc))
    files = {p: p.read_bytes() for p in run.iterdir()}
    assert cli.main(_train_argv(dataset, out, 2, "--resume", str(run / "ckpt"))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {run / 'ckpt'}: {run / 'ckpt.json'} has no extra")
    assert not out.exists()
    assert {p: p.read_bytes() for p in run.iterdir()} == files


@pytest.mark.parametrize("command, edit, message", [
    ("train", lambda doc: doc.pop("splits"), "has no 'splits' object"),
    ("eval", lambda doc: doc.pop("splits"), "has no 'splits' object"),
    ("forecast", lambda doc: doc.update(splits={"train": 3}), "has no 'splits' object"),
    ("train", lambda doc: doc.pop("norm"), "has no 'norm'"),
    ("train", lambda doc: doc.update(norm={"min": [0, 0, 0], "max": [1, 0, 1]}),
     "each below its 'max'")],
    ids=["train-no-splits", "eval-no-splits", "forecast-split-number", "train-no-norm",
         "train-norm-degenerate"])
def test_manifest_without_its_fields_refused(dataset, trained, tmp_path, capsys, command, edit,
                                             message):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(dataset, data)
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    if command == "train":
        argv = _train_argv(data, out, 1)
    else:
        argv = [command, "--ckpt", str(trained), "--data", str(data), "--out", str(out)]
        argv += ["--id", "s00000"] if command == "forecast" else []
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} has no ") and message in err
    assert not out.exists()


def test_ratio_ranges_parse():
    assert cli._parse_ratios("0.1..0.9") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert cli._parse_ratios("0.3,0.6") == [0.3, 0.6]
    assert cli._parse_ratios("0.4..0.4") == [0.4]


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--ratios", "abc"), ("eval", "--ratios", "1.5"), ("eval", "--ratios", "0"),
    ("eval", "--ratios", "0.9..0.1"), ("eval", "--ratios", "0.1..0.5..0.9"),
    ("eval", "--ratios", "0.5..0.96"),  # 4.6 steps of 0.1, not a whole number
    # rounded to whole steps, 7.5, 5.5 and 4.99 steps would end past hi (0.95, 0.95, 0.501)
    ("eval", "--ratios", "0.15..0.9"), ("eval", "--ratios", "0.35..0.9"),
    ("eval", "--ratios", "1e-3..0.5"),
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
    (["--frame", "0"], "focal lengths must be positive"),
    (["--frame", "-8"], "focal lengths must be positive"),
    (["--n", "0", "--split", "0,0,0,0"], "n must be >= 1"),
])
def test_bad_gen_options_are_usage_errors(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert cli.main(["gen", "--n", "20", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--noise", "0.1"), ("--profile", "linear"), ("--rot-amp", "0"), ("--trans-amp", "0"),
    ("--bow", "0"), ("--start-jitter", "0"), ("--target-jitter", "0")])
def test_retired_gen_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # the generator's motion, arc, jitter and noise are fixed; gen sets the rest
    out = tmp_path / "data"
    assert cli.main(["gen", "--n", "20", "--out", str(out), flag, value]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gen_flags, command, extra, message", [
    (["--frame", "16"], "train", [], "has 16x16 frames; the model takes 8x8"),
    (["--frame", "16"], "eval", [], "has 16x16 frames; the model takes 8x8"),
    (["--frame", "16"], "forecast", ["--id", "s00000"], "has 16x16 frames; the model takes 8x8"),
    (["--split", "4,0,2,2"], "eval", ["--splits", "val"], "no samples in split 'val'"),
    (["--t-min", "9", "--t-max", "10"], "train", [], "than horizon 8"),
    (["--t-min", "9", "--t-max", "10"], "eval", [], "than horizon 8"),
    (["--split", "0,4,2,2"], "train", [], "no samples in split 'train'"),
    # desk takes these 16x16 frames and 16 steps, but not the missing depths
    (["--frame", "16", "--t-min", "14", "--t-max", "16", "--dropout", "0.3"], "train",
     ["--preset", "desk"], "steps without depth; run `reachcast repair`"),
], ids=["frame-train", "frame-eval", "frame-forecast", "empty-val", "long-train", "long-eval",
        "empty-train", "depthless-train"])
def test_data_the_model_cannot_take_refused_before_writing(trained, tmp_path, capsys, gen_flags,
                                                           command, extra, message):
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(["gen", "--n", "8", "--seed", "1", "--out", str(data), "--frame", "8",
                     "--t-min", "6", "--t-max", "8", "--split", "4,2,1,1", *gen_flags]) == 0
    if command == "train":
        argv = _train_argv(data, out, 1, *extra)
    else:
        argv = [command, "--ckpt", str(trained), "--data", str(data), "--out", str(out), *extra]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_2d_train_refuses_a_track_outside_its_target_range(dataset, tmp_path, capsys):
    # a step projecting past the padded frame is refused with a usage error,
    # never clipped into range
    samples, manifest = datagen.read_dataset(dataset)
    s = samples[0]
    s.points_local[:, 0] += 2.0 * s.points_local[:, 2]  # two frame widths to the right
    datagen.write_dataset(samples, manifest, tmp_path / "data")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"preset": "tiny", "coordinate_mode": "2d"}}))
    out = tmp_path / "out"
    assert cli.main(_train_argv(tmp_path / "data", out, 1, "--config", str(config))) == 2
    assert f"sample {s.id} has {s.horizon} steps projecting outside" in capsys.readouterr().err
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
    # the header, then a model row and its CV row per split
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 5


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


def test_eval_dump_creates_its_directory(dataset, trained, tmp_path):
    out, dump = tmp_path / "m.csv", tmp_path / "new" / "d.json"
    assert cli.main(["eval", "--ckpt", str(trained), "--data", str(dataset),
                     "--out", str(out), "--dump", str(dump), "--dump-limit", "1"]) == 0
    assert len(out.read_text().splitlines()) == 5
    assert [r["split"] for r in json.loads(dump.read_text())] == ["test_seen", "test_unseen"]


def test_repair_report_creates_its_directory(dataset, tmp_path):
    # the report lands beside the repaired data, under a new --out
    out = tmp_path / "new" / "fixed"
    assert cli.main(["repair", "--data", str(dataset), "--out", str(out)]) == 0
    lines = (out / "repair_report.csv").read_text().splitlines()
    assert lines[0] == "track_id,n_valid,n_repaired,rmse"
    assert len(lines) == 1 + len(datagen.read_dataset(out)[0])


def _read_argv(command, data, out, ckpt):
    """A command that reads the dataset ``data`` and writes only under ``out``."""
    return {"repair": ["repair", "--data", str(data), "--out", str(out)],
            "train": _train_argv(data, out, 1),
            "eval": ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]}[command]


@pytest.mark.parametrize("command, missing", [
    *(pytest.param(c, "data.frames.f64", id=c) for c in ("repair", "train", "eval")),
    *(pytest.param(c, "manifest.json", id=f"{c}-manifest") for c in ("repair", "train", "eval"))])
def test_missing_frames_file_is_a_usage_error(dataset, trained, tmp_path, capsys, command,
                                              missing):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(dataset, data)
    (data / missing).unlink()
    assert cli.main(_read_argv(command, data, out, trained)) == 2
    assert str(data / missing) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["repair", "train", "eval"])
def test_data_file_in_place_of_a_dataset_is_a_usage_error(dataset, trained, tmp_path, capsys,
                                                          command):
    # a dataset is its directory, which holds the manifest, not the data file alone
    out = tmp_path / "out"
    assert cli.main(_read_argv(command, dataset / "data.jsonl", out, trained)) == 2
    assert str(dataset / "data.jsonl") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [("{", "is not valid JSON"),
                                           ("[]", "is not a JSON object")],
                         ids=["invalid-json", "json-list"])
@pytest.mark.parametrize("command", ["repair", "train", "eval"])
def test_malformed_manifest_is_a_usage_error(dataset, trained, tmp_path, capsys, command, text,
                                             message):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(dataset, data)
    (data / "manifest.json").write_text(text)
    assert cli.main(_read_argv(command, data, out, trained)) == 2
    assert f"{data / 'manifest.json'} {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["repair", "train", "eval"])
def test_malformed_dataset_is_a_usage_error(dataset, trained, tmp_path, capsys, command):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(dataset, data)
    frames = data / "data.frames.f64"
    frames.write_bytes(frames.read_bytes()[:-8])
    lines = (data / "data.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])["id"]
    assert cli.main(_read_argv(command, data, out, trained)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {len(lines)}: sample {last!r}" in err
    assert not out.exists()


def test_repair_in_place_matches_a_fresh_repair(tmp_path):
    # repair reads the whole dataset before it rewrites it
    here, raw, fresh = tmp_path / "here", tmp_path / "raw", tmp_path / "fresh"
    assert cli.main(["gen", "--n", "8", "--seed", "4", "--out", str(here),
                     "--dropout", "0.3"]) == 0
    shutil.copytree(here, raw)
    assert cli.main(["repair", "--data", str(here), "--out", str(here)]) == 0
    assert cli.main(["repair", "--data", str(raw), "--out", str(fresh)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in here.iterdir())
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (here / "data.jsonl").read_bytes() != (raw / "data.jsonl").read_bytes()


def test_negative_dump_limit_refused_before_writing(dataset, trained, tmp_path, capsys):
    out, dump = tmp_path / "m.csv", tmp_path / "d.json"
    assert cli.main(["eval", "--ckpt", str(trained), "--data", str(dataset),
                     "--out", str(out), "--dump", str(dump), "--dump-limit", "-1"]) == 2
    assert "--dump-limit" in capsys.readouterr().err
    assert not out.exists() and not dump.exists()


def test_dump_and_forecast_match_the_scored_predictions(dataset, trained, tmp_path,
                                                        monkeypatch):
    ckpt = str(trained)

    scored = []
    score = trainer.score

    def record(cases, split, ratio, model):
        cases = list(cases)
        if model == "model":  # eval scores the CV cases through score too
            scored.extend((pred.copy(), observed) for _, observed, pred, _ in cases)
        return score(cases, split, ratio, model)

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
                     "--splits", "test_seen", "--ratios", "0.6", "--out", str(out)]) == 0
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


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this reachcast; returns stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_imports_only_stdlib_numpy_and_reachcast():
    # every command but repair starts without scipy, which takes longer to load than numpy
    code = ("import sys; before = set(sys.modules); import reachcast.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    loaded = set(_python(code).split())
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "reachcast"}


COMMANDS_THEN_REPAIR = """
import json, sys
from reachcast import cli

def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

data, run_dir, raw = (sys.argv[1] + "/" + name for name in ("data", "run", "raw"))
run("gen", "--n", 8, "--seed", 5, "--out", data, "--frame", 8, "--t-min", 6, "--t-max", 8,
    "--split", "4,2,1,1")
run("train", "--preset", "tiny", "--data", data, "--out", run_dir, "--epochs", 1,
    "--batch-size", 4)
run("eval", "--ckpt", run_dir + "/ckpt", "--data", data, "--out", run_dir + "/metrics.csv")
run("forecast", "--ckpt", run_dir + "/ckpt", "--data", data, "--id", "s00000",
    "--out", run_dir + "/forecast.json")
run("gradcheck", "--max-checks", 1)
before = scipy_loaded()
# tracks long enough to fit, so repair fits at least one depth curve
run("gen", "--n", 2, "--seed", 5, "--out", raw, "--frame", 8, "--t-min", 20, "--t-max", 24,
    "--dropout", 0.3, "--split", "1,1,0,0")
run("repair", "--data", raw, "--out", raw + "-repaired")
print(json.dumps({"before_repair": before, "after_repair": scipy_loaded()}))
"""


def test_only_repair_loads_scipy(tmp_path):
    # the commands print to the same stdout; the JSON line comes last
    loaded = json.loads(_python(COMMANDS_THEN_REPAIR, str(tmp_path)).splitlines()[-1])
    assert loaded["before_repair"] == []
    assert "scipy.optimize" in loaded["after_repair"]
