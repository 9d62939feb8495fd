"""Command-line entry point: gen, repair, train, eval, forecast, gradcheck.

Config-file-first: ``--config run.json`` supplies {model, train, loss,
data, out, seed}; command-line flags win over the file. Unknown config
keys are rejected by name. Every command is deterministic given its
config and seed; artifacts carry no timestamps. Exit codes: 0 success,
2 usage or config error, 1 runtime failure.

The environment variable REACHCAST_OUT, when set, replaces any --out
value (CI override). BLAS thread pools are pinned to one thread before
numpy loads so runs are single-threaded and reproducible.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import annotate, datagen, losses, model, trainer
from . import autodiff as ad


class ConfigError(ValueError):
    pass


MODEL_PRESETS = {"paper": model.ModelConfig, "desk": model.ModelConfig.desk,
                 "tiny": model.ModelConfig.tiny}


def _build_config(cls, doc, label, extra_keys=()):
    known = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in known and key not in extra_keys:
            raise ConfigError(f"unknown {label} config key: {key!r}")
    return doc


def _model_config(doc):
    doc = dict(_build_config(model.ModelConfig, doc, "model", extra_keys=("preset",)))
    preset = doc.pop("preset", "paper")
    if preset not in MODEL_PRESETS:
        raise ConfigError(f"unknown model preset: {preset!r}")
    if "enc_channels" in doc:
        doc["enc_channels"] = tuple(doc["enc_channels"])
    try:
        return MODEL_PRESETS[preset](**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad model config: {e}") from e


def _train_config(doc, overrides):
    doc = dict(_build_config(trainer.TrainConfig, doc, "train"))
    doc.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return trainer.TrainConfig(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad train config: {e}") from e


def _loss_config(doc):
    doc = dict(_build_config(losses.LossConfig, doc, "loss"))
    try:
        return losses.LossConfig(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad loss config: {e}") from e


def load_run_config(path):
    """Read the run-config JSON; returns a plain dict of sections."""
    doc = {}
    if path:
        with open(path) as f:
            doc = json.load(f)
        for key in doc:
            if key not in ("model", "train", "loss", "data", "out", "seed"):
                raise ConfigError(f"unknown config key: {key!r}")
    return doc


def _out_override(value):
    return os.environ.get("REACHCAST_OUT", value)


def _load_splits(data_dir, splits):
    """Read a dataset once; returns the samples of each split ("all" takes
    every sample) and the manifest."""
    samples, manifest = datagen.read_dataset(data_dir)
    if manifest is None:
        raise ConfigError(f"dataset {data_dir} has no manifest.json")
    return [samples if split == "all" else datagen.split_samples(samples, manifest, split)
            for split in splits], manifest


def _norm_from(manifest):
    return np.array(manifest["norm"]["min"]), np.array(manifest["norm"]["max"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args):
    out = Path(_out_override(args.out))
    split_counts = None
    if args.split:
        split_counts = tuple(int(c) for c in args.split.split(","))
    from .geometry import CameraIntrinsics
    side = float(args.frame)
    intrinsics = CameraIntrinsics(fx=side, fy=side, ox=side / 2, oy=side / 2,
                                  width=side, height=side)
    options = datagen.GenOptions(
        t_min=args.t_min, t_max=args.t_max, depth_dropout=args.dropout,
        pixel_noise=args.noise, profile=args.profile,
        rot_amplitude=args.rot_amp, trans_amplitude=args.trans_amp,
        bow_scale=args.bow, start_jitter=args.start_jitter, target_jitter=args.target_jitter,
        split_counts=split_counts, intrinsics=intrinsics,
    )
    samples, manifest = datagen.gen_dataset(args.n, args.seed, options)
    data_path, manifest_path = datagen.write_dataset(samples, manifest, out)
    print(f"wrote {len(samples)} samples to {data_path} (+ {manifest_path.name})")
    return 0


def cmd_repair(args):
    samples, manifest = datagen.read_dataset(args.data)
    out = Path(_out_override(args.out))
    rows, skipped = [], 0
    repaired_samples = []
    for s in samples:
        try:
            points, valid, row = annotate.repair_sample_depths(s)
        except annotate.InsufficientDataError:
            skipped += 1
            rows.append(annotate.RepairRow(s.id, int(np.sum(s.valid_depth)), 0, None))
            repaired_samples.append(s)
            continue
        rows.append(row)
        repaired_samples.append(dataclasses.replace(s, points_local=points, valid_depth=valid))
    datagen.write_dataset(repaired_samples, manifest, out)
    report = Path(args.report) if args.report else out / "repair_report.csv"
    with open(report, "w") as f:
        f.write("track_id,n_valid,n_repaired,rmse\n")
        for row in rows:
            f.write(row.as_csv() + "\n")
    n_repaired = sum(r.n_repaired for r in rows)
    print(f"repaired {n_repaired} depth entries across {len(samples)} tracks; report: {report}")
    if skipped:
        print(f"warning: skipped {skipped} tracks with fewer than "
              f"{annotate.MIN_VALID_POINTS} valid points", file=sys.stderr)
    return 0


def _read_history_csv(path):
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        e, t, l, v = line.split(",")
        rows.append((int(e), float(t), float(l), float(v)))
    return rows


def _write_history_csv(path, rows):
    with open(path, "w") as f:
        f.write("epoch,total,location,velocity\n")
        for e, t, l, v in rows:
            f.write(f"{e},{t:.9g},{l:.9g},{v:.9g}\n")


def _adam_path(ckpt):
    """Optimizer state beside a checkpoint base path: <base>_adam.{bin,json}."""
    base = Path(ckpt).with_suffix("")
    return base.with_name(base.name + "_adam")


def cmd_train(args):
    doc = load_run_config(args.config)
    out = Path(_out_override(args.out or doc.get("out") or "run"))
    out.mkdir(parents=True, exist_ok=True)
    data_dir = args.data or doc.get("data")
    if not data_dir:
        raise ConfigError("no dataset: pass --data or set 'data' in the config")

    model_doc = dict(doc.get("model", {}))
    if args.preset:
        model_doc["preset"] = args.preset
    cfg = _model_config(model_doc)
    overrides = {"epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
                 "seed": args.seed if args.seed is not None else doc.get("seed"),
                 "observation_mode": args.observation_mode,
                 "observation_ratio": args.observation_ratio}
    train_cfg = _train_config(doc.get("train", {}), overrides)
    loss_cfg = _loss_config(doc.get("loss", {}))

    (train_samples,), manifest = _load_splits(data_dir, ["train"])
    norm = _norm_from(manifest)

    start_epoch = 0
    history = []
    optimizer = None
    if args.resume:
        params, cfg, extra = model.load_checkpoint(args.resume)
        saved = extra.get("train", {})
        changed = [k for k, v in dataclasses.asdict(train_cfg).items()
                   if k != "epochs" and saved.get(k) != v]
        if changed:
            raise ConfigError(f"--resume: train config differs from the checkpoint's in "
                              f"{', '.join(changed)}")
        start_epoch = int(extra.get("epoch", 0))
        norm = (np.array(extra["norm"]["min"]), np.array(extra["norm"]["max"]))
        curve = Path(args.resume).parent / "loss_curve.csv"
        if curve.exists():
            history = _read_history_csv(curve)
        adam = _adam_path(args.resume)
        if adam.with_suffix(".json").exists():
            optimizer = trainer.Adam.load(params, adam)
        else:
            print(f"warning: no optimizer state at {adam}; resuming with fresh Adam moments",
                  file=sys.stderr)
        print(f"resuming at epoch {start_epoch + 1}")
    else:
        params = model.init_params(cfg, seed=train_cfg.seed)

    new_rows, optimizer = trainer.fit(params, cfg, train_samples, norm, train_cfg, loss_cfg,
                                      start_epoch=start_epoch, optimizer=optimizer)
    history.extend(new_rows)
    extra = {"epoch": train_cfg.epochs,
             "norm": {"min": norm[0].tolist(), "max": norm[1].tolist()},
             "train": dataclasses.asdict(train_cfg),
             "loss": dataclasses.asdict(loss_cfg)}
    model.save_checkpoint(params, cfg, out / "ckpt", extra=extra)
    optimizer.save(_adam_path(out / "ckpt"), cfg)
    _write_history_csv(out / "loss_curve.csv", history)
    final = history[-1]
    print(f"trained to epoch {final[0]}; final loss {final[1]:.6f}; checkpoint: {out / 'ckpt'}")
    return 0


def _parse_ratios(text):
    if ".." in text:
        lo, hi = (float(v) for v in text.split(".."))
        n = int(round((hi - lo) / 0.1)) + 1
        return [round(lo + 0.1 * i, 10) for i in range(n)]
    return [float(v) for v in text.split(",")]


def cmd_eval(args):
    ckpt = Path(args.ckpt)
    if not ckpt.with_suffix(".json").exists():
        raise ConfigError(f"missing checkpoint: {ckpt}")
    params, cfg, extra = model.load_checkpoint(ckpt)
    norm = (np.array(extra["norm"]["min"]), np.array(extra["norm"]["max"]))
    ratios = _parse_ratios(args.ratios)
    splits = args.splits.split(",")

    rows = []
    dumps = []
    for split, samples in zip(splits, _load_splits(args.data, splits)[0]):
        if not samples:
            raise ValueError(f"no samples in split {split!r}")
        dumped = {s.id for s in samples[: args.dump_limit]} if args.dump else set()
        for ratio in ratios:
            cases = trainer.forecast_cases(params, cfg, samples, norm, ratio)
            rows.append(trainer.score(cases, split, ratio, "model"))
            if args.baseline == "cv":
                rows.append(trainer.evaluate_baseline(samples, ratio, split=split))
            dumps.extend({**_trajectory_doc(s, observed, pred, gt), "split": split, "ratio": ratio}
                         for s, observed, pred, gt in cases if s.id in dumped)
    out = Path(_out_override(args.out))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        f.write(trainer.MetricsRow.CSV_HEADER + "\n")
        for row in rows:
            f.write(row.as_csv() + "\n")
    print(f"wrote {len(rows)} metric rows to {out}")
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dumps, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(dumps)} trajectory dumps to {args.dump}")
    return 0


def _trajectory_doc(s, observed, pred, gt):
    """The fields a dump row and a forecast share: the sample's observed
    steps, its future ground truth and the decoded prediction."""
    pred, gt = pred.tolist(), gt.tolist()
    return {"id": s.id, "observed_count": observed, "observed": gt[:observed],
            "future_gt": gt[observed:], "predicted": pred[observed:]}


def cmd_forecast(args):
    ckpt = Path(args.ckpt)
    if not ckpt.with_suffix(".json").exists():
        raise ConfigError(f"missing checkpoint: {ckpt}")
    params, cfg, extra = model.load_checkpoint(ckpt)
    norm = (np.array(extra["norm"]["min"]), np.array(extra["norm"]["max"]))
    (samples,), _ = _load_splits(args.data, ["all"])
    by_id = {s.id: s for s in samples}
    if args.id not in by_id:
        raise ConfigError(f"sample {args.id!r} not in dataset")
    s = by_id[args.id]
    fixed = trainer.TrainConfig(observation_mode="fixed", observation_ratio=args.ratio)
    observed = trainer.observation_count(s.horizon, fixed)
    frames, points, obs, lengths, _ = trainer.assemble_batch([s], cfg, norm, [observed])
    fc = model.forecast(params, cfg, frames[0, : s.horizon], points[0, : s.horizon], observed)
    doc = {
        **_trajectory_doc(s, observed, *trainer.decode_prediction(fc.mean, s, cfg, norm)),
        "scene": s.scene, "horizon": s.horizon,
        "alpha": fc.alpha.tolist(),
        "beta": None if fc.beta is None else fc.beta.tolist(),
        "velocity": fc.velocity.tolist(),
    }
    out = Path(_out_override(args.out))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote forecast for {s.id} (C={observed}) to {out}")
    return 0


def cmd_gradcheck(args):
    cfg = _model_config({"preset": args.preset, "horizon": args.horizon,
                         "frame_h": args.frame, "frame_w": args.frame})
    if not 1 <= args.observed < cfg.horizon:
        raise ConfigError(f"--observed must be in [1, {cfg.horizon - 1}] for horizon "
                          f"{cfg.horizon}, got {args.observed}")
    params = model.init_params(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    n, t = 2, cfg.horizon
    frames = rng.uniform(0, 1, (n, t, cfg.frame_h, cfg.frame_w))
    points = rng.uniform(-0.8, 0.8, (n, t, cfg.point_dim))
    observed = np.array([args.observed, max(args.observed - 2, 1)])
    valid = np.ones((n, t), bool)
    weights = (losses.depth_stability_weights(points[..., 2], valid)
               if cfg.point_dim == 3 else None)
    loss_cfg = losses.LossConfig()

    def build():
        out = model.forward_batch(params, cfg, frames, points, observed)
        total, _, _ = losses.total_batch(out["mean"], out["alpha"], out["beta"],
                                         out["velocity"], points, weights, observed,
                                         valid, loss_cfg)
        return total

    inputs = dict(params.trainable_items())
    report = ad.check_gradients(build, inputs, step=args.step, tolerance=args.tolerance,
                                max_checks_per_tensor=args.max_checks, seed=args.seed)
    for line in report.lines():
        print(line)
    worst = max(e.max_rel_err for e in report.entries)
    print(f"{'PASS' if report.passed else 'FAIL'}: worst relative error {worst:.3e} "
          f"(tolerance {args.tolerance:g})")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reachcast",
        description="Egocentric 3D reach-trajectory forecasting: synthetic data, "
                    "depth repair, training, and ADE/FDE evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--t-min", type=int, default=12)
    p.add_argument("--t-max", type=int, default=16)
    p.add_argument("--dropout", type=float, default=0.0, help="depth dropout probability")
    p.add_argument("--noise", type=float, default=0.05, help="frame pixel noise")
    p.add_argument("--profile", choices=datagen.PROFILES, default="min-jerk")
    p.add_argument("--rot-amp", type=float, default=0.004)
    p.add_argument("--trans-amp", type=float, default=0.003)
    p.add_argument("--frame", type=int, default=16, help="square frame side in pixels")
    p.add_argument("--bow", type=float, default=0.3, help="peak reach arc as a fraction of length")
    p.add_argument("--start-jitter", type=float, default=0.03)
    p.add_argument("--target-jitter", type=float, default=0.04)
    p.add_argument("--split", help="counts train,val,test_seen,test_unseen")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("repair", help="repair missing depths via least-squares fitting")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="report CSV path (default <out>/repair_report.csv)")
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("train", help="train a forecaster")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--observation-mode", choices=trainer.OBSERVATION_MODES)
    p.add_argument("--observation-ratio", type=float)
    p.add_argument("--resume", help="checkpoint base path to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="ADE/FDE metrics over splits and ratios")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--splits", default="test_seen,test_unseen")
    p.add_argument("--ratios", default="0.6", help="'0.6', '0.3,0.6', or '0.1..0.9'")
    p.add_argument("--baseline", choices=["cv"], help="add constant-velocity rows")
    p.add_argument("--out", default="metrics.csv")
    p.add_argument("--dump", help="write per-sample trajectory JSON here")
    p.add_argument("--dump-limit", type=int, default=8)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("forecast", help="forecast one sample and dump JSON")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--ratio", type=float, default=0.6)
    p.add_argument("--out", default="forecast.json")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("gradcheck", help="verify model gradients by finite differences")
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS), default="tiny")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--frame", type=int, default=8)
    p.add_argument("--observed", type=int, default=5)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--max-checks", type=int, default=6, help="FD probes per tensor")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.n < 1:
        parser.error("--n must be >= 1")
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
