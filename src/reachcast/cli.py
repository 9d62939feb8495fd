"""Command-line entry point: gen, repair, train, eval, forecast, gradcheck.

Config-file-first: ``--config run.json`` supplies the {model, train,
loss} sections; command-line flags win over the file, and the training
seed is ``train.seed`` or ``--seed``. Paths come only from flags: a run
reads ``--data`` and writes ``--out``. Unknown config keys are rejected
by name. ``eval`` writes a constant-velocity baseline row after each
model row, and ``repair`` writes its report, ``repair_report.csv``,
beside the repaired data. Every command is deterministic given its
config and seed; artifacts carry no timestamps. BLAS thread pools are
pinned to one thread before numpy loads so runs are single-threaded and
reproducible.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
``main`` returns each of them, argparse's usage errors included; only
``--help`` exits through ``SystemExit``. Exit 2 covers bad flags (an
unknown flag, a missing flag or command, a value of the wrong type or
outside its choices); a run config, manifest, checkpoint or
optimizer-state ``.json`` that is not a JSON object; a run config whose
``model``, ``train`` or ``loss`` is not an object; a config key or value
that its section (model, train, loss, gen options, ``gen --frame``
intrinsics, ``forecast --ratio``) refuses; observation ratios that do
not parse, fall outside (0, 1) or give an empty range or one that is not
a whole number of 0.1 steps; a negative ``eval --dump-limit``; a
``gradcheck --max-checks`` below 1; a dataset that is not a directory
holding ``data.jsonl``, its frames file ``data.frames.f64`` and
``manifest.json``; a manifest without a ``splits`` object of id lists,
or (``train``) without a ``norm`` of 3 ``min`` values each below its
``max``; a missing checkpoint or optimizer state, or one that
``model.CheckpointError`` refuses (no config object, a config
``ModelConfig`` refuses, a ``.bin`` that is not the size the config's
parameter layout needs, or optimizer moments that do not match the
model); a checkpoint whose extra has no such ``norm`` or, for
``--resume``, no ``train`` and ``loss`` objects and non-negative integer
``epoch``; a malformed dataset, a line or frames file that
``datagen.ParseError`` names by line and sample; an empty split, or a
sample ``trainer.check_sample`` refuses, that a command would feed the
model; and a ``--resume`` whose model, train or loss config differs
from the checkpoint's. Bad values are refused before a command writes
anything, and every output's directory is created as needed.
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ConfigErrors; its subparsers are
    ``_Parser``s too, since argparse makes them with ``type(self)``."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


MODEL_PRESETS = {"paper": model.ModelConfig.paper, "desk": model.ModelConfig.desk,
                 "tiny": model.ModelConfig.tiny}
# `gen` flags and the GenOptions fields they set, which document them
GEN_FLAGS = {"--t-min": "t_min", "--t-max": "t_max", "--dropout": "depth_dropout"}
# the sections of a run config, each a JSON object
RUN_CONFIG_KEYS = ("model", "train", "loss")
# gradcheck's finite-difference step, its pass tolerance and its seed
GRADCHECK_STEP, GRADCHECK_TOLERANCE, GRADCHECK_SEED = 1e-4, 1e-3, 0


def _section(cls, label, doc, overrides=None):
    """One config section as ``cls``: unknown keys are refused by name,
    overrides that are not None win over ``doc``, and a value the class
    refuses is a ConfigError. A model section may name a ``preset``."""
    doc = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    make = cls
    if cls is model.ModelConfig:
        preset = doc.pop("preset", "paper")
        if preset not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset: {preset!r}")
        make = MODEL_PRESETS[preset]
    known = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown {label} config key: {key!r}")
    try:
        return make(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {label} config: {e}") from e


def load_run_config(path):
    """Read the run-config JSON; returns a plain dict of sections."""
    doc = {}
    if path:
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        for key, value in doc.items():
            if key not in RUN_CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            if not isinstance(value, dict):
                raise ConfigError(f"config {path}: {key!r} is not an object")
    return doc


def _load_splits(data_dir, splits):
    """Read a dataset once; returns the samples of each split ("all" takes
    every sample) and the manifest. Split names the manifest does not
    define are refused before the samples are read."""
    manifest = datagen.read_manifest(data_dir)
    known = manifest.get("splits")
    if not isinstance(known, dict) or not all(isinstance(v, list) for v in known.values()):
        raise ConfigError(f"{Path(data_dir) / 'manifest.json'} has no 'splits' object of id lists")
    unknown = [s for s in splits if s != "all" and s not in known]
    if unknown:
        raise ConfigError(f"unknown split {', '.join(map(repr, unknown))}; dataset {data_dir} "
                          f"has splits {', '.join(manifest['splits'])}")
    samples = datagen.read_dataset(data_dir)[0]
    return [samples if split == "all" else datagen.split_samples(samples, manifest, split)
            for split in splits], manifest


def _check_feed(samples, cfg, split):
    """Refuse a split with no samples, or a sample the model cannot take."""
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    try:
        for s in samples:
            trainer.check_sample(s, cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _write_lines(path, lines):
    """Write each of ``lines`` and a newline to ``path``, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def _write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys."""
    _write_lines(path, [json.dumps(doc, indent=1, sort_keys=True)])


def _norm_from(doc, source):
    """The normalization range a dataset manifest or checkpoint extra
    records: 3 ``min`` values each below its ``max``. ``source`` names the
    file for the refusal of any other."""
    try:
        lo, hi = (np.array(doc["norm"][k], dtype=np.float64) for k in ("min", "max"))
        ok = lo.shape == hi.shape == (3,) and np.all(lo < hi)
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{source} has no 'norm' of 3 'min' values each below its 'max'")
    return lo, hi


def _checkpoint_json(path):
    """How a refusal names the ``.json`` of the checkpoint at base path ``path``."""
    return f"checkpoint {path}: {Path(path).with_suffix('.json')}"


def _open_checkpoint(path):
    """(params, cfg, extra, norm) of the checkpoint at base path ``path``."""
    params, cfg, extra = model.load_checkpoint(path)
    return params, cfg, extra, _norm_from(extra, _checkpoint_json(path))


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args):
    split_counts = None
    if args.split:
        try:
            split_counts = tuple(int(c) for c in args.split.split(","))
        except ValueError:
            raise ConfigError(f"--split takes comma-separated counts, got {args.split!r}") from None
    from .geometry import CameraIntrinsics
    side = float(args.frame)
    intrinsics = _section(CameraIntrinsics, "--frame", dict(fx=side, fy=side, ox=side / 2,
                                                           oy=side / 2, width=side, height=side))
    options = _section(datagen.GenOptions, "gen", {f: getattr(args, f) for f in GEN_FLAGS.values()},
                       {"split_counts": split_counts, "intrinsics": intrinsics})
    try:
        options.resolve_splits(args.n)
    except ValueError as e:
        raise ConfigError(f"bad gen config: {e}") from e
    samples, manifest = datagen.gen_dataset(args.n, args.seed, options)
    data_path, manifest_path = datagen.write_dataset(samples, manifest, Path(args.out))
    print(f"wrote {len(samples)} samples to {data_path} (+ its frames file and "
          f"{manifest_path.name})")
    return 0


def cmd_repair(args):
    samples, manifest = datagen.read_dataset(args.data)
    out = Path(args.out)
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
    report = out / "repair_report.csv"
    _write_lines(report, ["track_id,n_valid,n_repaired,rmse", *(row.as_csv() for row in rows)])
    n_repaired = sum(r.n_repaired for r in rows)
    print(f"repaired {n_repaired} depth entries across {len(samples)} tracks; report: {report}")
    if skipped:
        print(f"warning: skipped {skipped} tracks with fewer than "
              f"{annotate.MIN_VALID_POINTS} valid points", file=sys.stderr)
    return 0


def _adam_path(ckpt):
    """Optimizer state beside a checkpoint base path: <base>_adam.{bin,json}."""
    base = Path(ckpt).with_suffix("")
    return base.with_name(base.name + "_adam")


def cmd_train(args):
    doc = load_run_config(args.config)
    out = Path(args.out)
    overrides = {"epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
                 "seed": args.seed, "observation_mode": args.observation_mode}
    try:
        cfg = _section(model.ModelConfig, "model", doc.get("model", {}), {"preset": args.preset})
        train_cfg = _section(trainer.TrainConfig, "train", doc.get("train", {}), overrides)
        loss_cfg = _section(losses.LossConfig, "loss", doc.get("loss", {}))
    except ConfigError as e:  # flags or the config file: name the file, if there is one
        raise ConfigError(f"config {args.config}: {e}" if args.config else str(e)) from None

    (train_samples,), manifest = _load_splits(args.data, ["train"])
    norm = _norm_from(manifest, Path(args.data) / "manifest.json")

    start_epoch = 0
    earlier = []
    optimizer = None
    if args.resume:
        params, saved_cfg, extra, norm = _open_checkpoint(args.resume)
        saved = {"model": dataclasses.asdict(saved_cfg), "train": extra.get("train"),
                 "loss": extra.get("loss")}
        start_epoch = extra.get("epoch")
        if (not isinstance(saved["train"], dict) or not isinstance(saved["loss"], dict)
                or type(start_epoch) is not int or start_epoch < 0):
            raise ConfigError(f"{_checkpoint_json(args.resume)} has no extra 'train' and 'loss' "
                              "objects and non-negative integer 'epoch'")
        for label, section in (("model", cfg), ("train", train_cfg), ("loss", loss_cfg)):
            changed = [k for k, v in dataclasses.asdict(section).items()
                       if k != "epochs" and saved[label].get(k) != v]
            if changed:
                raise ConfigError(f"--resume: {label} config differs from the checkpoint's in "
                                  f"{', '.join(changed)}")
        if train_cfg.epochs <= start_epoch:
            raise ConfigError(f"--resume: the checkpoint is at epoch {start_epoch}; "
                              f"--epochs {train_cfg.epochs} leaves nothing to train")
        curve = Path(args.resume).parent / "loss_curve.csv"
        if curve.exists():
            earlier = curve.read_text().splitlines()[1:]
        optimizer = trainer.Adam.load(params, _adam_path(args.resume))
        print(f"resuming at epoch {start_epoch + 1}")
    else:
        params = model.init_params(cfg, seed=train_cfg.seed)

    _check_feed(train_samples, cfg, "train")
    rows, optimizer = trainer.fit(params, cfg, train_samples, norm, train_cfg, loss_cfg,
                                  start_epoch=start_epoch, optimizer=optimizer)
    extra = {"epoch": train_cfg.epochs,
             "norm": {"min": norm[0].tolist(), "max": norm[1].tolist()},
             "train": dataclasses.asdict(train_cfg),
             "loss": dataclasses.asdict(loss_cfg)}
    model.save_checkpoint(params, cfg, out / "ckpt", extra=extra)
    optimizer.save(_adam_path(out / "ckpt"), cfg)
    # the loss curve: the resumed checkpoint's lines as they are, then this run's
    _write_lines(out / "loss_curve.csv", ["epoch,total,location,velocity", *earlier,
                                          *(f"{e},{t:.9g},{l:.9g},{v:.9g}" for e, t, l, v in rows)])
    final = rows[-1]
    print(f"trained to epoch {final[0]}; final loss {final[1]:.6f}; checkpoint: {out / 'ckpt'}")
    return 0


def _parse_ratios(text):
    """'0.6', '0.3,0.6', or the range '0.1..0.9', a whole number of 0.1
    steps; each in (0, 1)."""
    span = ".." in text
    try:
        values = [float(v) for v in text.split(".." if span else ",")]
    except ValueError:
        raise ConfigError(f"--ratios: cannot read {text!r}") from None
    if span and len(values) == 2 and 0 < values[0] <= values[1] < 1:
        lo, hi = values
        steps = (hi - lo) / 0.1
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(f"--ratios: {text!r} is not a whole number of 0.1 steps")
        values = [round(lo + 0.1 * i, 10) for i in range(round(steps) + 1)]
    elif span:
        raise ConfigError(f"--ratios: {text!r} is not a range lo..hi with 0 < lo <= hi < 1")
    if not all(0 < v < 1 for v in values):
        raise ConfigError(f"--ratios takes observation ratios in (0, 1), got {text!r}")
    return values


def cmd_eval(args):
    if args.dump_limit < 0:
        raise ConfigError(f"--dump-limit takes a count >= 0, got {args.dump_limit}")
    params, cfg, _, norm = _open_checkpoint(args.ckpt)
    ratios = _parse_ratios(args.ratios)
    splits = args.splits.split(",")

    rows = []
    dumps = []
    for split, samples in zip(splits, _load_splits(args.data, splits)[0]):
        _check_feed(samples, cfg, split)
        dumped = {s.id for s in samples[: args.dump_limit]} if args.dump else set()
        for ratio in ratios:
            cases = trainer.forecast_cases(params, cfg, samples, norm, ratio)
            rows += [trainer.score(cases, split, ratio, "model"),
                     trainer.evaluate_baseline(samples, ratio, split=split,
                                               image_plane=cfg.coordinate_mode == "2d")]
            dumps.extend({**_trajectory_doc(s, observed, pred, gt), "split": split, "ratio": ratio}
                         for s, observed, pred, gt in cases if s.id in dumped)
    _write_lines(args.out, [trainer.MetricsRow.CSV_HEADER, *(row.as_csv() for row in rows)])
    print(f"wrote {len(rows)} metric rows to {args.out}")
    if args.dump:
        _write_json(args.dump, dumps)
        print(f"wrote {len(dumps)} trajectory dumps to {args.dump}")
    return 0


def _trajectory_doc(s, observed, pred, gt):
    """The fields a dump row and a forecast share: the sample's observed
    steps, its future ground truth and the decoded prediction."""
    pred, gt = pred.tolist(), gt.tolist()
    return {"id": s.id, "observed_count": observed, "observed": gt[:observed],
            "future_gt": gt[observed:], "predicted": pred[observed:]}


def cmd_forecast(args):
    fixed = _section(trainer.TrainConfig, "--ratio",
                     {"observation_mode": "fixed", "observation_ratio": args.ratio})
    params, cfg, _, norm = _open_checkpoint(args.ckpt)
    (samples,), _ = _load_splits(args.data, ["all"])
    by_id = {s.id: s for s in samples}
    if args.id not in by_id:
        raise ConfigError(f"sample {args.id!r} not in dataset")
    s = by_id[args.id]
    _check_feed([s], cfg, "all")
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
    _write_json(args.out, doc)
    print(f"wrote forecast for {s.id} (C={observed}) to {args.out}")
    return 0


def cmd_gradcheck(args):
    if args.max_checks < 1:
        raise ConfigError(f"--max-checks takes a count >= 1, got {args.max_checks}")
    # float64 whatever the preset: finite differences need it
    cfg = _section(model.ModelConfig, "model", {"preset": args.preset, "horizon": args.horizon,
                                                "frame_h": args.frame, "frame_w": args.frame,
                                                "compute_dtype": "float64"})
    if not 1 <= args.observed < cfg.horizon:
        raise ConfigError(f"--observed must be in [1, {cfg.horizon - 1}] for horizon "
                          f"{cfg.horizon}, got {args.observed}")
    params = model.init_params(cfg, seed=GRADCHECK_SEED)
    rng = np.random.default_rng(GRADCHECK_SEED)
    n, t = 2, cfg.horizon
    frames = rng.uniform(0, 1, (n, t, cfg.frame_h, cfg.frame_w))
    points = rng.uniform(-0.8, 0.8, (n, t, cfg.point_dim))
    observed = np.array([args.observed, max(args.observed - 2, 1)])
    valid = np.ones((n, t), bool)
    loss_cfg = losses.LossConfig()

    def build():
        out = model.forward_batch(params, cfg, frames, points, observed)
        return losses.total_batch(out, points, observed, valid, loss_cfg)[0]

    inputs = dict(params.trainable_items())
    entries = ad.check_gradients(build, inputs, step=GRADCHECK_STEP,
                                 tolerance=GRADCHECK_TOLERANCE,
                                 max_checks_per_tensor=args.max_checks, seed=GRADCHECK_SEED)
    for e in entries:
        print(f"{'pass' if e.passed else 'FAIL'}  {e.name:32s} max_rel_err={e.max_rel_err:.3e} "
              f"checked={e.n_checked}")
    passed = all(e.passed for e in entries)
    worst = max(e.max_rel_err for e in entries)
    print(f"{'PASS' if passed else 'FAIL'}: worst relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = _Parser(
        prog="reachcast",
        description="Egocentric 3D reach-trajectory forecasting: synthetic data, "
                    "depth repair, training, and ADE/FDE evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    defaults = datagen.GenOptions()
    for flag, field in GEN_FLAGS.items():
        default = getattr(defaults, field)
        p.add_argument(flag, dest=field, type=type(default), default=default,
                       help=f"GenOptions.{field}")
    p.add_argument("--frame", type=int, default=int(defaults.intrinsics.width),
                   help="square frame side in pixels")
    p.add_argument("--split", help="counts train,val,test_seen,test_unseen")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("repair", help="repair missing depths via least-squares fitting; "
                                      "the report is <out>/repair_report.csv")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("train", help="train a forecaster")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="run")
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--observation-mode", choices=trainer.OBSERVATION_MODES)
    p.add_argument("--resume", help="checkpoint base path to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="ADE/FDE metrics of the model and the constant-velocity "
                                    "baseline over splits and ratios")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--splits", default="test_seen,test_unseen")
    p.add_argument("--ratios", default="0.6", help="'0.6', '0.3,0.6', or '0.1..0.9'")
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
    p.add_argument("--max-checks", type=int, default=6, help="FD probes per tensor")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, FileNotFoundError, NotADirectoryError, datagen.ParseError,
            model.CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
