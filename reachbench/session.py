"""The benchmark's workloads and the session that each one runs.

A session is one client in a closed loop (each call starts only when the
previous one has returned), in one process, on inputs generated from the
seed. It calls these operations of the program:

- data:     ``cli.main gen`` (depth dropout 0.3) -> ``cli.main repair``
            -> ``datagen.read_dataset`` of the repaired set, one shard
- train:    ``trainer.fit`` from the fixed initial weights
- setup:    a fresh interpreter importing ``reachcast.cli``, then
            ``model.init_params`` and ``datagen.read_dataset`` of the dataset
- eval:     ``trainer.evaluate`` and ``trainer.evaluate_baseline`` over
            both test splits
- forecast: single-sample ``model.forecast`` requests

First the session writes, repairs and reads the dataset the model trains
and evaluates on, trains the model for the workload's full schedule (the
source of ``ade3d_m``) and saves the checkpoint; none of this is timed.
Then it runs a fixed number of rounds, set by ``--seconds`` alone
(``Workload.rounds``), so every run of a workload makes the same calls
whatever the program's speed: a faster program finishes sooner, it does not
make more calls. Each round makes a fixed number of calls of every kind,
sized by the workload and interleaved; set-up runs in ``SETUPS`` of the
rounds.

Interleaved calls spread every metric's samples over the whole run. Every
timed call is scaled to the speed of the machine at that moment
(``refclock``), because the machine this was tuned on switches between a
slow and a fast state and the share of time in each differs from run to
run. A throughput is total work over total scaled time (``stats.rate``); latency is a
median and a tail percentile of a fixed number of requests.

The benchmark format asks for every end-to-end metric on every workload,
so every operation runs on every workload; a workload's emphasis comes
from the sizes of its calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from reachcast import cli, datagen, model, trainer
from reachcast.geometry import CameraIntrinsics

from refclock import REF_S, timed
from stats import rate, tail_percentile

INIT_SEED = 0      # the initial weights are fixed; the run's seed varies the data
MIN_ROUNDS = 2
SETUPS = 3         # set-ups per run, spread over its rounds
EVAL_RATIO = 0.6
DROPOUT = 0.3       # depth dropout of every generated shard
ALL_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Workload:
    """One workload's inputs and the size of each call it makes."""

    name: str
    why: str
    preset: str             # model preset
    frame: int              # square frame side of the generated data
    t_min: int
    t_max: int
    split: tuple            # train, val, test_seen, test_unseen of the model's dataset
    epochs: int             # the full training schedule
    batch: int
    lr: float
    round_seconds: float    # nominal length of a round; sets the round count
    shard: int              # samples in each timed data shard
    round_shards: int       # data shards in each round
    round_fits: int         # one-epoch fits in each round
    fit_samples: int        # train samples each of those fits takes
    round_evals: int        # evaluations in each round
    forecast_samples: int   # test samples the forecast requests cycle through
    forecast_ratios: tuple
    round_forecasts: int    # forecast requests in each round

    def rounds(self, seconds, trace):
        """The run's round count, from --seconds alone; with tracing it is
        even, so as many rounds run traced as untraced."""
        r = max(MIN_ROUNDS, round(seconds / self.round_seconds))
        return r + r % 2 if trace else r

    def model_config(self):
        return cli.MODEL_PRESETS[self.preset](horizon=self.t_max)

    def gen_options(self):
        """The options ``gen_argv`` gives a shard (no --split)."""
        side = float(self.frame)
        return datagen.GenOptions(
            t_min=self.t_min, t_max=self.t_max, depth_dropout=DROPOUT,
            intrinsics=CameraIntrinsics(fx=side, fy=side, ox=side / 2, oy=side / 2,
                                        width=side, height=side))

    def gen_argv(self, n, seed, out, split=None):
        argv = ["gen", "--n", str(n), "--seed", str(seed), "--out", str(out),
                "--dropout", str(DROPOUT), "--frame", str(self.frame),
                "--t-min", str(self.t_min), "--t-max", str(self.t_max)]
        return argv + (["--split", ",".join(str(c) for c in split)] if split else [])

    def train_config(self, seed, epochs):
        return trainer.TrainConfig(lr=self.lr, warmup_epochs=1, epochs=epochs,
                                   batch_size=self.batch, observation_mode="random",
                                   seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-desk",
        why="desk training, where the per-step transition loop and tape overhead dominate",
        preset="desk", frame=16, t_min=12, t_max=16, split=(160, 0, 32, 32),
        epochs=10, batch=32, lr=1e-3,
        round_seconds=4.8, shard=16, round_shards=2, round_fits=9, fit_samples=32,
        round_evals=6,
        forecast_samples=64, forecast_ratios=ALL_RATIOS, round_forecasts=204),
    Workload(
        name="train-paper",
        why="paper-size training (12.3M params, 64x64 frames), where encoder GEMMs dominate",
        preset="paper", frame=64, t_min=32, t_max=40, split=(16, 0, 8, 8),
        epochs=3, batch=8, lr=1e-4,
        round_seconds=6.0, shard=4, round_shards=2, round_fits=2, fit_samples=8,
        round_evals=1,
        forecast_samples=8, forecast_ratios=(0.1, 0.3, 0.5, 0.7, 0.9), round_forecasts=25),
)}


class OpFailed(RuntimeError):
    """A call into the program raised or returned a failure code."""


class Recorder:
    """Counts operations and collects timings and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}

    def op(self, fn, *args):
        """Time one closed-loop call; returns (refclock.Timing, result). A
        call that raises counts as failed and ends the run."""
        self.attempted += 1
        try:
            return timed(fn, *args)
        except Exception as e:
            self.failed += 1
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}") from e

    def cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t, code = self.op(cli.main, argv)
        if code != 0:
            self.failed += 1
            raise OpFailed(f"reachcast {argv[0]} exited with {code}")
        return t

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


def _all_finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _same_pose(a, b):
    return len(a) == len(b) and all(np.array_equal(p.matrix, q.matrix)
                                    for p, q in zip(a.poses, b.poses))


def check_data(w, seed, raw_dir, repaired, rec):
    """Read-back checks; returns the count of raw-read points whose global
    position is wrong (depth-dropout sentinel lifted through the pose chain).

    Stored fields must read back exactly. points_global is recomputed by the
    reader and is not compared, only counted.
    """
    expected, _ = datagen.gen_dataset(w.shard, seed, w.gen_options())
    got, _ = datagen.read_dataset(raw_dir)
    rec.check([s.id for s in got] == [s.id for s in expected], "raw read: ids differ")
    wrong_global = 0
    for a, b in zip(got, expected):
        same = (a.scene == b.scene and np.array_equal(a.points_local, b.points_local)
                and np.array_equal(a.valid_depth, b.valid_depth)
                and np.array_equal(a.frames, b.frames) and _same_pose(a.poses, b.poses)
                and a.intrinsics == b.intrinsics)
        rec.check(same, f"raw read: stored fields of {a.id} differ from the generated sample")
        wrong_global += int(np.sum(np.abs(a.points_global - b.points_global).max(axis=1) > 1e-9))
    for s in repaired:
        rec.check(bool(np.all(s.valid_depth)) and _all_finite([s.points_local, s.points_global]),
                  f"repaired sample {s.id} has invalid or non-finite depths")
    return wrong_global


def check_history(history, params, rec):
    totals = [row[1:] for row in history]
    rec.check(_all_finite(totals), "train: a loss is not finite")
    rec.check(len(history) >= 2 and history[-1][1] < history[0][1],
              f"train: last epoch loss {history[-1][1]:.6g} is not below the first "
              f"{history[0][1]:.6g}")
    rec.check(_all_finite([t.data for _, t in params.items()]), "train: parameters not finite")


def check_forecast(fc, rec):
    rec.check(_all_finite([fc.mean, fc.alpha, fc.velocity])
              and (fc.beta is None or _all_finite([fc.beta]))
              and float(np.min(fc.mean)) >= -1.0 and float(np.max(fc.mean)) <= 1.0,
              "forecast: non-finite output or mean outside [-1, 1]")


def masking_probe(params, cfg, request, seed, rec):
    """Inputs past C must not change the forecast by a single bit."""
    frames, points, c = request
    rng = np.random.default_rng([seed, 99])
    frames2, points2 = frames.copy(), points.copy()
    frames2[c:] = rng.uniform(0, 1, frames2[c:].shape)
    points2[c:] = rng.uniform(-1, 1, points2[c:].shape)
    a = rec.op(model.forecast, params, cfg, frames, points, c)[1]
    b = rec.op(model.forecast, params, cfg, frames2, points2, c)[1]
    same = all(np.array_equal(x, y) for x, y in
               ((a.mean, b.mean), (a.alpha, b.alpha), (a.velocity, b.velocity)))
    same = same and (a.beta is None or np.array_equal(a.beta, b.beta))
    rec.check(same, "masking probe: inputs past C changed the forecast")


def import_cli(root):
    """A fresh interpreter imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import reachcast.cli"], env=env, cwd=root,
                   check=True, stdout=subprocess.DEVNULL)


def setup_rounds(rounds):
    """The rounds that run set-up: SETUPS of them, the first and the last
    included, spread evenly."""
    if rounds <= SETUPS:
        return set(range(rounds))
    return {round(i * (rounds - 1) / (SETUPS - 1)) for i in range(SETUPS)}


def interleave(counts):
    """One round's calls in order, each kind's calls spread evenly over the
    round, so that every metric samples the machine's state throughout."""
    slots = [((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n)]
    return [kind for _, kind in sorted(slots)]


def requests_for(w, cfg, samples, norm, seed):
    """Single-sample forecast inputs, cycling samples and ratios in seeded order."""
    combos = [(s, r) for s in samples for r in w.forecast_ratios]
    order = np.random.default_rng([seed, 7]).permutation(len(combos))
    out = []
    for i in order:
        s, ratio = combos[i]
        fixed = trainer.TrainConfig(observation_mode="fixed", observation_ratio=ratio)
        c = trainer.observation_count(s.horizon, fixed)
        frames, points, _, _, _ = trainer.assemble_batch([s], cfg, norm, [c])
        out.append((frames[0, : s.horizon], points[0, : s.horizon], c))
    return out


class Session:
    """One run of a workload: the dataset and full training, then rounds.

    With a tracer, every other round runs with the layers wrapped and
    records into `traced`; the rounds between stay untraced, so the run
    measures its own tracing overhead. Wrappers are removed after each
    traced round.
    """

    def __init__(self, w, seed, root, tmp, rec, seconds, tracer=None):
        self.w, self.seed, self.root, self.tmp = w, seed, root, tmp
        self.rounds = w.rounds(seconds, tracer is not None)
        self.tracer = tracer
        self.base = self.rec = rec
        self.traced = Recorder()
        self.cfg = w.model_config()
        self.histories = {}  # the loss history of each train slice's first timed fit
        self.steps = 0      # train steps taken while traced (or in all, untraced)

    def run(self):
        w, rec = self.w, self.rec
        raw, self.data_dir = self.tmp / "data-raw", self.tmp / "data"
        rec.cli(w.gen_argv(sum(w.split), self.seed, raw, w.split))
        rec.cli(["repair", "--data", str(raw), "--out", str(self.data_dir)])
        samples, manifest = rec.op(datagen.read_dataset, self.data_dir)[1]
        train = datagen.split_samples(samples, manifest, "train")
        norm = (np.array(manifest["norm"]["min"]), np.array(manifest["norm"]["max"]))
        self.fit(train, norm, w.epochs, save=True)
        params, test = self.load()
        samples = sorted(test["test_seen"] + test["test_unseen"], key=lambda s: s.id)
        requests = requests_for(w, self.cfg, samples[: w.forecast_samples], self.norm, self.seed)
        masking_probe(params, self.cfg, requests[0], self.seed, rec)
        slices = [train[i: i + w.fit_samples]
                  for i in range(0, len(train) - w.fit_samples + 1, w.fit_samples)]
        setups = setup_rounds(self.rounds)
        fits = 0
        start = time.perf_counter()
        for r in range(self.rounds):
            traced = self.tracer is not None and r % 2 == 1
            self.rec = self.traced if traced else self.base
            patch = self.tracer.install() if traced else None
            try:
                if r in setups:
                    self.setup()
                # evaluation and forecasts read the checkpoint, as the CLI's do
                params = self.rec.op(model.load_checkpoint, self.ckpt)[1][0]
                shard, request = r * w.round_shards, r * w.round_forecasts
                for kind in interleave({"shard": w.round_shards, "fit": w.round_fits,
                                        "eval": w.round_evals,
                                        "forecast": w.round_forecasts}):
                    if kind == "shard":
                        self.shard(shard)
                        shard += 1
                    elif kind == "fit":
                        self.fit(slices[fits % len(slices)], norm, 1)
                        fits += 1
                    elif kind == "eval":
                        self.evaluate(params, test)
                    else:
                        self.forecast(params, requests[request % len(requests)])
                        request += 1
            finally:
                if patch is not None:
                    patch.remove()
        self.rounds_s = time.perf_counter() - start
        self.rec = self.base

    def _count_steps(self, n):
        if self.tracer is None or self.rec is self.traced:
            self.steps += n

    def shard(self, k):
        """Write, repair and read data shard k, timing each call; shard 0's
        raw set is checked against the same shard generated in memory."""
        w, rec = self.w, self.rec
        seed = self.seed * 1000 + 1 + k
        raw, repaired = self.tmp / f"raw{k}", self.tmp / f"repaired{k}"
        rec.add("gen_samples_per_s", (w.shard, rec.cli(w.gen_argv(w.shard, seed, raw))))
        rec.add("repair_samples_per_s",
                (w.shard, rec.cli(["repair", "--data", str(raw), "--out", str(repaired)])))
        t, dataset = rec.op(datagen.read_dataset, repaired)
        rec.add("read_samples_per_s", (w.shard, t))
        if k == 0:
            rec.add("invalid_depth_points", check_data(w, seed, raw, dataset[0], rec))

    def fit(self, train, norm, epochs, save=False):
        """Train from the fixed initial weights. The full schedule is checked
        and saved; the rounds' shorter fits, which cycle through slices of
        the training set, are timed, and each must repeat its slice's first
        fit bit for bit."""
        w, rec = self.w, self.rec
        params = model.init_params(self.cfg, seed=INIT_SEED)
        t, (history, _) = rec.op(trainer.fit, params, self.cfg, train, norm,
                                 w.train_config(self.seed, epochs))
        self._count_steps(epochs * -(-len(train) // w.batch))
        if save:
            check_history(history, params, rec)
            self.ckpt = self.tmp / "ckpt"
            extra = {"norm": {"min": norm[0].tolist(), "max": norm[1].tolist()}}
            model.save_checkpoint(params, self.cfg, self.ckpt, extra=extra)
            return
        rec.add("train_samples_per_s", (len(train) * epochs, t))
        first = self.histories.setdefault(train[0].id, history)
        rec.check(history == first,
                  "train: a repeated fit gave a different loss history")

    def load(self):
        """The checkpoint and test splits, loaded the way ``eval`` loads them."""
        params, _, extra = model.load_checkpoint(self.ckpt)
        samples, manifest = datagen.read_dataset(self.data_dir)
        self.norm = (np.array(extra["norm"]["min"]), np.array(extra["norm"]["max"]))
        return params, {split: datagen.split_samples(samples, manifest, split)
                        for split in ("test_seen", "test_unseen")}

    def setup(self):
        """What a fresh process pays before its first train step: the import,
        the initial weights and the dataset."""
        rec = self.rec
        t = rec.op(import_cli, self.root)[0]
        rec.add("import_s", t)
        t += rec.op(model.init_params, self.cfg, INIT_SEED)[0]
        t += rec.op(datagen.read_dataset, self.data_dir)[0]
        rec.add("setup_s", t)

    def evaluate(self, params, test):
        """Both test splits at the eval ratio, each timed with its baseline;
        ADE is weighted by split size."""
        rec = self.rec
        weighted = 0.0
        for split, samples in test.items():
            t, row = rec.op(trainer.evaluate, params, self.cfg, samples, self.norm,
                            EVAL_RATIO, split)
            t += rec.op(trainer.evaluate_baseline, samples, EVAL_RATIO, split)[0]
            rec.add("eval_samples_per_s", (len(samples), t))
            weighted += row.ade3d * len(samples)
        ade = weighted / sum(len(samples) for samples in test.values())
        rec.check(bool(np.isfinite(ade)), "eval: ADE is not finite")
        first = self.base.samples.setdefault("ade3d_m", [ade])[0]
        rec.check(ade == first, "eval: a repeated evaluation gave a different ADE")

    def forecast(self, params, request):
        rec = self.rec
        frames, points, c = request
        t, fc = rec.op(model.forecast, params, self.cfg, frames, points, c)
        rec.add("forecast_ms", t)
        check_forecast(fc, rec)


RATES = ("train_samples_per_s", "eval_samples_per_s", "gen_samples_per_s",
         "repair_samples_per_s", "read_samples_per_s")


def rates(samples, clock="seconds"):
    """Each throughput's calls as (work, seconds) pairs on one clock:
    "seconds" (scaled to the reference) or "wall"."""
    return {name: [(n, getattr(t, clock)) for n, t in samples[name]]
            for name in RATES if name in samples}


def timing_metrics(samples, clock):
    """The timed end-to-end metrics on one clock; returns (metrics, tail
    percentile, request count)."""
    forecast = [1000.0 * getattr(t, clock) for t in samples["forecast_ms"]]
    tail, q, n = tail_percentile(forecast)
    m = {"setup_s": (median(getattr(t, clock) for t in samples["setup_s"]), "s"),
         "forecast_p50_ms": (median(forecast), "ms"),
         "forecast_p99_ms": (tail, "ms")}
    m.update({name: (rate(pairs), "1/s") for name, pairs in rates(samples, clock).items()})
    return m, q, n


def end_to_end(rec, peak_rss_mb):
    """End-to-end metrics of one pass, from the recorder's samples, and its
    metadata. Times are scaled to the reference (``refclock``); the same
    metrics in wall time go to the metadata as ``wall.<name>``."""
    s = rec.samples
    metrics, q, n = timing_metrics(s, "seconds")
    metrics.update(peak_rss_mb=(peak_rss_mb, "MB"), ade3d_m=(s["ade3d_m"][0], "m"))
    wall = timing_metrics(s, "wall")[0]
    meta = {"forecast_tail_percentile": q, "forecast_requests": n,
            "reference_ms": 1000.0 * REF_S * median(t.wall / t.seconds for t in s["forecast_ms"])}
    meta.update({f"wall.{k}": v for k, (v, _) in wall.items()})
    return metrics, meta
