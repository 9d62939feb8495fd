"""Training and evaluation: normalization, the optimization loop, ADE/FDE
metrics in all coordinate modes, and the constant-velocity baseline.

Batches pad every sample to the configured horizon; padded steps carry
zero loss. The observation count C is drawn per sample, either from a
fixed ratio or uniformly from a ratio range (the any-time protocol).
Metrics reduce per-sample values in sorted-id order, so evaluation is
invariant to input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import model as M
from .geometry import BehindCameraError, normalize_pixel, project

OBSERVATION_MODES = ("fixed", "random")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    warmup_epochs: int = 10
    epochs: int = 200
    batch_size: int = 128
    observation_mode: str = "fixed"
    observation_ratio: float = 0.6
    ratio_low: float = 0.1
    ratio_high: float = 0.9
    seed: int = 0
    clip_norm: float = 10.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.observation_mode not in OBSERVATION_MODES:
            raise ValueError(f"observation_mode must be one of {OBSERVATION_MODES}")
        if not 0 < self.observation_ratio < 1:
            raise ValueError("observation_ratio must be in (0, 1)")
        if not self.ratio_low < self.ratio_high:
            raise ValueError("ratio_low must be < ratio_high")


@dataclass
class MetricsRow:
    split: str
    ratio: float
    ade3d: float | None = None
    fde3d: float | None = None
    ade2d_from3d: float | None = None
    fde2d_from3d: float | None = None
    ade2d: float | None = None
    fde2d: float | None = None
    model: str = "model"

    METRICS = ("ade3d", "fde3d", "ade2d_from3d", "fde2d_from3d", "ade2d", "fde2d")
    CSV_HEADER = "model,split,ratio," + ",".join(METRICS)

    def as_csv(self):
        cells = [self.model, self.split, f"{self.ratio:g}"]
        for v in (getattr(self, k) for k in self.METRICS):
            cells.append("" if v is None else f"{v:.9g}")
        return ",".join(cells)


def normalize(points, lo, hi):
    """Affine map [lo, hi] -> [-1, 1] per axis."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate normalization range: {lo} vs {hi}")
    return 2.0 * (np.asarray(points, dtype=np.float64) - lo) / (hi - lo) - 1.0


def denormalize(points, lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate normalization range: {lo} vs {hi}")
    return (np.asarray(points, dtype=np.float64) + 1.0) * (hi - lo) / 2.0 + lo


def observation_count(horizon, cfg, rng=None):
    """C for one sample: clamp(round(ratio * T), 1, T-1)."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if cfg.observation_mode == "fixed":
        ratio = cfg.observation_ratio
    else:
        if rng is None:
            raise ValueError("random observation mode needs an rng")
        ratio = rng.uniform(cfg.ratio_low, cfg.ratio_high)
    return int(np.clip(math.floor(ratio * horizon + 0.5), 1, horizon - 1))


def sample_targets(sample, cfg, norm):
    """Per-step model targets in [-1, 1] for the configured coordinate mode."""
    lo, hi = norm
    if cfg.coordinate_mode == "global-3d":
        return normalize(sample.points_global, lo, hi)
    if cfg.coordinate_mode == "local-3d":
        return normalize(sample.points_local, lo, hi)
    return 2.0 * image_track(sample) - 1.0


def image_track(sample):
    """The sample's per-step projection in normalized frame units (u/W, v/H)."""
    return normalize_pixel(project(sample.points_local, sample.intrinsics), sample.intrinsics)


def assemble_batch(samples, cfg, norm, observed):
    """Pad samples to the horizon; returns (frames, points, C, lengths, valid),
    frames and points in the model's compute dtype.

    Refuses samples with depth-less steps: their z=0 sentinel would be
    lifted through the pose chain into wrong world points.
    """
    n, t = len(samples), cfg.horizon
    frames = np.zeros((n, t, cfg.frame_h, cfg.frame_w), dtype=cfg.dtype)
    points = np.zeros((n, t, cfg.point_dim), dtype=cfg.dtype)
    lengths = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(samples):
        if s.horizon > t:
            raise ValueError(f"sample {s.id} longer ({s.horizon}) than horizon {t}")
        missing = s.horizon - int(np.count_nonzero(s.valid_depth))
        if missing:
            raise ValueError(f"sample {s.id} has {missing} steps without depth; "
                             "run `reachcast repair` on the dataset first")
        frames[i, : s.horizon] = s.frames
        points[i, : s.horizon] = sample_targets(s, cfg, norm)
        lengths[i] = s.horizon
    valid = np.arange(t)[None, :] < lengths[:, None]
    return frames, points, np.asarray(observed, dtype=np.int64), lengths, valid


class Adam:
    """Adaptive-moment optimizer over a parameter store's trainable tensors.

    The moments live in two flat arrays of the parameters' dtype, one
    element per trainable parameter element; ``m[name]`` and ``v[name]``
    are views of them. A step updates that flat range in chunks of
    ``CHUNK`` elements, which may span several small tensors or part of a
    large one: small tensors share each numpy call, and temporaries stay
    small and in cache.
    ``save``/``load`` keep the moments and step count beside a model
    checkpoint, so a resumed run continues exactly where it stopped.
    """

    CHUNK = 1 << 14
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = params
        self.t = 0
        items = params.trainable_items()
        bounds = np.cumsum([0] + [p.data.size for _, p in items])
        self._m = np.zeros(bounds[-1], dtype=params.dtype)
        self._v = np.zeros(bounds[-1], dtype=params.dtype)
        spans = list(zip(items, bounds, bounds[1:]))
        self.m = {n: self._m[a:b].reshape(p.shape) for (n, p), a, b in spans}
        self.v = {n: self._v[a:b].reshape(p.shape) for (n, p), a, b in spans}
        self._chunks = []  # (lo, hi, [(tensor index, first, stop element)]) per chunk
        for lo in range(0, bounds[-1], self.CHUNK):
            hi = min(lo + self.CHUNK, bounds[-1])
            tensors = range(np.searchsorted(bounds, lo, side="right") - 1,
                            np.searchsorted(bounds, hi))
            self._chunks.append((lo, hi, [(i, max(lo, bounds[i]) - bounds[i],
                                           min(hi, bounds[i + 1]) - bounds[i]) for i in tensors]))

    def step(self, lr, clip_norm=None):
        """One update from the parameters' gradients, clipped to a global
        norm of ``clip_norm``. The moments and parameters are updated in
        place, with each element's arithmetic that of the per-tensor form."""
        items = self.params.trainable_items()
        grads = [p.grad_or_zeros().reshape(-1) for _, p in items]
        scale = None
        if clip_norm is not None:
            total = math.sqrt(sum(float(np.dot(g, g)) for g in grads))
            if total > clip_norm:
                scale = clip_norm / total
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for lo, hi, pieces in self._chunks:
            g = np.concatenate([grads[i][a:b] for i, a, b in pieces])
            if scale is not None:
                g *= scale
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p -= lr (m / b1c) / (sqrt(v / b2c) + eps), op for op
            m, v = self._m[lo:hi], self._v[lo:hi]
            tmp = (1 - self.BETA1) * g
            m *= self.BETA1
            m += tmp
            np.multiply(g, 1 - self.BETA2, out=tmp)
            tmp *= g
            v *= self.BETA2
            v += tmp
            np.divide(m, b1c, out=tmp)
            tmp *= lr
            denom = np.divide(v, b2c)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            tmp /= denom
            at = 0
            for i, a, b in pieces:  # parameter arrays are contiguous: reshape is a view
                items[i][1].data.reshape(-1)[a:b] -= tmp[at : at + b - a]
                at += b - a

    def save(self, path, cfg):
        """Write the moments and step count in the checkpoint format at ``path``."""
        store = M.Params(self._m.dtype)
        for n in self.m:
            store.add(f"m.{n}", self.m[n])
            store.add(f"v.{n}", self.v[n])
        M.save_checkpoint(store, cfg, path, extra={"t": self.t})

    @classmethod
    def load(cls, params, path):
        """Restore an optimizer written by ``save`` for the same parameters,
        its moments in their dtype."""
        store, _, extra = M.load_checkpoint(path)
        expected = {f"{k}.{n}": p.shape for n, p in params.trainable_items() for k in "mv"}
        if {n: t.shape for n, t in store.items()} != expected:
            raise ValueError(f"optimizer state at {path} does not match the model's parameters")
        opt = cls(params)
        for n in opt.m:
            opt.m[n][...] = store[f"m.{n}"].data
            opt.v[n][...] = store[f"v.{n}"].data
        opt.t = int(extra["t"])
        return opt


def lr_at(epoch, cfg):
    """Linear warmup for warmup_epochs, then cosine decay to 0."""
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    span = max(cfg.epochs - cfg.warmup_epochs, 1)
    progress = min((epoch - cfg.warmup_epochs) / span, 1.0)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _epoch_rng(seed, epoch):
    return np.random.default_rng([seed, epoch])


def fit(params, cfg, samples, norm, train_cfg, loss_cfg=None, start_epoch=0, optimizer=None):
    """Train in place; returns (history, optimizer).

    history rows: (epoch, total, location, velocity) with losses averaged
    over the epoch's samples. Deterministic for a fixed seed: batch order
    comes from a per-epoch seeded shuffle, observation counts from the
    same stream.
    """
    if not samples:
        raise ValueError("empty training split")
    loss_cfg = loss_cfg or L.LossConfig()
    opt = optimizer or Adam(params)
    history = []
    order0 = sorted(range(len(samples)), key=lambda i: samples[i].id)
    for epoch in range(start_epoch, train_cfg.epochs):
        rng = _epoch_rng(train_cfg.seed, epoch)
        order = [order0[i] for i in rng.permutation(len(order0))]
        lr = lr_at(epoch, train_cfg)
        tot_sum = loc_sum = velo_sum = 0.0
        seen = 0
        for lo_idx in range(0, len(order), train_cfg.batch_size):
            chunk = [samples[i] for i in order[lo_idx : lo_idx + train_cfg.batch_size]]
            observed = np.array([observation_count(s.horizon, train_cfg, rng) for s in chunk])
            frames, points, obs, lengths, valid = assemble_batch(chunk, cfg, norm, observed)
            params.zero_grads()
            with ad.Graph() as g:
                out = M.forward_batch(params, cfg, frames, points, obs, lengths)
                total, loc, velo = L.total_batch(out, points, obs, valid, loss_cfg)
                g.backward(total)
            opt.step(lr, clip_norm=train_cfg.clip_norm)
            n = len(chunk)
            tot_sum += float(total.data) * n
            loc_sum += float(loc.data) * n
            velo_sum += float(velo.data) * n
            seen += n
        history.append((epoch + 1, tot_sum / seen, loc_sum / seen, velo_sum / seen))
    return history, opt


# ---------------------------------------------------------------------------
# evaluation


def _to_normalized_2d(points_global, sample):
    local = sample.poses.global_to_local(points_global, np.arange(1, len(points_global) + 1))
    return normalize_pixel(project(local, sample.intrinsics), sample.intrinsics)


def decode_prediction(mean, sample, cfg, norm):
    """Map the model's normalized per-step means for one sample into the
    space its metrics use; returns (pred, gt) over the sample's steps.

    3D modes give world-frame meters (local-3d predictions are carried to
    the world frame through the sample's poses); 2d mode gives normalized
    frame units in [0, 1], all in float64 whatever the compute dtype.
    """
    mean = np.asarray(mean, dtype=np.float64)
    if cfg.coordinate_mode == "2d":
        return (mean + 1.0) / 2.0, (sample_targets(sample, cfg, norm) + 1.0) / 2.0
    pred = denormalize(mean, *norm)
    if cfg.coordinate_mode == "local-3d":
        pred = sample.poses.local_to_global(pred, np.arange(1, sample.horizon + 1))
    return pred, sample.points_global


def _forecast_batch(params, cfg, samples, norm, ratio, batch_size=256):
    """Run the model over samples at one observation ratio; returns a list
    of per-sample (sample, observed, mean ndarray)."""
    fixed = TrainConfig(observation_mode="fixed", observation_ratio=ratio)
    results = []
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo : lo + batch_size]
        observed = np.array([observation_count(s.horizon, fixed) for s in chunk])
        frames, points, obs, lengths, _ = assemble_batch(chunk, cfg, norm, observed)
        out = M.forward_batch(params, cfg, frames, points, obs, lengths)
        mean = out["mean"].data
        for i, s in enumerate(chunk):
            results.append((s, int(obs[i]), mean[i, : s.horizon]))
    return results


def _future_errors(pred, gt, observed):
    """(ADE, FDE) over the steps after the first ``observed``."""
    d = np.linalg.norm(pred[observed:] - gt[observed:], axis=-1)
    return float(d.mean()), float(d[-1])


def score(cases, split, ratio, model):
    """One MetricsRow from (sample, observed, pred, gt) cases.

    pred and gt cover each sample's steps. 3D cases are world-frame meters;
    they score ADE/FDE in 3D and, lowered through the sample's poses and
    projected, in normalized frame units. A case whose projection falls
    behind the camera drops out of those 2D-from-3D metrics only. 2D cases
    (2d-mode forecasts) are normalized frame units and score ade2d/fde2d.
    """
    per = {k: [] for k in MetricsRow.METRICS}

    def add(ade_key, fde_key, errors):
        per[ade_key].append(errors[0])
        per[fde_key].append(errors[1])

    for s, observed, pred, gt in cases:
        if pred.shape[-1] == 2:
            add("ade2d", "fde2d", _future_errors(pred, gt, observed))
            continue
        add("ade3d", "fde3d", _future_errors(pred, gt, observed))
        try:
            uv = _to_normalized_2d(pred, s), _to_normalized_2d(gt, s)
        except BehindCameraError:
            continue
        add("ade2d_from3d", "fde2d_from3d", _future_errors(*uv, observed))
    return MetricsRow(split=split, ratio=ratio, model=model,
                      **{k: float(np.mean(v)) if v else None for k, v in per.items()})


def forecast_cases(params, cfg, samples, norm, ratio, batch_size=256):
    """The model's decoded forecasts at a fixed observation ratio, as
    (sample, observed, pred, gt) cases in sorted-id order (see
    ``decode_prediction`` for their space)."""
    samples = sorted(samples, key=lambda s: s.id)
    return [(s, observed, *decode_prediction(mean, s, cfg, norm))
            for s, observed, mean in _forecast_batch(params, cfg, samples, norm, ratio,
                                                     batch_size)]


def evaluate(params, cfg, samples, norm, ratio, split="test", batch_size=256):
    """ADE/FDE over future steps at a fixed observation ratio.

    3D metrics are meters in the world frame; 2D metrics are normalized
    frame units. 3D-mode models also report projected 2D metrics; 2d-mode
    models report image-plane metrics only.
    """
    if not samples:
        raise ValueError(f"no samples in split {split!r}")
    return score(forecast_cases(params, cfg, samples, norm, ratio, batch_size),
                 split, ratio, "model")


def constant_velocity_baseline(sample, observed, track=None):
    """Extrapolate the last observed step's velocity: p_{C+k} = p_C + k (p_C - p_{C-1}),
    over ``track`` (one row per step; the sample's world points by default)."""
    if observed < 2:
        raise ValueError("constant-velocity baseline needs at least 2 observed steps")
    if observed >= sample.horizon:
        raise ValueError("nothing to forecast")
    pts = sample.points_global if track is None else track
    v = pts[observed - 1] - pts[observed - 2]
    k = np.arange(1, sample.horizon - observed + 1)[:, None]
    return pts[observed - 1] + k * v


def evaluate_baseline(samples, ratio, split="test", image_plane=False):
    """Constant-velocity ADE/FDE rows, scored like the model's; samples with
    C < 2 cannot be extrapolated and are skipped.

    The world-point track scores the 3D and 2D-from-3D metrics. With
    ``image_plane`` (2d mode), the normalized (u, v) track is extrapolated
    too and scores ade2d/fde2d, as a 2d-mode model's forecasts do.
    """
    fixed = TrainConfig(observation_mode="fixed", observation_ratio=ratio)
    cases = []
    for s in sorted(samples, key=lambda x: x.id):
        observed = observation_count(s.horizon, fixed)
        if observed < 2:
            continue
        tracks = [s.points_global, image_track(s)] if image_plane else [s.points_global]
        for gt in tracks:
            pred = np.concatenate([gt[:observed], constant_velocity_baseline(s, observed, gt)])
            cases.append((s, observed, pred, gt))
    return score(cases, split, ratio, "cv-baseline")
