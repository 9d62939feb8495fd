"""Training and evaluation: normalization, the optimization loop, ADE/FDE
metrics in both coordinate modes, and the constant-velocity baseline.

Batches pad every sample to the configured horizon; padded steps carry
zero loss. The observation count C is drawn per sample, either from a
fixed ratio or uniformly from a ratio range (the any-time protocol).
Evaluation batches the samples in sorted-id order, ``EVAL_BATCH`` at a
time, and reduces per-sample values in that order, so it is invariant to
input order. ``score`` turns a split's forecasts, the model's or the
constant-velocity baseline's, into one metrics row in array passes over
all of its samples' steps at once: one lowering through the poses, one
projection per camera and one distance pass per metric. A case whose
lowered depth, in pred or gt, is below ``NEAR_PLANE`` drops out of the
2D-from-3D metrics.

``Adam`` steps the store's trainable tail in chunks, on two threads when
the tail is large (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import model as M
from .geometry import normalize_pixel, project, to_local

OBSERVATION_MODES = ("fixed", "random")
EVAL_BATCH = 256  # samples per model call in evaluation, which bounds its memory
RATIO_RANGE = (0.1, 0.9)  # the any-time protocol: random-mode ratios are uniform on it
CLIP_NORM = 10.0  # every training step clips the gradient to this global norm
# meters: a lowered depth below this projects to a huge pixel, so the case
# drops out of the 2D-from-3D metrics as one behind the camera does
NEAR_PLANE = 0.01
# 2d targets normalize the frame padded by this much of its size on each
# side, so that a hand projecting just outside the frame still maps inside
# the mean head's tanh range. Measured on gen_dataset(2000, 0): 64x64
# frames with 32-40 steps project from -0.061 to 1.074 of the frame, and
# desk's 16x16 frames from 0.026 to 0.985; 0.25 maps both inside +-0.77.
IMAGE_MARGIN = 0.25
IMAGE_BOX = (np.full(2, -IMAGE_MARGIN), np.full(2, 1.0 + IMAGE_MARGIN))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    warmup_epochs: int = 10
    epochs: int = 200
    batch_size: int = 128
    observation_mode: str = "fixed"
    observation_ratio: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.warmup_epochs < 0:
            raise ValueError("epochs and batch_size must be >= 1, and warmup_epochs >= 0")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.observation_mode not in OBSERVATION_MODES:
            raise ValueError(f"observation_mode must be one of {OBSERVATION_MODES}")
        if not 0 < self.observation_ratio < 1:
            raise ValueError("observation_ratio must be in (0, 1)")


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


def _norm_range(lo, hi):
    """(lo, hi) as float64 arrays, refused unless lo < hi on every axis."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate normalization range: {lo} vs {hi}")
    return lo, hi


def normalize(points, lo, hi):
    """Affine map [lo, hi] -> [-1, 1] per axis."""
    lo, hi = _norm_range(lo, hi)
    return 2.0 * (np.asarray(points, dtype=np.float64) - lo) / (hi - lo) - 1.0


def denormalize(points, lo, hi):
    """Affine map [-1, 1] -> [lo, hi] per axis, the inverse of ``normalize``."""
    lo, hi = _norm_range(lo, hi)
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
        ratio = rng.uniform(*RATIO_RANGE)
    return min(max(math.floor(ratio * horizon + 0.5), 1), horizon - 1)


def sample_targets(sample, cfg, norm, track=None):
    """Per-step model targets in [-1, 1] for the configured coordinate mode:
    world points over ``norm``, or the image track over ``IMAGE_BOX``.
    ``track`` is the sample's ``image_track`` when the caller has it
    already (``check_sample`` returns it), so it is not projected again."""
    if cfg.coordinate_mode == "global-3d":
        return normalize(sample.points_global, *norm)
    return normalize(image_track(sample) if track is None else track, *IMAGE_BOX)


def image_track(sample):
    """The sample's per-step projection in normalized frame units (u/W, v/H)."""
    return normalize_pixel(project(sample.points_local, sample.intrinsics), sample.intrinsics)


def check_sample(s, cfg):
    """Refuse a sample the model cannot take: frames of another size, more
    steps than the horizon, a step without depth, whose z=0 sentinel
    would be lifted through the pose chain into a wrong world point, or, in
    2d mode, a step projecting outside ``IMAGE_BOX``, whose target the mean
    head could not reach (it is refused, never clipped). Returns the image
    track the 2d check projected, None in global-3d."""
    if s.frames.shape[1:] != (cfg.frame_h, cfg.frame_w):
        raise ValueError(f"sample {s.id} has {'x'.join(map(str, s.frames.shape[1:]))} frames; "
                         f"the model takes {cfg.frame_h}x{cfg.frame_w}")
    if s.horizon > cfg.horizon:
        raise ValueError(f"sample {s.id} longer ({s.horizon}) than horizon {cfg.horizon}")
    missing = s.horizon - int(np.count_nonzero(s.valid_depth))
    if missing:
        raise ValueError(f"sample {s.id} has {missing} steps without depth; "
                         "run `reachcast repair` on the dataset first")
    if cfg.coordinate_mode == "2d":
        uv = image_track(s)
        outside = np.count_nonzero(((uv < IMAGE_BOX[0]) | (uv > IMAGE_BOX[1])).any(axis=1))
        if outside:
            raise ValueError(f"sample {s.id} has {outside} steps projecting outside the "
                             f"frame padded by {IMAGE_MARGIN:g} of its size, the range of "
                             "2d targets")
        return uv
    return None


def assemble_batch(samples, cfg, norm, observed):
    """Pad samples to the horizon; returns (frames, points, C, lengths, valid),
    frames and points in the model's compute dtype. Each sample must pass
    ``check_sample``; a 2d track is projected once, for the check and the
    targets."""
    n, t = len(samples), cfg.horizon
    frames = np.zeros((n, t, cfg.frame_h, cfg.frame_w), dtype=cfg.dtype)
    points = np.zeros((n, t, cfg.point_dim), dtype=cfg.dtype)
    lengths = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(samples):
        track = check_sample(s, cfg)
        frames[i, : s.horizon] = s.frames
        points[i, : s.horizon] = sample_targets(s, cfg, norm, track)
        lengths[i] = s.horizon
    valid = np.arange(t)[None, :] < lengths[:, None]
    return frames, points, np.asarray(observed, dtype=np.int64), lengths, valid


class Adam:
    """Adaptive-moment optimizer over a parameter store's trainable tensors,
    which must be one tail of its flat array (a ValueError if not).

    ``_tail`` views that tail, and the moments are two flat arrays laid out
    like it (``m[name]`` and ``v[name]`` view them). A step walks the tail
    in chunks of ``CHUNK_BYTES`` of moments, across tensor edges, so small
    tensors share each numpy call and temporaries stay in cache. A chunk
    inside one tensor reads a view of its gradient; only a chunk across
    tensor edges gathers its pieces. ``save``/``load`` keep the moments
    and step count beside a model checkpoint, so a resumed run continues
    exactly where it stopped.

    When the tail holds at least ``PARALLEL_MIN_BYTES`` (a property of the
    store: the paper preset's 49 MB float32 tail, not desk's 0.85 MB), a
    step runs its first half of the chunks on the caller and its second
    half on ``ad.both``'s helper thread, and splits the clip norm's
    per-tensor dot products the same way; the dots are summed in tensor
    order and every element's arithmetic is the same, so both paths give
    the same bits.
    """

    CHUNK_BYTES = 1 << 18
    PARALLEL_MIN_BYTES = 1 << 22
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = params
        self.t = 0
        names = [n for n, _ in params.trainable_items()]
        bounds = [params.spans[n][0] for n in names] + [params.flat.size]
        if [params.spans[n][1] for n in names] != bounds[1:]:
            raise ValueError(f"the trainable tensors are not one tail of the store: {names}")
        self._tensors = [params[n] for n in names]
        self._tail = params.flat[bounds[0] :]
        bounds = np.array(bounds) - bounds[0]
        # np.zeros maps zeroed pages; zeros_like would write every byte
        self._m = np.zeros(self._tail.shape, self._tail.dtype)
        self._v = np.zeros(self._tail.shape, self._tail.dtype)
        spans = list(zip(names, bounds, bounds[1:]))
        self.m = {n: self._m[a:b].reshape(params[n].shape) for n, a, b in spans}
        self.v = {n: self._v[a:b].reshape(params[n].shape) for n, a, b in spans}
        chunk = self.CHUNK_BYTES // self._m.itemsize
        self._chunks = []  # (lo, hi, [(tensor index, first, stop element)]) per chunk
        for lo in range(0, bounds[-1], chunk):
            hi = min(lo + chunk, bounds[-1])
            tensors = range(np.searchsorted(bounds, lo, side="right") - 1,
                            np.searchsorted(bounds, hi))
            self._chunks.append((lo, hi, [(i, max(lo, bounds[i]) - bounds[i],
                                           min(hi, bounds[i + 1]) - bounds[i]) for i in tensors]))
        # where the helper thread's halves begin: the chunks by count, the
        # tensors (for the clip norm) by elements
        self._half_chunk = len(self._chunks) // 2
        self._half_tensor = int(np.searchsorted(bounds, bounds[-1] // 2))

    def step(self, lr, clip_norm):
        """One update from the parameters' gradients, clipped to a global
        norm of ``clip_norm``; returns that norm before clipping, the square
        root of the per-tensor dot products summed in tensor order. The
        moments and parameters are updated in place, with each element's
        arithmetic that of the per-tensor form. A ValueError if a tensor's
        ``requires_grad`` changed since the optimizer was built, since its
        chunk plan covers the tensors then trainable."""
        flipped = [n for n, t in self.params.items() if t.requires_grad != (n in self.m)]
        if flipped:
            raise ValueError(f"requires_grad of {', '.join(flipped)} changed after the "
                             "optimizer was built; build a new one")
        grads = [t.grad_or_zeros().reshape(-1) for t in self._tensors]
        threaded = self._tail.nbytes >= self.PARALLEL_MIN_BYTES
        k = self._half_tensor
        dots = ad.both(lambda: [float(np.dot(g, g)) for g in grads[:k]],
                       lambda: [float(np.dot(g, g)) for g in grads[k:]], threaded)
        total = math.sqrt(sum(dots[0] + dots[1]))
        scale = clip_norm / total if total > clip_norm else None
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        c = self._half_chunk
        ad.both(lambda: self._update(self._chunks[:c], grads, scale, lr, b1c, b2c),
                lambda: self._update(self._chunks[c:], grads, scale, lr, b1c, b2c), threaded)
        return total

    def _update(self, chunks, grads, scale, lr, b1c, b2c):
        """Step the moments and parameters of ``chunks`` in place."""
        for lo, hi, pieces in chunks:
            if len(pieces) == 1:
                (i, a, b), = pieces
                g = grads[i][a:b]  # a view: scaled below into a fresh array, never in place
            else:
                g = np.concatenate([grads[i][a:b] for i, a, b in pieces])
            if scale is not None:
                g = g * scale
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
            self._tail[lo:hi] -= tmp

    def save(self, path, cfg):
        """Write the moments and step count at ``path``, laid out as ``_moment_layout``."""
        moments = {f"{k}.{n}": ad.Tensor(getattr(self, k)[n]) for n in self.m for k in "mv"}
        M.save_checkpoint(moments, cfg, path, extra={"t": self.t})

    @classmethod
    def load(cls, params, path):
        """Restore an optimizer written by ``save`` for the same parameters,
        its moments in their dtype."""
        opt = cls(params)
        store, _, extra = M.load_checkpoint(path, layout=_moment_layout)
        if [(n, t.shape) for n, t in store.items()] != [(f"{k}.{n}", m.shape)
                                                        for n, m in opt.m.items() for k in "mv"]:
            raise M.CheckpointError(f"checkpoint {path}: optimizer state does not match the "
                                    "model's parameters")
        if type(extra.get("t")) is not int or extra["t"] < 0:
            raise M.CheckpointError(f"checkpoint {path}: optimizer state has no step count t")
        for n in opt.m:
            opt.m[n][...] = store[f"m.{n}"].data
            opt.v[n][...] = store[f"v.{n}"].data
        opt.t = extra["t"]
        return opt


def _moment_layout(cfg):
    """An optimizer state: the moments m and v of each trainable tensor, in layout order."""
    return tuple((f"{k}.{n}", shape) for n, shape in M.param_layout(cfg) if n not in M.FROZEN
                 for k in "mv")


def lr_at(epoch, cfg):
    """Linear warmup for warmup_epochs, then cosine decay to 0."""
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    span = max(cfg.epochs - cfg.warmup_epochs, 1)
    progress = min((epoch - cfg.warmup_epochs) / span, 1.0)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


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
        rng = np.random.default_rng([train_cfg.seed, epoch])
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
            opt.step(lr, clip_norm=CLIP_NORM)
            n = len(chunk)
            tot_sum += float(total.data) * n
            loc_sum += float(loc.data) * n
            velo_sum += float(velo.data) * n
            seen += n
        history.append((epoch + 1, tot_sum / seen, loc_sum / seen, velo_sum / seen))
    return history, opt


# ---------------------------------------------------------------------------
# evaluation


def decode_prediction(mean, sample, cfg, norm):
    """Map the model's normalized per-step means for one sample into the
    space its metrics use; returns (pred, gt) over the sample's steps.

    global-3d gives world-frame meters and 2d normalized frame units (0 to
    1 inside the frame), both in float64 whatever the compute dtype.
    """
    if cfg.coordinate_mode == "2d":
        return denormalize(mean, *IMAGE_BOX), image_track(sample)
    return denormalize(mean, *norm), sample.points_global


def _stacked(cases):
    """The cases' pred and gt rows, each concatenated in case order, as one
    (2, rows, dim) array."""
    return np.stack([np.concatenate([c[i] for c in cases]) for i in (2, 3)])


def _future_errors(cases, pred, gt):
    """Each case's (ADE, FDE) over its steps after the first ``observed``,
    as two lists in case order; ``pred`` and ``gt`` hold the cases' rows
    concatenated. The distances are one array pass. Each ADE sums a
    contiguous slice of them and divides by its length, which is what
    ``mean`` of the case's own distances computes."""
    lengths = np.array([len(c[2]) for c in cases])
    ends = np.cumsum(lengths)
    firsts = ends - lengths + [c[1] for c in cases]
    d = np.linalg.norm(pred - gt, axis=-1)
    sums = [np.add.reduce(d[a:b]) for a, b in zip(firsts.tolist(), ends.tolist())]
    return (np.array(sums) / (ends - firsts)).tolist(), d[ends - 1].tolist()


def _lowered_2d(cases, rows):
    """3D cases' (2, rows, 3) stacked world rows in normalized frame units,
    only for the cases in front of the camera; returns those cases and
    their (2, rows, 2) stacked rows.

    Every row is lowered through its sample's poses in one product. A case
    with any lowered depth below ``NEAR_PLANE``, in pred or in gt, is left
    out (behind the camera, or so near its plane that one pixel would
    dominate the mean), and the kept rows are projected once per distinct
    intrinsics."""
    lengths = np.array([len(c[2]) for c in cases])
    products = np.concatenate([s.poses.cumulative[1 : n + 1]
                               for (s, *_), n in zip(cases, lengths.tolist())])
    if len(products) != rows.shape[1]:
        raise ValueError("a case has more steps than its sample's pose chain")
    local = to_local(rows, products)
    behind = (local[..., 2] < NEAR_PLANE).any(axis=0)
    kept = ~np.logical_or.reduceat(behind, np.cumsum(lengths) - lengths)
    seen = [c for c, k in zip(cases, kept.tolist()) if k]
    local = local[:, np.repeat(kept, lengths)]
    cameras = {}
    camera = np.repeat([cameras.setdefault(s.intrinsics, len(cameras)) for s, *_ in seen],
                       lengths[kept])
    uv = np.empty(local.shape[:-1] + (2,))
    for intrinsics, k in cameras.items():
        mine = camera == k
        uv[:, mine] = normalize_pixel(project(local[:, mine], intrinsics), intrinsics)
    return seen, uv


def score(cases, split, ratio, model):
    """One MetricsRow from (sample, observed, pred, gt) cases.

    pred and gt cover each sample's steps. 3D cases are world-frame meters;
    they score ADE/FDE in 3D and, lowered through the sample's poses and
    projected, in normalized frame units. A case with a lowered point
    behind the camera or nearer its plane than ``NEAR_PLANE``, in pred or
    in gt, drops out of those 2D-from-3D metrics only. 2D cases (2d-mode
    forecasts) are normalized frame units and score ade2d/fde2d.

    Each metric is one pass over all its cases' rows at once, and averages
    the per-case values in case order, so the row is bit-identical to
    scoring the cases one at a time.
    """
    per = {k: [] for k in MetricsRow.METRICS}
    flat = [c for c in cases if c[2].shape[-1] == 2]
    world = [c for c in cases if c[2].shape[-1] != 2]
    if flat:
        per["ade2d"], per["fde2d"] = _future_errors(flat, *_stacked(flat))
    if world:
        rows = _stacked(world)
        per["ade3d"], per["fde3d"] = _future_errors(world, *rows)
        seen, uv = _lowered_2d(world, rows)
        if seen:
            per["ade2d_from3d"], per["fde2d_from3d"] = _future_errors(seen, *uv)
    return MetricsRow(split=split, ratio=ratio, model=model,
                      **{k: float(np.mean(v)) if v else None for k, v in per.items()})


def forecast_cases(params, cfg, samples, norm, ratio):
    """The model's decoded forecasts at a fixed observation ratio, as
    (sample, observed, pred, gt) cases in sorted-id order (see
    ``decode_prediction`` for their space). The model runs on
    ``EVAL_BATCH`` samples at a time, so a case can differ in the last
    bits from ``model.forecast`` of the same sample (see
    ``model.forward_batch``)."""
    fixed = TrainConfig(observation_mode="fixed", observation_ratio=ratio)
    samples = sorted(samples, key=lambda s: s.id)
    cases = []
    for lo in range(0, len(samples), EVAL_BATCH):
        chunk = samples[lo : lo + EVAL_BATCH]
        observed = np.array([observation_count(s.horizon, fixed) for s in chunk])
        frames, points, obs, lengths, _ = assemble_batch(chunk, cfg, norm, observed)
        mean = M.forward_batch(params, cfg, frames, points, obs, lengths)["mean"].data
        cases.extend((s, int(c), *decode_prediction(m[: s.horizon], s, cfg, norm))
                     for s, c, m in zip(chunk, obs, mean))
    return cases


def evaluate(params, cfg, samples, norm, ratio, split="test"):
    """ADE/FDE over future steps at a fixed observation ratio.

    3D metrics are meters in the world frame; 2D metrics are normalized
    frame units. global-3d models also report projected 2D metrics; 2d
    models report image-plane metrics only.
    """
    if not samples:
        raise ValueError(f"no samples in split {split!r}")
    return score(forecast_cases(params, cfg, samples, norm, ratio), split, ratio, "model")


def constant_velocity_baseline(track, observed):
    """Extrapolate the last observed step's velocity over ``track`` (one row
    per step): p_{C+k} = p_C + k (p_C - p_{C-1}) for C = ``observed``."""
    if observed < 2:
        raise ValueError("constant-velocity baseline needs at least 2 observed steps")
    if observed >= len(track):
        raise ValueError("nothing to forecast")
    v = track[observed - 1] - track[observed - 2]
    k = np.arange(1, len(track) - observed + 1)[:, None]
    return track[observed - 1] + k * v


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
            pred = np.concatenate([gt[:observed], constant_velocity_baseline(gt, observed)])
            cases.append((s, observed, pred, gt))
    return score(cases, split, ratio, "cv-baseline")
