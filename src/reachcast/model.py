"""The trajectory forecaster: masked temporal encoders over a visual and a
trajectory branch, an attention-based recurrent state transition, a
probabilistic emission head with decoupled xy/depth uncertainty, and a
velocity head.

The visual branch applies prompt tuning to a frozen convolutional
encoder: a border of learnable pixels is embedded around each frame, the
frozen encoder runs unchanged, and only the border and a small MLP head
receive gradients. Observed steps are the first C of the horizon, and C
differs per sample. The frame, point and temporal encoders run on packed
rows, one per observed step (sum of C rows, not N x max C): inputs past
C are never read. The transition and the emission take the temporal
encoder's packed rows too, and the emission reads only their trajectory
half. Inside each of the three fused ops, the rows are laid on the
(N, max C) grid at ``grid_rows`` with ``ad.unpack_rows``, and their
gradients come back with ``ad.pack_rows``. Empty cells are zero, and
attention keys past C carry an additive -1e9 logit, which underflows to
exact zero weight, so forecasts are exactly independent of future
inputs.

Four stages are fused tape ops, each one ``ad.custom`` record rather
than a chain of taped ops, with its forward in numpy and its backward
written by hand: the visual branch, the frozen frame encoder and its
``vis`` MLP (``encode_frames``, ``_Visual``); the temporal encoders of
both branches (``temporal_encode``, ``_Encoder``); the state transition
(``transition``, ``_Rollout``); and the autoregressive emission (``emit``,
``_Emission``), whose every step after the observed prefix reads the
re-embedded previous mean. Each op's docstring states how closely it
agrees with its taped composition, and ``_fused_params`` names its
weights.

The visual branch and the temporal encoders may split their work over
two threads (``ad.both``). Each op decides that from its input against
``PARALLEL_MIN_MACS`` (and ``PARALLEL_MIN_ROWS`` for a row split), and
every product keeps its shapes or its BLAS kernel, so a threaded call
gives the bits of the serial one. The visual branch also runs its
convolutions over chunks of ``CONV_CHUNK`` frames, which keeps their im2col
matrices in cache; no chunk is small enough for BLAS to change its bits.

The taped compositions are kept as references in
tests/test_frame_encoder.py, tests/test_temporal_encoder.py,
tests/test_transition.py and tests/test_emission.py.

The config alone decides the parameters: ``param_layout(cfg)`` names each
tensor and its shape in the one order that initialisation, the fused ops
and checkpoints follow, and ``FROZEN`` names the backbone, whose two
kernels take no gradient. A checkpoint is its config, its extra, and its
``Params`` store's flat array as float64.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad

MASK_LOGIT = -1e9
COORDINATE_MODES = ("global-3d", "2d")
COMPUTE_DTYPES = ("float64", "float32")
# a temporal-encoder branch with at least this many multiply-adds runs on a
# helper thread beside the other (see temporal_encode), and so does the
# second half of the frames whose fc1 makes this many (see _Visual)
PARALLEL_MIN_MACS = 1 << 23
# each half of a row split keeps at least this many rows: fewer take BLAS's
# one-row and small-matrix kernels, whose bits differ
PARALLEL_MIN_ROWS = 8
# the visual branch convolves a call's (or a thread's) frames in chunks of
# this many, so each chunk's im2col matrix stays in cache (see _Visual)
CONV_CHUNK = 32


def _conv_out(size):
    """The output extent of a 3x3, stride-2 valid convolution over ``size``."""
    return (size - 3) // 2 + 1


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes, the target frame and the dtype the model computes in.

    ``coordinate_mode`` names one of two frames: ``global-3d`` forecasts
    world-frame points, ``2d`` the hand's image-plane projection. The bare
    defaults are the paper's sizes; ``paper()`` is them computing
    in float32 (parameters, activations, gradients and Adam moments), and
    ``desk()`` and ``tiny()`` are smaller models computing in float64.
    Checkpoints store float64 on disk whatever the compute dtype, which
    holds float32 values exactly; a checkpoint that names no compute dtype
    loads as float64.
    """

    horizon: int = 40
    d_obs: int = 256
    d_z: int = 16
    blocks: int = 6
    heads: int = 8
    mlp_ratio: int = 4
    frame_h: int = 64
    frame_w: int = 64
    prompt_width: int = 5
    coordinate_mode: str = "global-3d"
    traj_hidden: int = 128
    vis_hidden: int = 512
    head_hidden: int = 128
    enc_channels: tuple = (8, 16)
    compute_dtype: str = "float64"

    def __post_init__(self):
        object.__setattr__(self, "enc_channels", tuple(self.enc_channels))  # JSON gives lists
        sizes = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"}
        bad = [k for k, v in sizes.items() if type(v) is not int]  # 8.0 and True too
        bad += ["enc_channels"] if any(type(c) is not int for c in self.enc_channels) else []
        if bad:
            raise ValueError(f"sizes must be integers: {', '.join(bad)}")
        if len(self.enc_channels) != 2:
            raise ValueError(f"enc_channels must name 2 channel counts, got {self.enc_channels}")
        small = [k for k in ("d_obs", "d_z", "heads", "mlp_ratio", "frame_h", "frame_w",
                             "traj_hidden", "vis_hidden", "head_hidden") if getattr(self, k) < 1]
        small += ["enc_channels"] if min(self.enc_channels) < 1 else []
        if small:
            raise ValueError(f"{', '.join(small)} must be >= 1")
        if self.blocks < 0 or self.prompt_width < 0:
            raise ValueError("blocks and prompt_width must be >= 0")
        if self.d_obs % self.heads or self.d_z % self.heads:
            raise ValueError(f"d_obs={self.d_obs} and d_z={self.d_z} must divide heads={self.heads}")
        if self.coordinate_mode not in COORDINATE_MODES:
            raise ValueError(f"coordinate_mode must be one of {COORDINATE_MODES}")
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(f"compute_dtype must be one of {COMPUTE_DTYPES}")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if min(self.conv_out_hw()) < 1:
            raise ValueError("frame too small for the two stride-2 convolutions")

    @property
    def point_dim(self):
        return 2 if self.coordinate_mode == "2d" else 3

    @property
    def dtype(self):
        return np.dtype(self.compute_dtype)

    def padded_hw(self):
        return self.frame_h + 2 * self.prompt_width, self.frame_w + 2 * self.prompt_width

    def conv_out_hw(self):
        return tuple(_conv_out(_conv_out(size)) for size in self.padded_hw())

    def flat_dim(self):
        h2, w2 = self.conv_out_hw()
        return self.enc_channels[1] * h2 * w2

    def n_prompt_params(self):
        hp, wp = self.padded_hw()
        return hp * wp - self.frame_h * self.frame_w

    @classmethod
    def paper(cls, **overrides):
        base = dict(compute_dtype="float32")
        base.update(overrides)
        return cls(**base)

    @classmethod
    def desk(cls, **overrides):
        base = dict(horizon=16, d_obs=32, d_z=32, blocks=2, heads=4,
                    frame_h=16, frame_w=16, prompt_width=2,
                    traj_hidden=32, vis_hidden=64, head_hidden=64,
                    enc_channels=(4, 8))
        base.update(overrides)
        return cls(**base)

    @classmethod
    def tiny(cls, **overrides):
        base = dict(horizon=8, d_obs=8, d_z=8, blocks=1, heads=2,
                    frame_h=8, frame_w=8, prompt_width=1,
                    traj_hidden=8, vis_hidden=16, head_hidden=8,
                    enc_channels=(2, 4))
        base.update(overrides)
        return cls(**base)


@dataclass
class ForecastOutput:
    """Per-step forecasts over the full horizon (numpy arrays in the compute
    dtype, in normalized units)."""

    mean: np.ndarray          # (T, point_dim), tanh range
    alpha: np.ndarray         # (T,), xy log-variance head, >= 0 under softplus
    beta: np.ndarray | None   # (T,) depth head, None in 2d mode
    velocity: np.ndarray      # (T, point_dim)


class Params:
    """The tensors of a layout, (name, shape) pairs, as views of one zeroed
    array ``flat``; ``spans[name]`` is a tensor's (first, stop) in it. Only
    the store turns a layout into offsets. A tensor requires a gradient
    unless its name is in ``FROZEN``."""

    def __init__(self, layout, dtype):
        bounds = np.cumsum([0] + [math.prod(shape) for _, shape in layout]).tolist()
        self.flat = np.zeros(bounds[-1], dtype=dtype)
        self.spans, self._tensors = {}, {}
        for (name, shape), lo, hi in zip(layout, bounds, bounds[1:]):
            if name in self._tensors:
                raise ValueError(f"duplicate parameter {name}")
            self.spans[name] = (lo, hi)
            self._tensors[name] = ad.Tensor(self.flat[lo:hi].reshape(shape),
                                            requires_grad=name not in FROZEN)

    def __getitem__(self, name):
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def trainable_items(self):
        return [(n, t) for n, t in self._tensors.items() if t.requires_grad]

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None


@functools.lru_cache(maxsize=16)
def param_layout(cfg):
    """Every parameter tensor of ``cfg`` as (name, shape), in the order
    ``init_params`` creates them and a checkpoint stores them."""
    c1, c2 = cfg.enc_channels
    d, dz, hidden, pdim = cfg.d_obs, cfg.d_z, cfg.head_hidden, cfg.point_dim
    layout = [("enc.conv1.k", (c1, 1, 3, 3)), ("enc.conv2.k", (c2, c1, 3, 3)),
              ("prompt", (1, cfg.n_prompt_params()))]

    def linear(name, d_in, d_out):
        layout.extend([(f"{name}.w", (d_in, d_out)), (f"{name}.b", (d_out,))])

    def layer_norm(name, n):
        layout.extend([(f"{name}.g", (n,)), (f"{name}.b", (n,))])

    def mha(name, d_q, d_kv, d_out):
        linear(f"{name}.wq", d_q, d_out)
        # no key bias: a uniform shift of every key cancels inside the softmax
        layout.append((f"{name}.wk.w", (d_kv, d_out)))
        linear(f"{name}.wv", d_kv, d_out)
        linear(f"{name}.wo", d_out, d_out)

    linear("vis.fc1", cfg.flat_dim(), cfg.vis_hidden)
    linear("vis.fc2", cfg.vis_hidden, d)
    linear("traj.fc1", pdim, cfg.traj_hidden)
    linear("traj.fc2", cfg.traj_hidden, d)
    for branch in ("enc_v", "enc_t"):
        for b in range(cfg.blocks):
            mha(f"{branch}.{b}.attn", d, d, d)
            layer_norm(f"{branch}.{b}.ln1", d)
            linear(f"{branch}.{b}.mlp.fc1", d, cfg.mlp_ratio * d)
            linear(f"{branch}.{b}.mlp.fc2", cfg.mlp_ratio * d, d)
            layer_norm(f"{branch}.{b}.ln2", d)
    linear("trans.h.fc1", 2 * d, d)
    linear("trans.h.fc2", d, dz)
    layer_norm("trans.h.ln", dz)
    mha("trans.self", dz, dz, dz)
    layer_norm("trans.ln_wbar", 2 * dz)
    mha("trans.cross", 2 * dz, dz, dz)
    layer_norm("trans.ln_what", 3 * dz)
    linear("trans.inner.fc1", 3 * dz, dz)
    linear("trans.inner.fc2", dz, dz)
    linear("trans.outer.fc1", 4 * dz, 2 * dz)
    linear("trans.outer.fc2", 2 * dz, dz)
    layer_norm("trans.ln_z", dz)
    layout.append(("trans.z0", (dz,)))
    linear("emit.reembed", d, d)
    for head in ("mean", "alpha", "beta") if pdim == 3 else ("mean", "alpha"):
        linear(f"emit.{head}.fc1", dz + d, hidden)
        linear(f"emit.{head}.fc2", hidden, pdim if head == "mean" else 1)
    linear("vel.fc1", dz, hidden)
    layer_norm("vel.ln", hidden)
    linear("vel.fc2", hidden, pdim)
    return tuple(layout)


_BLOCK = 1 << 15  # values drawn or written per call, so each temporary stays in cache


def _glorot(rng, w):
    """Fill the (fan_in, fan_out) array ``w`` with Glorot-uniform weights:
    the float64 stream of one draw, rounded to its dtype. Drawn in row
    blocks that are cast into ``w`` as they come."""
    s = np.sqrt(6.0 / sum(w.shape))
    rows = max(1, _BLOCK // w.shape[1])
    for lo in range(0, len(w), rows):
        w[lo : lo + rows] = rng.uniform(-s, s, size=w[lo : lo + rows].shape)


FROZEN = ("enc.conv1.k", "enc.conv2.k")  # the frozen "pretrained" backbone
FROZEN_ENCODER_SEED = 7041  # its weights' seed, shared across all runs


def init_params(cfg, seed=0):
    """The store of ``param_layout(cfg)``, drawn into its views in order:
    ``FROZEN`` kernels He-normal from the ``FROZEN_ENCODER_SEED`` stream,
    ``.w`` Glorot-uniform and ``trans.z0`` normal(0, 0.1) from the ``seed``
    stream, ``.g`` ones, the rest zero. Weights are drawn in float64 and
    rounded once to the compute dtype, so every dtype starts alike."""
    rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(FROZEN_ENCODER_SEED)
    p = Params(param_layout(cfg), cfg.dtype)
    for name, t in p.items():
        if name in FROZEN:  # fan-in: the input channels times the 3x3 taps
            t.data[...] = frozen_rng.normal(0, np.sqrt(2.0 / math.prod(t.shape[1:])), t.shape)
        elif name.endswith(".w"):
            _glorot(rng, t.data)
        elif name == "trans.z0":
            t.data[...] = rng.normal(0, 0.1, t.shape)
        elif name.endswith(".g"):
            t.data[...] = 1.0
    return p


# ---------------------------------------------------------------------------
# building blocks


@functools.lru_cache(maxsize=64)
def positional_encoding(horizon, d, dtype):
    """The (horizon, d) sin/cos table in ``dtype``, built once per shape and
    dtype, and read-only."""
    pos = np.arange(horizon)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype, copy=False)
    pe.setflags(write=False)
    return pe


def _linear(params, name, x):
    return ad.affine(x, params[f"{name}.w"], params[f"{name}.b"])


def _mlp2(params, name, x):
    return _linear(params, f"{name}.fc2", ad.tanh(_linear(params, f"{name}.fc1", x)))


def _layer_norm(params, name, x):
    return ad.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _key_mask(observed, t_key, dtype):
    """(N,1,1,Tk) additive mask in ``dtype``, which broadcasts over heads
    and queries: 0 where key < the sample's observed count, else
    ``MASK_LOGIT``."""
    m = np.where(np.arange(t_key) < observed[:, None], 0.0, MASK_LOGIT).astype(dtype, copy=False)
    return m[:, None, None, :]


def observed_cells(observed):
    """(sample, step) index arrays of every observed step, sample-major: the
    packed row layout of the encoders over the (N, max C) grid."""
    return np.nonzero(np.arange(observed.max()) < observed[:, None])


def grid_rows(observed):
    """Each packed row's flat index into the (N, max C) grid, samples *
    max C + steps of ``observed_cells``: where the fused ops'
    ``ad.unpack_rows`` and ``ad.pack_rows`` move their rows."""
    samples, steps = observed_cells(observed)
    return samples * int(observed.max()) + steps


def encode_frames(params, cfg, frames):
    """The visual branch as one taped op: (R,H,W) packed grayscale frames
    in the compute dtype -> (R,d_obs) features, through the prompted frozen
    backbone and the ``vis`` MLP, fc1 -> tanh -> fc2 (``_Visual``).
    """
    if frames.shape[1:] != (cfg.frame_h, cfg.frame_w) or len(frames) == 0:
        raise ad.ShapeError(f"frames {frames.shape} are not (R, {cfg.frame_h}, {cfg.frame_w}) "
                            f"with R >= 1")
    names = _fused_params(cfg)["vis"]
    inputs = tuple(params[k] for k in names)
    vis = _Visual({k: params[k].data for k in names + FROZEN}, frames, cfg.prompt_width,
                  save=ad.is_recording(inputs))
    return ad.custom(vis.out, inputs, vis.backward)


def _conv_tanh(x, k):
    """tanh of the 3x3, stride-2 valid convolution of channels-last x
    (N,H,W,C) with k (O,C,3,3), channels-last (N,OH,OW,O). It multiplies
    the im2col matrix of ``ad.conv2d``, patch rows in (c, di, dj) column
    order, by the same kernel matrix; the matrix is one gather through a
    cached index and is freed before the tanh, which runs in place.

    A frame's bits depend on how many frames share the call only for small
    calls: on desk, in float64 and in float32, a call of 9 or fewer frames
    differs from the same rows of a larger call, and 10 or more match
    (OpenBLAS 0.3.31 on one thread, Intel Xeon). ``_Visual`` never passes
    it fewer than ``CONV_CHUNK`` frames unless it has no more."""
    n, h, w, c = x.shape
    oh, ow = _conv_out(h), _conv_out(w)
    cols = np.take(x.reshape(n, -1), _patch_index(h, w, c), axis=1)
    y = cols.reshape(n * oh * ow, 9 * c) @ k.reshape(k.shape[0], -1).T
    del cols
    return np.tanh(y, out=y).reshape(n, oh, ow, -1)


@functools.lru_cache(maxsize=16)
def _patch_index(h, w, c):
    """The im2col matrix of a 3x3, stride-2 valid convolution as flat
    indices into one channels-last (h, w, c) image: rows (oh, ow), columns
    (c, di, dj). One ``np.take`` through it copies whole patches at once,
    where a copy from a strided window view moves 3 values per inner loop.
    The cached index is shared and read-only."""
    oh, ow = _conv_out(h), _conv_out(w)
    d = np.arange(3)
    i = 2 * np.arange(oh)[:, None, None, None, None] + d[:, None]  # (oh, 1, 1, di, 1)
    j = 2 * np.arange(ow)[:, None, None, None] + d  # (ow, 1, 1, dj)
    idx = ((i * w + j) * c + np.arange(c)[:, None, None]).reshape(-1)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=16)
def _border_plan(hp, wp, pad):
    """The prompt's backward on an (hp, wp) padded frame, as index plans.

    Returns (border, b1, b2, col2im2, col2im1): the border mask; the flat
    indices of the conv1 outputs whose window reads a border pixel (b1) and
    of the conv2 outputs whose window reads one of those (b2); and the two
    col2im sums as ``_col2im`` plans. col2im2 maps conv2's patch rows (b2
    row, tap) to b1 rows, and col2im1 maps conv1's patch rows (b1 row, tap)
    to the border pixels in prompt order; a tap is di * 3 + dj, the column
    order of ``ad.conv2d``'s kernel. The cached plan is shared by every
    caller and is read-only.
    """
    border = np.ones((hp, wp), dtype=bool)
    border[pad : hp - pad, pad : wp - pad] = False

    def reach(mask):  # outputs of a 3x3 stride-2 valid conv whose window meets mask
        return np.lib.stride_tricks.sliding_window_view(mask, (3, 3))[::2, ::2].any(axis=(2, 3))

    def col2im(out_mask, in_mask):
        """Sums the patch entry (9 * rank of its output in out_mask + tap)
        into the rank of the input cell it reads in in_mask; entries that
        read a cell outside in_mask are dropped."""
        rank = np.full(in_mask.size, -1)
        rank[in_mask.reshape(-1)] = np.arange(np.count_nonzero(in_mask))
        patches = _patch_index(*in_mask.shape, 1).reshape(-1, 9)
        target = rank[patches[out_mask.reshape(-1)]]  # (outputs, 9)
        cols = np.flatnonzero(target >= 0)
        rows = target.reshape(-1)[cols]
        order = np.argsort(rows, kind="stable")  # by row, each row's columns ascending
        rows, cols = rows[order], cols[order]
        k = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place within its row
        plan = tuple((rows[k == r], cols[k == r]) for r in range(k.max(initial=-1) + 1))
        for a in sum(plan, ()):
            a.setflags(write=False)
        return np.count_nonzero(in_mask), plan

    m1 = reach(border)
    m2 = reach(m1)
    b1, b2 = np.flatnonzero(m1), np.flatnonzero(m2)
    for a in (border, b1, b2):
        a.setflags(write=False)
    return border, b1, b2, col2im(m2, m1), col2im(m1, border)


def _col2im(plan, x):
    """Sums the rows of ``x`` into a (size,) + x.shape[1:] array by a
    ``_border_plan`` col2im plan (size, ((rows, cols), ...)).

    Each output row sums its entries from zero in ascending column order,
    one pass per place k within a row (rows are unique within a pass).
    That is the order of a CSR matrix product, so the result is bit for
    bit the one a 0/1 CSR matrix of the same entries gives; that reference
    is kept in tests/test_frame_encoder.py.
    """
    size, plan = plan
    out = np.zeros((size,) + x.shape[1:], dtype=x.dtype)
    for rows, cols in plan:
        out[rows] += x[cols]
    return out


class _Visual:
    """Numpy forward and hand-written backward of the visual branch over
    (R,H,W) frames: the prompted frozen backbone, then the ``vis`` MLP.

    ``w`` holds the ``vis`` inputs and the ``FROZEN`` kernels by name. The
    forward writes (R, flat_dim) ``feats``, laid out as the taped
    composition ``embed_border -> conv2d -> tanh -> conv2d -> tanh ->
    reshape`` lays them out (channel-major per frame), then ``hid`` and
    ``out``. It builds the same im2col matrices as ``ad.conv2d`` and runs
    the same GEMMs on them, and the head runs op for op as ``ad.affine``
    and ``ad.tanh`` compute it (``x @ w + b``, ``np.tanh``), so ``out`` is
    bit-identical to the taped composition on every preset and dtype;
    activations stay channels-last between the convolutions. The two tanh
    activations, at the b1 and b2 outputs of ``_border_plan`` only, are
    kept only when ``save`` is set (a tape will replay them). Every buffer
    has the dtype of the frames.

    The backward forms the MLP's gradients with the taped backwards'
    products and sums, so they are bit-identical too. The prompt's
    gradient agrees with the taped ``embed_border``/``conv2d`` composition
    to rtol 1e-9 and atol 1e-12 in float64 and to 2e-6 of the largest
    entry in float32.

    The op is row-wise. When fc1 makes at least ``PARALLEL_MIN_MACS``
    multiply-adds (R * flat_dim * vis_hidden) and each half of the frames
    gets at least ``PARALLEL_MIN_ROWS`` rows, the two halves of the frames
    run on two threads (``ad.both``), forward and backward; below the gate
    the whole set runs as one call, since halves of fewer rows take BLAS's
    one-row and small-matrix kernels, whose bits differ. Paper splits from
    R = 16, and desk (below about 1000 rows) never does.

    The backbone of a call's frames, or of one thread's half, runs in
    chunks: below 2 * ``CONV_CHUNK`` frames as one call, and from there in
    chunks of ``CONV_CHUNK`` frames with the remainder joining the last, so
    each convolution call sees ``CONV_CHUNK`` to 2 * ``CONV_CHUNK`` - 1
    frames. Each chunk writes its rows of ``feats`` and of the saved
    activations in place. The chunks keep the im2col matrices and
    activations in cache, where a whole call's are megabytes (desk's conv1
    matrix is 1.6 MB at R = 270). The floor of 32 frames keeps every call
    well above the 9 frames or fewer at which ``_conv_tanh``'s bits depend
    on the call's size, so chunking changes no bit. fc1 and fc2 stay one
    product over the call's, or the thread's, rows.
    """

    def __init__(self, w, frames, pad, save):
        r, h, wd = frames.shape
        self.w, self.frames, self.pad, self.save = w, frames, pad, save
        self.plan = _border_plan(h + 2 * pad, wd + 2 * pad, pad)
        _, b1, b2 = self.plan[:3]
        w1 = w["vis.fc1.w"]
        self.feats = np.empty((r, len(w1)), dtype=frames.dtype)
        self.hid = np.empty((r, w1.shape[1]), dtype=frames.dtype)
        self.out = np.empty((r, w["vis.fc2.w"].shape[1]), dtype=frames.dtype)
        if save:  # the backward reads only the outputs that reach the border
            self.a1 = np.empty((r, len(b1), len(w["enc.conv1.k"])), dtype=frames.dtype)
            self.a2 = np.empty((r, len(b2), len(w["enc.conv2.k"])), dtype=frames.dtype)
        self.threaded = r * w1.size >= PARALLEL_MIN_MACS and r // 2 >= PARALLEL_MIN_ROWS
        if self.threaded:
            ad.both(lambda: self._forward(slice(0, r // 2)),
                    lambda: self._forward(slice(r // 2, r)), True)
        else:
            self._forward(slice(0, r))

    def _forward(self, rows):
        """The forward of the frames at the slice ``rows``, written into
        those rows of ``feats``, ``hid`` and ``out`` (and of the saved
        activations): the backbone chunk by chunk, then the MLP over all
        of ``rows``."""
        w = self.w
        n = rows.stop - rows.start
        chunks = n // CONV_CHUNK if n >= 2 * CONV_CHUNK else 1  # the remainder joins the last
        cuts = [rows.start + i * CONV_CHUNK for i in range(1, chunks)]
        for start, stop in zip([rows.start, *cuts], [*cuts, rows.stop]):
            self._backbone(slice(start, stop))
        x = np.matmul(self.feats[rows], w["vis.fc1.w"], out=self.hid[rows])
        x += w["vis.fc1.b"]
        np.tanh(x, out=x)
        y = np.matmul(x, w["vis.fc2.w"], out=self.out[rows])
        y += w["vis.fc2.b"]

    def _backbone(self, rows):
        """The prompted backbone over the frames at the slice ``rows``,
        written into those rows of ``feats`` (and of the saved
        activations)."""
        w, pad = self.w, self.pad
        frames = self.frames[rows]
        n, h, wd = frames.shape
        xp = np.empty((n, h + 2 * pad, wd + 2 * pad, 1), dtype=frames.dtype)
        xp[:, self.plan[0], 0] = w["prompt"][0]
        xp[:, pad : pad + h, pad : pad + wd, 0] = frames
        a1 = _conv_tanh(xp, w["enc.conv1.k"])
        del xp  # each large temporary is freed as soon as it is read
        a2 = _conv_tanh(a1, w["enc.conv2.k"])
        a1, a2 = a1.reshape(n, -1, a1.shape[3]), a2.reshape(n, -1, a2.shape[3])
        self.feats[rows].reshape(n, a2.shape[2], -1)[...] = a2.transpose(0, 2, 1)
        if self.save:
            _, b1, b2 = self.plan[:3]
            self.a1[rows], self.a2[rows] = a1[:, b1], a2[:, b2]

    def _fc1_grads(self, dhid, w1_border, dx, dw1, rows, feats):
        """fc1's input gradient at the frames ``rows`` in the feature
        columns whose fc1 weights are ``w1_border``, and its weight gradient
        at the features ``feats``, written into those rows of dx and dw1."""
        np.matmul(dhid[rows], w1_border.T, out=dx[rows])
        np.matmul(self.feats[:, feats].T, dhid, out=dw1[feats])

    def backward(self, g):
        """Gradients of the ``vis`` inputs in the order of ``w``.

        fc2's gradients, the tanh derivative and both bias gradients are
        formed once, on the caller. fc1's input gradient is formed only in
        the feature columns of the b2 outputs (channel-major, b2 ascending),
        the only ones the prompt's gradient reads; each of its entries is
        the bits of the full product's. Above the gate, each thread forms
        that gradient for its half of the frames and fc1's weight gradient
        for half of the features. The prompt's gradient runs through the b2
        and b1 outputs only: rows are output positions and columns
        (channel, frame), so each col2im sums every frame at once, and the
        map from conv1 output to border pixel is linear and shared by every
        frame, so the frames are summed before it.
        """
        w, grads = self.w, {}
        dhid = g @ w["vis.fc2.w"].T
        _linear_grads(grads, "vis.fc2", self.hid, g)
        dhid *= 1.0 - self.hid * self.hid
        _, b1, b2, col2im2, col2im1 = self.plan
        n, _, c2 = self.a2.shape
        w1 = w["vis.fc1.w"]
        w1_border = w1[(np.arange(c2)[:, None] * (len(w1) // c2) + b2).reshape(-1)]
        dx, dw1 = np.empty((n, len(w1_border)), dtype=self.feats.dtype), np.empty_like(w1)
        if self.threaded:
            half, mid = n // 2, len(dw1) // 2
            ad.both(lambda: self._fc1_grads(dhid, w1_border, dx, dw1, slice(0, half),
                                            slice(0, mid)),
                    lambda: self._fc1_grads(dhid, w1_border, dx, dw1, slice(half, None),
                                            slice(mid, None)), True)
        else:
            self._fc1_grads(dhid, w1_border, dx, dw1, slice(None), slice(None))
        grads["vis.fc1.w"], grads["vis.fc1.b"] = dw1, dhid.sum(axis=0)

        c1 = self.a1.shape[2]
        a2 = self.a2.transpose(1, 2, 0)  # (b2, c2, frame)
        dy2 = dx.reshape(n, c2, len(b2)).transpose(2, 1, 0) * (1.0 - a2 * a2)
        k2 = w["enc.conv2.k"].reshape(c2, c1, 9).transpose(2, 1, 0).reshape(9 * c1, c2)
        dcols2 = k2 @ dy2  # (b2, tap x c1, frame)
        da1 = _col2im(col2im2, dcols2.reshape(len(b2) * 9, c1 * n)).reshape(len(b1), c1, n)
        dy1 = np.einsum("qcn,nqc->qc", da1, 1.0 - self.a1 * self.a1)  # summed over frames
        dcols1 = dy1 @ w["enc.conv1.k"].reshape(c1, 9)
        grads["prompt"] = _col2im(col2im1, dcols1.reshape(-1)).reshape(w["prompt"].shape)
        return tuple(grads[k] for k in w if k not in FROZEN)


def embed_points(params, cfg, points):
    """Two-layer MLP point embedding: (R,point_dim) packed points in the
    compute dtype -> (R,d_obs)."""
    if points.shape[1:] != (cfg.point_dim,):
        raise ad.ShapeError(f"points {points.shape} are not (R, {cfg.point_dim})")
    return _mlp2(params, "traj", ad.constant(points))


def temporal_encode(params, cfg, x, observed):
    """Both branches' stacks of masked post-norm encoder blocks, as one
    taped op.

    x: (x_v, x_t), the visual and trajectory branches' (R,d_obs) packed
    embeddings, one row per observed step in the order of
    ``observed_cells`` (R = sum of C); observed: (N,) ints. Each row gets
    the sinusoidal position of its step. Every row-wise op runs on the R
    rows only; attention lays them on the (N, max C) grid, where keys past
    each sample's C are masked. Returns the (R, 2 d_obs) rows
    ``[o_v | o_t]``. Each branch's forward runs in numpy and its backward
    is hand-written (``_Encoder``).

    The branches share no data, so when a branch's multiply-adds, about
    R * blocks * (4 + 2 mlp_ratio) * d_obs^2, reach ``PARALLEL_MIN_MACS``
    (twice its forward's count in the backward) the trajectory branch runs
    on a helper thread while the visual branch runs on the caller. Every
    paper-sized call with R >= 2 is threaded, and desk calls stay serial
    below about 340 rows (170 in the backward), where Python call overhead
    and lock hand-offs make two threads slower. Every GEMM keeps its
    one-threaded BLAS kernel and its shapes, so the result is bit-identical
    either way.
    """
    names = _fused_params(cfg)
    inputs = tuple(x) + tuple(params[k] for k in names["enc_v"] + names["enc_t"])
    save = ad.is_recording(inputs)  # thread-local: decided here, not on the helper
    pe = positional_encoding(int(observed.max()), cfg.d_obs, cfg.dtype)
    macs = int(observed.sum()) * cfg.blocks * (4 + 2 * cfg.mlp_ratio) * cfg.d_obs ** 2
    branches = [functools.partial(_Encoder, {k.removeprefix(f"{b}."): params[k].data
                                             for k in names[b]},
                                  rows.data, observed, pe, cfg.heads, cfg.blocks, save)
                for b, rows in zip(("enc_v", "enc_t"), x)]
    enc_v, enc_t = ad.both(*branches, macs >= PARALLEL_MIN_MACS)

    def backward(g):
        d = cfg.d_obs
        (dx_v, *g_v), (dx_t, *g_t) = ad.both(lambda: enc_v.backward(g[:, :d]),
                                             lambda: enc_t.backward(g[:, d:]),
                                             2 * macs >= PARALLEL_MIN_MACS)
        return (dx_v, dx_t, *g_v, *g_t)

    return ad.custom(np.concatenate([enc_v.out, enc_t.out], axis=1), inputs, backward)


@functools.lru_cache(maxsize=16)
def _fused_params(cfg):
    """The parameter names of each fused op that has weights, in layout
    order, by the op's name: ``vis`` (``prompt`` and the ``vis`` MLP),
    ``enc_v`` and ``enc_t`` (each branch's blocks), ``trans`` (``trans.*``
    but the ``trans.h`` input MLP) and ``emit`` (``emit.*``, and
    ``traj.*``, which re-embeds each previous mean)."""
    names = [n for n, _ in param_layout(cfg)]
    return {"vis": tuple(n for n in names if n == "prompt" or n.startswith("vis.")),
            "enc_v": tuple(n for n in names if n.startswith("enc_v.")),
            "enc_t": tuple(n for n in names if n.startswith("enc_t.")),
            "trans": tuple(n for n in names if n.startswith("trans.")
                           and not n.startswith("trans.h.")),
            "emit": tuple(n for n in names if n.startswith(("emit.", "traj.")))}


def transition(params, cfg, h, observed, horizon):
    """Recursive latent rollout over the full horizon, as one taped op.

    h: (R,d_z) encoded observations, one packed row per observed step in
    the order of ``observed_cells``; observed: (N,) ints. Returns z:
    (N,horizon,d_z). Each step attends over its own latent history (seeded
    with the learnable initial latent) and over the observation encoding,
    whose rows the op lays on the (N, max C) grid, with keys past each
    sample's C masked. The forward runs in numpy on (N,d) rows and a
    preallocated self-attention K/V cache; the backward is hand-written
    BPTT.
    """
    names = _fused_params(cfg)["trans"]
    inputs = (h,) + tuple(params[k] for k in names)
    roll = _Rollout({k.removeprefix("trans."): params[k].data for k in names}, h.data, observed,
                    positional_encoding(int(horizon), cfg.d_z, cfg.dtype),
                    cfg.heads, save=ad.is_recording(inputs))
    return ad.custom(roll.z, inputs, roll.backward)


def _split(x, heads):
    """(N,T,D) array -> (N,heads,T,D/heads), as ad.split_heads lays it out."""
    n, t, d = x.shape
    return np.ascontiguousarray(x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3))


def _merge(x):
    """(N,heads,T,dh) array -> (N*T, heads*dh) rows."""
    n, heads, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n * t, heads * dh)


def _layer_norm_into(x, gain, bias, mean_col, out, xhat, inv):
    """The layer norm of ``ad.layer_norm_fwd`` over the rows x, written into
    out (which may be x), xhat and inv. Each row mean is one product with
    ``mean_col``, a (d,1) column of 1/d, so it rounds differently."""
    np.subtract(x, x @ mean_col, out=xhat)
    np.power(np.square(xhat) @ mean_col + ad.LAYER_NORM_EPS, -0.5, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias


def _linear_grads(grads, name, x, dy):
    """Set ``grads`` of the weight and bias of layer ``name`` from its inputs
    x and output gradients dy, each one product or sum over all rows of the
    leading axes."""
    x, dy = x.reshape(-1, x.shape[-1]), dy.reshape(-1, dy.shape[-1])
    grads[f"{name}.w"] = x.T @ dy
    grads[f"{name}.b"] = dy.sum(axis=0)


def _norm_grads(grads, name, xhat, dy):
    """Set ``grads`` of the gain and bias of layer norm ``name`` from its
    standardized input xhat and output gradients dy. dy is spent: it
    becomes dy * xhat."""
    dy = dy.reshape(-1, dy.shape[-1])
    grads[f"{name}.b"] = dy.sum(axis=0)
    dy *= xhat.reshape(dy.shape)
    grads[f"{name}.g"] = dy.sum(axis=0)


class _Encoder:
    """Numpy forward and hand-written backward of one branch's block stack.

    The forward repeats the taped composition op for op, so its output is
    bit-identical to it on every preset and dtype; the gradients of the
    input rows and of every tensor agree with the taped composition to
    rtol 1e-9 and atol 1e-12 in float64. Row-wise ops run on the R packed rows. Each head's
    queries, keys and values are (N, heads, max C, d_h) strided views of
    rows laid on the grid, zero at cells no row fills; BLAS multiplies them
    bit for bit as it does the contiguous copies of ``ad.split_heads``. The
    logits are scaled in place and take the key mask broadcast from
    (N,1,1,max C). Each block's activations are kept only when ``save`` is
    set (a tape will replay them). Every buffer, forward and backward, has
    the dtype of x.
    """

    def __init__(self, w, x, observed, pe, heads, blocks, save):
        n, t, d = len(observed), pe.shape[0], x.shape[1]
        self.w, self.rows, self.grid = w, grid_rows(observed), (n, heads, t, d // heads)
        # a Python float, as ad.scale makes it: a numpy float64 scalar would
        # round float32 logits differently
        self.scale = scale = float(1.0 / np.sqrt(d // heads))
        mask = _key_mask(observed, t, x.dtype)

        def affine(a, name):
            y = a @ w[f"{name}.w"]
            y += w[f"{name}.b"]
            return y

        self.saved = []
        u = x + pe.take(self.rows % t, axis=0)  # each row's step
        for b in range(blocks):
            q = self._heads(affine(u, f"{b}.attn.wq"))
            k = self._heads(u @ w[f"{b}.attn.wk.w"])
            v = self._heads(affine(u, f"{b}.attn.wv"))
            p = q @ np.swapaxes(k, -1, -2)
            p *= scale
            p += mask
            ad.softmax_fwd(p)
            ctx = self._rows(p @ v)
            pre = affine(ctx, f"{b}.attn.wo")
            pre += u
            u1, xhat1, inv1 = ad.layer_norm_fwd(pre, w[f"{b}.ln1.g"], w[f"{b}.ln1.b"])
            hid = affine(u1, f"{b}.mlp.fc1")
            np.tanh(hid, out=hid)
            pre = affine(hid, f"{b}.mlp.fc2")
            pre += u1
            out, xhat2, inv2 = ad.layer_norm_fwd(pre, w[f"{b}.ln2.g"], w[f"{b}.ln2.b"])
            if save:
                self.saved.append((u, q, k, v, p, ctx, xhat1, inv1, u1, hid, xhat2, inv2))
            u = out
        self.out = u

    def _heads(self, a):
        """(R,d) rows -> (N,heads,T,d_h), a view of their copy on the grid,
        zero at cells no row fills."""
        n, heads, t, dh = self.grid
        return ad.unpack_rows(a, self.rows, (n, t, heads, dh)).transpose(0, 2, 1, 3)

    def _rows(self, a):
        """(N,heads,T,d_h) grid -> its (R,d) rows, the inverse of ``_heads``."""
        return ad.pack_rows(a.transpose(0, 2, 1, 3), self.rows)

    def backward(self, g):
        """Gradients of x, then of each parameter in the order of ``w``.

        From the last block back; each weight gradient is one product over
        all R rows, and each bias and gain gradient one sum. g may be a
        column view of the paired op's gradient: it is copied first, so
        every gradient handed over is fresh.
        """
        w, scale = self.w, self.scale
        grads = {}
        du = g.copy()  # handed over as x's gradient when there are no blocks
        for b in reversed(range(len(self.saved))):
            u, q, k, v, p, ctx, xhat1, inv1, u1, hid, xhat2, inv2 = self.saved[b]
            dpre = ad.layer_norm_bwd(du, w[f"{b}.ln2.g"], xhat2, inv2)
            _norm_grads(grads, f"{b}.ln2", xhat2, du)
            _linear_grads(grads, f"{b}.mlp.fc2", hid, dpre)
            dhid = dpre @ w[f"{b}.mlp.fc2.w"].T
            dhid *= 1.0 - hid * hid
            _linear_grads(grads, f"{b}.mlp.fc1", u1, dhid)
            du1 = dhid @ w[f"{b}.mlp.fc1.w"].T
            du1 += dpre
            dpre = ad.layer_norm_bwd(du1, w[f"{b}.ln1.g"], xhat1, inv1)
            _norm_grads(grads, f"{b}.ln1", xhat1, du1)
            _linear_grads(grads, f"{b}.attn.wo", ctx, dpre)
            dctx = self._heads(dpre @ w[f"{b}.attn.wo.w"].T)
            dlog = ad.softmax_bwd(dctx @ np.swapaxes(v, -1, -2), p)
            dlog *= scale
            dq = self._rows(dlog @ k)
            dk = self._rows(np.swapaxes(dlog, -1, -2) @ q)
            dv = self._rows(np.swapaxes(p, -1, -2) @ dctx)
            _linear_grads(grads, f"{b}.attn.wq", u, dq)
            grads[f"{b}.attn.wk.w"] = u.T @ dk
            _linear_grads(grads, f"{b}.attn.wv", u, dv)
            du = dpre
            for name, dy in (("wq", dq), ("wk", dk), ("wv", dv)):
                du += dy @ w[f"{b}.attn.{name}.w"].T
        return (du,) + tuple(grads[k] for k in w)


class _Rollout:
    """Numpy forward and hand-written backward of the transition.

    Unlike the other fused ops, the forward does not repeat the taped
    composition op for op: it agrees with it to 1e-12 in float64. In
    float32 it stays within 1e-5 of the float64 forward at the same
    weights, and its gradients within 2e-5 of each tensor's largest
    float64 entry. The backward is BPTT, and its gradients agree with the
    taped composition to rtol 1e-9 and atol 1e-12.

    Rows are (N,d). Built once per call: the encoded observations' packed
    rows laid on the (N, max C) grid, zero past each sample's C, and their
    key mask; the self-attention query, key and value weights joined into
    one (d_z, 3 d_z) matrix with a zero key bias; both queries' weights
    and biases pre-scaled by 1/sqrt(d_h); the cross-attention keys
    pre-transposed; and a (T,d_z) table of ``outer.fc2.b`` plus the
    positional encoding. So a step makes one
    Q/K/V product, and biases and tanh run in place on preallocated
    buffers: [z, attn] feeds ``ln_wbar``, whose output w̄ and the cross
    projection fill the first 3 d_z columns of [ŵ, inner], where
    ``ln_what`` normalizes them in place. Step i writes the key and value
    of its input latent z_i into slot i of the caches and attends over
    slots 0..i. Each activation goes into slot s of its array's step
    axis: with ``save`` (a tape will replay the op) the axis has T slots
    and s = i, without it one slot and s = 0, so both run the same code.
    Every buffer, forward and backward, has the dtype of h.
    """

    def __init__(self, w, h, observed, pe, heads, save):
        n, t_enc, dz = len(observed), int(observed.max()), h.shape[1]
        t = pe.shape[0]
        dh = dz // heads
        dtype = h.dtype
        scale = float(1.0 / np.sqrt(dh))
        self.rows = grid_rows(observed)
        h = ad.unpack_rows(h, self.rows, (n, t_enc, dz))
        hmask = _key_mask(observed, t_enc, dtype)
        self.w, self.h, self.heads, self.scale = w, h, heads, scale
        self.wqkv = np.concatenate([w["self.wq.w"] * scale, w["self.wk.w"], w["self.wv.w"]],
                                   axis=1)
        bqkv = np.concatenate([w["self.wq.b"] * scale, np.zeros(dz, dtype), w["self.wv.b"]])
        self.wcq = w["cross.wq.w"] * scale
        bcq = w["cross.wq.b"] * scale
        self.kh = _split(h @ w["cross.wk.w"], heads)
        kh_t = np.ascontiguousarray(np.swapaxes(self.kh, -1, -2))
        self.vh = _split(h @ w["cross.wv.w"] + w["cross.wv.b"], heads)
        feats_bias = w["outer.fc2.b"] + pe
        self.kt = np.empty((n, heads, dh, t), dtype=dtype)  # self-attention keys, transposed
        self.v = np.empty((n, heads, t, dh), dtype=dtype)
        self.z = np.empty((n, t, dz), dtype=dtype)
        slots = t if save else 1

        def per_step(*shape):
            return np.empty((slots, n) + shape, dtype=dtype)

        self.qkv, self.qc = per_step(3 * dz), per_step(dz)
        self.ps = np.zeros((n, heads, slots, t), dtype=dtype)  # by sample and head, as read back
        self.pc = per_step(heads, t_enc)
        self.ctx, self.ctxc = per_step(dz), per_step(dz)
        self.x1, self.x2, self.x3 = per_step(2 * dz), per_step(3 * dz), per_step(dz)
        self.inv1, self.inv2, self.inv3 = per_step(1), per_step(1), per_step(1)
        self.u, self.a1, self.a2 = per_step(4 * dz), per_step(dz), per_step(2 * dz)
        mean_col = {k: np.full((k, 1), 1.0 / k, dtype=dtype) for k in (dz, 2 * dz, 3 * dz)}
        cat1 = np.empty((n, 2 * dz), dtype=dtype)  # [z_i, attn]
        cat1[:, :dz] = w["z0"]
        feats = np.empty((n, dz), dtype=dtype)
        for i in range(t):
            s = i if save else 0
            qkv = np.matmul(cat1[:, :dz], self.wqkv, out=self.qkv[s])
            qkv += bqkv
            self.kt[:, :, :, i] = qkv[:, dz : 2 * dz].reshape(n, heads, dh)
            self.v[:, :, i] = qkv[:, 2 * dz :].reshape(n, heads, dh)
            ps = self.ps[:, :, s, None, : i + 1]
            np.matmul(qkv[:, :dz].reshape(n, heads, 1, dh), self.kt[..., : i + 1], out=ps)
            ad.softmax_fwd(ps)
            np.matmul(ps, self.v[:, :, : i + 1], out=self.ctx[s].reshape(n, heads, 1, dh))
            attn = np.matmul(self.ctx[s], w["self.wo.w"], out=cat1[:, dz:])
            attn += w["self.wo.b"]
            u = self.u[s]  # [w̄, cross-proj, inner], then [ŵ, inner]
            _layer_norm_into(cat1, w["ln_wbar.g"], w["ln_wbar.b"], mean_col[2 * dz],
                             u[:, : 2 * dz], self.x1[s], self.inv1[s])
            qc = np.matmul(u[:, : 2 * dz], self.wcq, out=self.qc[s])
            qc += bcq
            pc = self.pc[s, :, :, None]
            np.matmul(qc.reshape(n, heads, 1, dh), kh_t, out=pc)
            pc += hmask
            ad.softmax_fwd(pc)
            np.matmul(pc, self.vh, out=self.ctxc[s].reshape(n, heads, 1, dh))
            cproj = np.matmul(self.ctxc[s], w["cross.wo.w"], out=u[:, 2 * dz : 3 * dz])
            cproj += w["cross.wo.b"]
            what = u[:, : 3 * dz]
            _layer_norm_into(what, w["ln_what.g"], w["ln_what.b"], mean_col[3 * dz], what,
                             self.x2[s], self.inv2[s])
            a1 = np.matmul(what, w["inner.fc1.w"], out=self.a1[s])
            a1 += w["inner.fc1.b"]
            np.tanh(a1, out=a1)
            inner = np.matmul(a1, w["inner.fc2.w"], out=u[:, 3 * dz :])
            inner += w["inner.fc2.b"]
            a2 = np.matmul(u, w["outer.fc1.w"], out=self.a2[s])
            a2 += w["outer.fc1.b"]
            np.tanh(a2, out=a2)
            np.matmul(a2, w["outer.fc2.w"], out=feats)
            feats += feats_bias[i]
            _layer_norm_into(feats, w["ln_z.g"], w["ln_z.b"], mean_col[dz], cat1[:, :dz],
                             self.x3[s], self.inv3[s])
            self.z[:, i] = cat1[:, :dz]

    def backward(self, g):
        """BPTT over the saved steps: gradients of h's packed rows, then of
        each parameter in the order of ``w``.

        The loop carries only the recurrence, from the last step back, and
        writes each step's row gradients into (T,N,·) arrays. After it,
        every weight gradient is one product over all T·N rows and every
        bias and gain gradient one sum. A self-attention key/value slot is
        complete once the loop reaches the step that wrote it, so its
        gradient is one product over the steps that read it.
        """
        w, heads, scale = self.w, self.heads, self.scale
        n, t, dz = self.z.shape
        dh = dz // heads
        dtype = self.z.dtype

        def per_step(width):
            return np.empty((t, n, width), dtype=dtype)

        def by_head(a):  # (T,N,d) step rows -> (N,heads,T,dh) view
            return a.reshape(t, n, heads, dh).transpose(1, 2, 0, 3)

        dout, dfeats, dinner, da1, dcproj, dctxc, dqc, dattn, dctx = (per_step(dz)
                                                                     for _ in range(9))
        da2, dwbar = per_step(2 * dz), per_step(2 * dz)
        dwhat, dqkv = per_step(3 * dz), per_step(3 * dz)
        du = np.empty((n, 4 * dz), dtype=dtype)  # the step's, reused
        dlogc = np.empty_like(self.pc)
        ps, dlog = self.ps, np.zeros_like(self.ps)  # row j: step j's weights and d(logits)
        q, dctx_h = by_head(self.qkv[..., :dz]), by_head(dctx)
        k, v_t = np.swapaxes(self.kt, -1, -2), np.swapaxes(self.v, -1, -2)
        vh_t = np.swapaxes(self.vh, -1, -2)
        dz_ = 0.0  # gradient of z_{i+1} from step i+1: residual, query, cache slot
        for i in reversed(range(t)):
            np.add(g[:, i], dz_, out=dout[i])
            dfeats[i] = ad.layer_norm_bwd(dout[i], w["ln_z.g"], self.x3[i], self.inv3[i])
            np.matmul(dfeats[i], w["outer.fc2.w"].T, out=da2[i])
            da2[i] *= 1.0 - self.a2[i] * self.a2[i]
            np.matmul(da2[i], w["outer.fc1.w"].T, out=du)
            dinner[i] = du[:, 3 * dz :]
            np.matmul(dinner[i], w["inner.fc2.w"].T, out=da1[i])
            da1[i] *= 1.0 - self.a1[i] * self.a1[i]
            np.matmul(da1[i], w["inner.fc1.w"].T, out=dwhat[i])
            dwhat[i] += du[:, : 3 * dz]
            dcat2 = ad.layer_norm_bwd(dwhat[i], w["ln_what.g"], self.x2[i], self.inv2[i])
            dcproj[i] = dcat2[:, 2 * dz :]
            np.matmul(dcproj[i], w["cross.wo.w"].T, out=dctxc[i])
            dlogc[i] = ad.softmax_bwd(dctxc[i].reshape(n, heads, 1, dh) @ vh_t,
                                      self.pc[i, :, :, None])[:, :, 0]
            np.matmul(dlogc[i, :, :, None], self.kh, out=dqc[i].reshape(n, heads, 1, dh))
            np.matmul(dqc[i], self.wcq.T, out=dwbar[i])
            dwbar[i] += dcat2[:, : 2 * dz]
            dcat1 = ad.layer_norm_bwd(dwbar[i], w["ln_wbar.g"], self.x1[i], self.inv1[i])
            dattn[i] = dcat1[:, dz:]
            np.matmul(dattn[i], w["self.wo.w"].T, out=dctx[i])
            dlog_i = ad.softmax_bwd(dctx_h[:, :, i, None] @ v_t[..., : i + 1],
                                    ps[:, :, i, None, : i + 1])
            dlog[:, :, i, : i + 1] = dlog_i[:, :, 0]
            # slot i (holding z_i) is complete: its readers are steps i..t-1
            dq = dlog_i @ k[:, :, : i + 1]
            dk = np.swapaxes(dlog[:, :, i:, i, None], -1, -2) @ q[:, :, i:]
            dv = np.swapaxes(ps[:, :, i:, i, None], -1, -2) @ dctx_h[:, :, i:]
            for j, part in enumerate((dq, dk, dv)):
                dqkv[i, :, j * dz : (j + 1) * dz] = part.reshape(n, dz)
            dz_ = dcat1[:, :dz] + dqkv[i] @ self.wqkv.T

        grads = {}
        zin = np.empty((t, n, dz), dtype=dtype)  # each step's input latent
        zin[0] = w["z0"]
        zin[1:] = self.z[:, :-1].transpose(1, 0, 2)
        _linear_grads(grads, "self.wqkv", zin, dqkv)
        dw, db = grads.pop("self.wqkv.w"), grads.pop("self.wqkv.b")
        grads["self.wq.w"], grads["self.wq.b"] = dw[:, :dz] * scale, db[:dz] * scale
        grads["self.wk.w"] = dw[:, dz : 2 * dz]
        grads["self.wv.w"], grads["self.wv.b"] = dw[:, 2 * dz :], db[2 * dz :]
        _linear_grads(grads, "self.wo", self.ctx, dattn)
        _linear_grads(grads, "cross.wq", self.x1, dqc)  # its input is w̄ = x̂1 * g + b
        grads["cross.wq.w"] = (grads["cross.wq.w"] * w["ln_wbar.g"][:, None]
                               + np.outer(w["ln_wbar.b"], grads["cross.wq.b"])) * scale
        grads["cross.wq.b"] *= scale
        _norm_grads(grads, "ln_wbar", self.x1, dwbar)
        _linear_grads(grads, "cross.wo", self.ctxc, dcproj)
        _norm_grads(grads, "ln_what", self.x2, dwhat)
        _linear_grads(grads, "inner.fc1", self.u[..., : 3 * dz], da1)
        _linear_grads(grads, "inner.fc2", self.a1, dinner)
        _linear_grads(grads, "outer.fc1", self.u, da2)
        _linear_grads(grads, "outer.fc2", self.a2, dfeats)
        _norm_grads(grads, "ln_z", self.x3, dout)
        grads["z0"] = dz_.sum(axis=0)
        dkh = _merge(dlogc.transpose(1, 2, 3, 0) @ by_head(self.qc))
        dvh = _merge(self.pc.transpose(1, 2, 3, 0) @ by_head(dctxc))
        grads["cross.wk.w"] = self.h.reshape(-1, dz).T @ dkh
        _linear_grads(grads, "cross.wv", self.h, dvh)
        dh = dkh @ w["cross.wk.w"].T + dvh @ w["cross.wv.w"].T
        return (ad.pack_rows(dh.reshape(self.h.shape), self.rows),) + tuple(grads[k] for k in w)


def emit(params, cfg, z, o, observed):
    """Probabilistic emission over the whole horizon, as one taped op.

    z: (N,T,d_z) latents; o: the temporal op's (R, 2 d_obs) rows, one per
    observed step in the order of ``observed_cells``, whose trajectory
    half (columns d_obs:) the op lays on the (N, max C) grid; the visual
    half is not read. observed: (N,) ints. Step i reads
    z_i and a previous-trajectory feature: zero at step 0, the encoder
    feature of step i-1 through step C, and after that the previous
    predicted mean, re-embedded by ``embed_points`` and ``emit.reembed``.
    Returns mean (N,T,point_dim) under tanh and alpha, beta (N,T,1) under
    softplus; beta is None in 2d mode. The forward runs in numpy; the
    backward is hand-written BPTT through the previous-mean recurrence.
    """
    names = _fused_params(cfg)["emit"]
    inputs = (z, o) + tuple(params[k] for k in names)
    em = _Emission({k: params[k].data for k in names}, z.data, o.data,
                   np.asarray(observed), save=ad.is_recording(inputs))
    out = ad.custom(em.out, inputs, em.backward)
    pd = cfg.point_dim
    beta = ad.slice_axis(out, 2, pd + 1, pd + 2) if pd == 3 else None
    return ad.slice_axis(out, 2, 0, pd), ad.slice_axis(out, 2, pd, pd + 1), beta


class _Emission:
    """Numpy forward and hand-written backward of the emission.

    The trajectory half of the temporal op's rows is laid on the
    (N, max C) grid, zero past each sample's C. The forward mirrors the
    taped composition op for op: steps 0..min C run as one
    (N, min C + 1, d) block, since every sample reads encoder features
    there, and each later step runs on (N,1,d) operands, so the output is
    bit-identical to it on ``tiny`` and ``desk``, 3D and 2d. The backward
    is BPTT, and its gradients agree with the taped composition to rtol
    1e-9 and atol 1e-12; the visual half of the rows gets exact zero.
    ``out`` packs mean, alpha and beta (N,T,point_dim+2; +1 without beta).
    Activations are kept per step only when ``save`` is set (a tape will
    replay them); the backward stacks them over the horizon. Every
    buffer, forward and backward, has the dtype of z.
    """

    def __init__(self, w, z, o, observed, save):
        n, t, dz = z.shape
        d = o.shape[1] // 2
        self.rows = grid_rows(observed)
        o = ad.unpack_rows(o[:, d:], self.rows, (n, int(observed.max()), d))
        heads = [h for h in ("mean", "alpha", "beta") if f"emit.{h}.fc1.w" in w]
        pd = w["emit.mean.fc2.w"].shape[1]
        m0 = int(observed.min())  # steps 0..m0 lie in every sample's observed prefix
        self.w, self.heads, self.pd, self.m0 = w, heads, pd, m0
        # row i-1: which samples still read the encoder feature at step i (i <= C)
        self.sel = (np.arange(1, o.shape[1] + 1)[:, None] <= observed).astype(z.dtype)[..., None]
        keep_re = 1.0 - self.sel
        self.out = out = np.empty((n, t, pd + len(heads) - 1), dtype=z.dtype)
        # per-step activations by name, in step order; the re-embedding
        # lists start empty so that they stack when no step re-embeds
        saved = {"e1": [np.empty((n, 0, w["traj.fc1.w"].shape[1]), dtype=z.dtype)],
                 "e2": [np.empty((n, 0, d), dtype=z.dtype)]}

        def keep(name, a):
            if save:
                saved.setdefault(name, []).append(a)

        def emit_steps(steps, feat):
            """Run the heads on z and the previous-trajectory feature at
            ``steps``; returns the mean."""
            x = np.concatenate([z[:, steps], feat], axis=2)
            keep("inp", x)
            hid = {}
            for h in heads:
                hid[h] = np.tanh(x @ w[f"emit.{h}.fc1.w"] + w[f"emit.{h}.fc1.b"])
                keep(h, hid[h])
            mean = np.tanh(hid["mean"] @ w["emit.mean.fc2.w"] + w["emit.mean.fc2.b"])
            out[:, steps, :pd] = mean
            for k, h in enumerate(heads[1:], start=pd):
                pre = hid[h] @ w[f"emit.{h}.fc2.w"] + w[f"emit.{h}.fc2.b"]
                keep(f"{h}.pre", pre)
                out[:, steps, k : k + 1] = np.logaddexp(0.0, pre)
            return mean

        feat = np.concatenate([np.zeros((n, 1, d), dtype=z.dtype), o[:, :m0]], axis=1)
        prev = emit_steps(slice(0, m0 + 1), feat)[:, m0:].copy()
        for i in range(m0 + 1, t):
            e1 = np.tanh(prev @ w["traj.fc1.w"] + w["traj.fc1.b"])
            e2 = e1 @ w["traj.fc2.w"] + w["traj.fc2.b"]
            keep("e1", e1)
            keep("e2", e2)
            feat = e2 @ w["emit.reembed.w"] + w["emit.reembed.b"]
            if i <= len(self.sel):  # encoder feature through step C, then the re-embedding
                feat = o[:, i - 1 : i] * self.sel[i - 1, :, None] + feat * keep_re[i - 1, :, None]
            prev = emit_steps(slice(i, i + 1), feat)
        if save:
            self.saved = saved

    def backward(self, g):
        """BPTT over the saved steps: gradients of z, of the rows o (exact
        zero in their visual half), then of each parameter in the order of
        ``w``.

        Rows are 2-D here: the backward has no bit-identity to keep. Alpha
        and beta do not feed the recurrence, so their gradients run for
        every step at once; the loop walks only the mean head and the
        re-embedding, from the last step back to min C + 1, carrying the
        gradient of each step's previous mean. Weight gradients are one
        product per weight over all steps.
        """
        w, pd, m0, heads = self.w, self.pd, self.m0, self.heads
        act = {k: np.concatenate(v, axis=1) for k, v in self.saved.items()}
        n, t, d_in = act["inp"].shape
        d = act["e2"].shape[2]
        dz = d_in - d
        mean = self.out[..., :pd]

        def rows(a):
            return a.reshape(-1, a.shape[-1])

        dpre, dhid = {}, {}
        for k, h in enumerate(heads[1:], start=pd):
            dpre[h] = g[..., k : k + 1] * (0.5 * (1.0 + np.tanh(0.5 * act[f"{h}.pre"])))
            dhid[h] = dpre[h] * w[f"emit.{h}.fc2.w"][:, 0] * (1.0 - act[h] ** 2)
        dinp = sum(rows(dhid[h]) @ w[f"emit.{h}.fc1.w"].T for h in heads[1:]).reshape(n, t, d_in)

        hm = act["mean"]
        dmean_act, dhm_act = 1.0 - mean * mean, 1.0 - hm * hm
        w2m_t = w["emit.mean.fc2.w"].T
        w1m_feat_t = w["emit.mean.fc1.w"][dz:].T
        re_t = (w["traj.fc2.w"] @ w["emit.reembed.w"]).T  # feature -> traj.fc1 output
        w1t_t = w["traj.fc1.w"].T
        e1_act = 1.0 - act["e1"] ** 2
        dpm = np.empty_like(mean)
        dhm = np.empty_like(hm)
        dre = np.empty((n, t - m0 - 1, d), dtype=mean.dtype)
        d1 = np.empty_like(e1_act)
        t_enc = len(self.sel)
        keep_re = 1.0 - self.sel
        do = np.zeros((n, t_enc, 2 * d), dtype=mean.dtype)  # visual half stays zero
        carry = 0.0  # gradient of mean_i from step i+1's re-embedding
        for i in range(t - 1, m0, -1):
            j = i - m0 - 1
            dpm[:, i] = (g[:, i, :pd] + carry) * dmean_act[:, i]
            dhm[:, i] = (dpm[:, i] @ w2m_t) * dhm_act[:, i]
            dfeat = dinp[:, i, dz:] + dhm[:, i] @ w1m_feat_t
            if i <= t_enc:
                do[:, i - 1, d:] = dfeat * self.sel[i - 1]
                dfeat = dfeat * keep_re[i - 1]
            dre[:, j] = dfeat
            d1[:, j] = (dfeat @ re_t) * e1_act[:, j]
            carry = d1[:, j] @ w1t_t
        dpm[:, : m0 + 1] = g[:, : m0 + 1, :pd] * dmean_act[:, : m0 + 1]
        dpm[:, m0] += carry * dmean_act[:, m0]
        dhm[:, : m0 + 1] = (dpm[:, : m0 + 1] @ w2m_t) * dhm_act[:, : m0 + 1]
        dinp += (rows(dhm) @ w["emit.mean.fc1.w"].T).reshape(n, t, d_in)
        do[:, :m0, d:] = dinp[:, 1 : m0 + 1, dz:]

        grads = {}
        _linear_grads(grads, "emit.mean.fc2", hm, dpm)
        _linear_grads(grads, "emit.mean.fc1", act["inp"], dhm)
        for h in heads[1:]:
            _linear_grads(grads, f"emit.{h}.fc2", act[h], dpre[h])
            _linear_grads(grads, f"emit.{h}.fc1", act["inp"], dhid[h])
        _linear_grads(grads, "emit.reembed", act["e2"], dre)
        _linear_grads(grads, "traj.fc2", act["e1"], rows(dre) @ w["emit.reembed.w"].T)
        _linear_grads(grads, "traj.fc1", mean[:, m0 : t - 1], d1)
        return (dinp[..., :dz], ad.pack_rows(do, self.rows)) + tuple(grads[k] for k in w)


def velocity_head(params, cfg, z):
    """Velocity from latents, layer-normalized hidden layer, tanh output."""
    pre = _linear(params, "vel.fc1", z)
    h = ad.tanh(_layer_norm(params, "vel.ln", pre))
    return ad.tanh(_linear(params, "vel.fc2", h))


def forward_batch(params, cfg, frames, points, observed, lengths=None):
    """Full forward pass over a padded batch.

    frames (N,T,H,W) and points (N,T,point_dim) are numpy
    inputs padded to the horizon, cast to the compute dtype (no copy when
    they have it); observed (N,) int gives each sample's C.
    Only the C observed steps of each sample reach the encoders, as packed
    rows (R = sum of C rows, sample-major; a copy of the inputs), so inputs
    past each sample's C are never read. The transition and the emission
    take the temporal op's packed rows, the emission reading their
    trajectory half, and run once each over the whole horizon. Returns
    dict of graph tensors: mean (N,T,pd), alpha/beta (N,T,1), beta None
    in 2d mode, velocity (N,T,pd).

    A sample's outputs can differ in the last bits with the batch it rides
    in: encoded alone, a sample with C=1 makes one-row products, which
    BLAS runs as a gemv, and a batch whose max C reaches 8 changes the
    association of numpy's pairwise softmax sums over the padded keys. So
    a batched forecast and ``forecast`` of the same sample need not be
    byte-equal. The helper thread adds nothing to this: a threaded call
    gives the bits of the serial one.
    """
    frames = np.asarray(frames, dtype=cfg.dtype)
    points = np.asarray(points, dtype=cfg.dtype)
    observed = np.asarray(observed, dtype=np.int64)
    t = points.shape[1]
    if np.any(observed < 1) or np.any(observed >= (lengths if lengths is not None else t)):
        raise ValueError("observed counts must satisfy 1 <= C < T")

    cells = observed_cells(observed)
    o = temporal_encode(params, cfg, (encode_frames(params, cfg, frames[cells]),
                                      embed_points(params, cfg, points[cells])), observed)
    pe_z = positional_encoding(t, cfg.d_z, cfg.dtype).take(cells[1], axis=0)
    h = _layer_norm(params, "trans.h.ln", ad.add(_mlp2(params, "trans.h", o), ad.constant(pe_z)))
    z = transition(params, cfg, h, observed, horizon=t)
    mean, alpha, beta = emit(params, cfg, z, o, observed)
    return {"mean": mean, "alpha": alpha, "beta": beta,
            "velocity": velocity_head(params, cfg, z)}


def forecast(params, cfg, frames, points, observed_count):
    """Single-sample inference. frames (T,H,W), points (T,point_dim)
    with at least the first C entries filled; returns a ForecastOutput
    covering the sample's full horizon.

    This is ``forward_batch`` at N=1, whose docstring says how it can
    differ in the last bits from a batched forecast."""
    out = forward_batch(params, cfg, np.asarray(frames)[None], np.asarray(points)[None],
                        np.array([observed_count]))
    return ForecastOutput(
        mean=out["mean"].data[0],
        alpha=out["alpha"].data[0, :, 0],
        beta=None if out["beta"] is None else out["beta"].data[0, :, 0],
        velocity=out["velocity"].data[0],
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, cfg, path, extra=None):
    """Write <path>.json ({config, extra}) and <path>.bin, the store's flat
    array (or a dict's tensors in order) as little-endian float64, written
    ``_BLOCK`` values at a time so that no full copy is held."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".bin"), "wb") as f:
        for _, t in params.items():
            for lo in range(0, t.data.size, _BLOCK):
                f.write(t.data.reshape(-1)[lo : lo + _BLOCK].astype("<f8"))
    with open(base.with_suffix(".json"), "w") as f:
        json.dump({"config": asdict(cfg), "extra": extra or {}}, f, indent=1, sort_keys=True)
        f.write("\n")


class CheckpointError(ValueError):
    """A checkpoint whose ``.json`` is not a JSON object with a ``config``
    object that ``ModelConfig`` accepts (and an ``extra`` object, if any),
    or whose ``.bin`` is not 8 bytes per value of the config's layout; or
    an optimizer state whose moments do not match the model's trainable
    tensors, or whose extra has no step count ``t``."""


def load_checkpoint(path, layout=param_layout):
    """Read a checkpoint; returns (params, cfg, extra), params the store of
    ``layout(cfg)`` in the config's compute dtype, holding the ``.bin``.
    Any other field of the ``.json``, such as the tensor list older writers
    added, is ignored. A refused checkpoint raises CheckpointError."""
    base = Path(path)
    with open(base.with_suffix(".json")) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"checkpoint {base}: {f.name} is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise CheckpointError(f"checkpoint {base}: {f.name} is not a JSON object with a "
                              "config object")
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"checkpoint {base}: the extra of {f.name} is not an object")
    try:
        cfg = ModelConfig(**doc["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {base}: {e}") from None
    params = Params(layout(cfg), cfg.dtype)
    buf = base.with_suffix(".bin").read_bytes()
    if len(buf) != 8 * params.flat.size:
        raise CheckpointError(f"checkpoint {base}: {base.with_suffix('.bin')} holds {len(buf)} "
                              f"bytes, not the {8 * params.flat.size} of the {params.flat.size} "
                              "values its config lays out")
    params.flat[...] = np.frombuffer(buf, dtype="<f8")
    return params, cfg, extra
