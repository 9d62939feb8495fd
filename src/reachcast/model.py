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
C are never read. Attention scatters the rows onto the (N, max C) grid,
where empty cells are zero and keys past C carry an additive -1e9 logit,
which underflows to exact zero weight, so forecasts are exactly
independent of future inputs.

Three stages are fused tape ops, each one ``ad.custom`` record rather
than a chain of taped ops: the frozen frame encoder (``frozen_encoder``),
the state transition (``transition``) and the autoregressive emission
(``emit``), whose every step after the observed prefix reads the
re-embedded previous mean. Each forward runs in numpy and repeats the
arithmetic of the taped composition op for op, with the same operand
shapes and BLAS calls, so its output is bit-identical to it, and each
backward is hand-written and sums in a different order:

- the frame encoder's forward is bit-identical on every preset and
  dtype. Its backward computes only the prompt's gradient, which agrees
  with the taped ``embed_border``/``conv2d`` composition to rtol 1e-9 and
  atol 1e-12 in float64 and to 2e-6 of the largest entry in float32;
- the transition's forward is bit-identical on ``desk`` and within 1e-12
  elsewhere, the emission's on ``tiny`` and ``desk``, 3D and 2d. Their
  backwards are back-propagation through time, and their gradients agree
  with the taped composition to rtol 1e-9 and atol 1e-12.

The taped compositions are kept as references in
tests/test_frame_encoder.py, tests/test_transition.py and
tests/test_emission.py.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from . import autodiff as ad

MASK_LOGIT = -1e9
COORDINATE_MODES = ("global-3d", "local-3d", "2d")
COMPUTE_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes and the dtype the model computes in.

    The bare defaults are the paper's sizes; ``paper()`` is them computing
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
        if self.d_obs % self.heads or self.d_z % self.heads:
            raise ValueError(f"d_obs={self.d_obs} and d_z={self.d_z} must divide heads={self.heads}")
        if self.prompt_width < 0:
            raise ValueError("prompt_width must be >= 0")
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
        h, w = self.padded_hw()
        h1, w1 = (h - 3) // 2 + 1, (w - 3) // 2 + 1
        return (h1 - 3) // 2 + 1, (w1 - 3) // 2 + 1

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
    """Named parameter tensors of one dtype in fixed insertion order, with
    frozen flags."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._tensors = {}
        self.frozen = set()

    def add(self, name, array, frozen=False):
        """Add a tensor holding ``array`` cast to the store's dtype."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter {name}")
        t = ad.Tensor(np.asarray(array, dtype=self.dtype), requires_grad=not frozen)
        self._tensors[name] = t
        if frozen:
            self.frozen.add(name)
        return t

    def __getitem__(self, name):
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def trainable_items(self):
        return [(n, t) for n, t in self._tensors.items() if n not in self.frozen]

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None


_DRAW_BLOCK = 1 << 15  # weights drawn per call, so each draw stays in cache


def _glorot(rng, fan_in, fan_out, dtype):
    """Glorot-uniform weights: the float64 stream of one draw, rounded to
    ``dtype``. Drawn in row blocks that are cast as they come."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty((fan_in, fan_out), dtype=dtype)
    rows = max(1, _DRAW_BLOCK // fan_out)
    for lo in range(0, fan_in, rows):
        w[lo : lo + rows] = rng.uniform(-s, s, size=(min(rows, fan_in - lo), fan_out))
    return w


def _add_linear(params, rng, name, d_in, d_out):
    params.add(f"{name}.w", _glorot(rng, d_in, d_out, params.dtype))
    params.add(f"{name}.b", np.zeros(d_out))


def _add_layer_norm(params, name, d):
    params.add(f"{name}.g", np.ones(d))
    params.add(f"{name}.b", np.zeros(d))


def _add_mha(params, rng, name, d_q, d_kv, d):
    _add_linear(params, rng, f"{name}.wq", d_q, d)
    # no key bias: a uniform shift of every key cancels inside the softmax
    params.add(f"{name}.wk.w", _glorot(rng, d_kv, d, params.dtype))
    _add_linear(params, rng, f"{name}.wv", d_kv, d)
    _add_linear(params, rng, f"{name}.wo", d, d)


FROZEN_ENCODER_SEED = 7041  # shared "pretrained" backbone across all runs


def init_params(cfg, seed=0):
    """Build every learnable tensor for the given configuration. Weights
    are drawn in float64 whatever the compute dtype and rounded once to it,
    so every dtype starts from the same weights."""
    rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(FROZEN_ENCODER_SEED)
    p = Params(cfg.dtype)
    c1, c2 = cfg.enc_channels
    pdim = cfg.point_dim

    p.add("enc.conv1.k", frozen_rng.normal(0, np.sqrt(2.0 / 9), (c1, 1, 3, 3)), frozen=True)
    p.add("enc.conv2.k", frozen_rng.normal(0, np.sqrt(2.0 / (c1 * 9)), (c2, c1, 3, 3)), frozen=True)
    p.add("prompt", np.zeros((1, cfg.n_prompt_params())))

    _add_linear(p, rng, "vis.fc1", cfg.flat_dim(), cfg.vis_hidden)
    _add_linear(p, rng, "vis.fc2", cfg.vis_hidden, cfg.d_obs)
    _add_linear(p, rng, "traj.fc1", pdim, cfg.traj_hidden)
    _add_linear(p, rng, "traj.fc2", cfg.traj_hidden, cfg.d_obs)

    for branch in ("enc_v", "enc_t"):
        for b in range(cfg.blocks):
            base = f"{branch}.{b}"
            _add_mha(p, rng, f"{base}.attn", cfg.d_obs, cfg.d_obs, cfg.d_obs)
            _add_layer_norm(p, f"{base}.ln1", cfg.d_obs)
            _add_linear(p, rng, f"{base}.mlp.fc1", cfg.d_obs, cfg.mlp_ratio * cfg.d_obs)
            _add_linear(p, rng, f"{base}.mlp.fc2", cfg.mlp_ratio * cfg.d_obs, cfg.d_obs)
            _add_layer_norm(p, f"{base}.ln2", cfg.d_obs)

    dz = cfg.d_z
    _add_linear(p, rng, "trans.h.fc1", 2 * cfg.d_obs, cfg.d_obs)
    _add_linear(p, rng, "trans.h.fc2", cfg.d_obs, dz)
    _add_layer_norm(p, "trans.h.ln", dz)
    _add_mha(p, rng, "trans.self", dz, dz, dz)
    _add_layer_norm(p, "trans.ln_wbar", 2 * dz)
    _add_mha(p, rng, "trans.cross", 2 * dz, dz, dz)
    _add_layer_norm(p, "trans.ln_what", 3 * dz)
    _add_linear(p, rng, "trans.inner.fc1", 3 * dz, dz)
    _add_linear(p, rng, "trans.inner.fc2", dz, dz)
    _add_linear(p, rng, "trans.outer.fc1", 4 * dz, 2 * dz)
    _add_linear(p, rng, "trans.outer.fc2", 2 * dz, dz)
    _add_layer_norm(p, "trans.ln_z", dz)
    p.add("trans.z0", rng.normal(0, 0.1, dz))

    _add_linear(p, rng, "emit.reembed", cfg.d_obs, cfg.d_obs)
    d_in = dz + cfg.d_obs
    _add_linear(p, rng, "emit.mean.fc1", d_in, cfg.head_hidden)
    _add_linear(p, rng, "emit.mean.fc2", cfg.head_hidden, pdim)
    _add_linear(p, rng, "emit.alpha.fc1", d_in, cfg.head_hidden)
    _add_linear(p, rng, "emit.alpha.fc2", cfg.head_hidden, 1)
    if pdim == 3:
        _add_linear(p, rng, "emit.beta.fc1", d_in, cfg.head_hidden)
        _add_linear(p, rng, "emit.beta.fc2", cfg.head_hidden, 1)
    _add_linear(p, rng, "vel.fc1", dz, cfg.head_hidden)
    _add_layer_norm(p, "vel.ln", cfg.head_hidden)
    _add_linear(p, rng, "vel.fc2", cfg.head_hidden, pdim)
    return p


# ---------------------------------------------------------------------------
# building blocks


@functools.lru_cache(maxsize=64)
def positional_encoding(horizon, d, dtype=np.float64):
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


def _mha(params, name, q_in, kv_in, heads, rows, key_mask):
    """Multi-head attention over packed rows: q_in and kv_in are (R,d) rows
    at the flat indices ``rows`` of the (N,T) grid of the additive
    (N,h,T,T) key_mask. Attention runs on that grid; the output is (R,d)."""
    n, _, t, _ = key_mask.shape
    q = ad.split_heads(_linear(params, f"{name}.wq", q_in), heads, rows, n, t)
    k = ad.split_heads(ad.matmul(kv_in, params[f"{name}.wk.w"]), heads, rows, n, t)
    v = ad.split_heads(_linear(params, f"{name}.wv", kv_in), heads, rows, n, t)
    dh = q.shape[-1]
    logits = ad.scale(ad.matmul(q, ad.swap_last2(k)), 1.0 / np.sqrt(dh))
    logits = ad.add(logits, ad.constant(key_mask))
    ctx = ad.merge_heads(ad.matmul(ad.softmax_lastdim(logits), v), rows)
    return _linear(params, f"{name}.wo", ctx)


def _key_mask(observed, heads, t_query, t_key, dtype=np.float64):
    """(N,h,Tq,Tk) additive mask in ``dtype``: 0 where key < per-sample
    observed count."""
    n = observed.shape[0]
    cols = np.arange(t_key)
    m = np.where(cols[None, :] < observed[:, None], 0.0, MASK_LOGIT).astype(dtype, copy=False)
    return np.broadcast_to(m[:, None, None, :], (n, heads, t_query, t_key)).copy()


def observed_cells(observed):
    """(sample, step) index arrays of every observed step, sample-major: the
    packed row layout of the encoders over the (N, max C) grid."""
    return np.nonzero(np.arange(observed.max()) < observed[:, None])


def encode_frames(params, cfg, frames):
    """Prompted frozen encoder plus learnable head: (...,H,W) grayscale
    frames -> (...,d_obs)."""
    frames = np.asarray(frames, dtype=cfg.dtype)
    h, w = cfg.frame_h, cfg.frame_w
    lead = frames.shape[:-2]
    if frames.shape[-2:] != (h, w):
        raise ad.ShapeError(f"frames {frames.shape[-2:]} do not match configured {(h, w)}")
    x = frozen_encoder(params, cfg, frames.reshape(-1, h, w))
    x = _mlp2(params, "vis", x)
    return ad.reshape(x, lead + (cfg.d_obs,))


def frozen_encoder(params, cfg, frames):
    """The prompted frozen backbone as one taped op: (R,H,W) frames ->
    (R, flat_dim) features, laid out as the taped composition
    ``embed_border -> conv2d -> tanh -> conv2d -> tanh -> reshape`` lays
    them out (channel-major per frame).

    Only the prompt learns, so the backward computes the prompt's gradient
    alone, through the conv outputs whose windows reach the border. A conv
    kernel that requires a gradient is refused rather than left without one.
    """
    for name in ("enc.conv1.k", "enc.conv2.k"):
        if params[name].requires_grad:
            raise ad.GraphError(f"frozen_encoder: {name} requires a gradient, but the "
                                "fused encoder computes only the prompt's")
    prompt = params["prompt"]
    enc = _FrameEncoder(params["enc.conv1.k"].data, params["enc.conv2.k"].data, prompt.data,
                        frames, cfg.prompt_width, save=ad.is_recording((prompt,)))
    return ad.custom(enc.out, (prompt,), enc.backward)


def _conv_tanh(x, k):
    """tanh of the 3x3, stride-2 valid convolution of channels-last x
    (N,H,W,C) with k (O,C,3,3), channels-last (N,OH,OW,O). It multiplies
    the im2col matrix of ``ad.conv2d``, patch rows in (c, di, dj) column
    order, by the same kernel matrix; the matrix is one gather through a
    cached index and is freed before the tanh, which runs in place."""
    n, h, w, c = x.shape
    oh, ow = (h - 3) // 2 + 1, (w - 3) // 2 + 1
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
    oh, ow = (h - 3) // 2 + 1, (w - 3) // 2 + 1
    d = np.arange(3)
    i = 2 * np.arange(oh)[:, None, None, None, None] + d[:, None]  # (oh, 1, 1, di, 1)
    j = 2 * np.arange(ow)[:, None, None, None] + d  # (ow, 1, 1, dj)
    idx = ((i * w + j) * c + np.arange(c)[:, None, None]).reshape(-1)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=16)
def _border_plan(hp, wp, pad, dtype):
    """The prompt's backward on an (hp, wp) padded frame, as index plans.

    Returns (border, b1, b2, col2im2, col2im1): the border mask; the flat
    indices of the conv1 outputs whose window reads a border pixel (b1) and
    of the conv2 outputs whose window reads one of those (b2); and the two
    col2im sums as sparse 0/1 matrices in ``dtype``. col2im2 maps conv2's
    patch rows (b2 row, tap) to b1 rows, and col2im1 maps conv1's patch
    rows (b1 row, tap) to the border pixels in prompt order; a tap is
    di * 3 + dj, the column order of ``ad.conv2d``'s kernel. The cached
    plan is shared by every caller and must not be modified.
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
        data = np.ones(len(cols), dtype=dtype)
        return sparse.csr_array((data, (target.reshape(-1)[cols], cols)),
                                shape=(np.count_nonzero(in_mask), target.size))

    m1 = reach(border)
    m2 = reach(m1)
    b1, b2 = np.flatnonzero(m1), np.flatnonzero(m2)
    for a in (border, b1, b2):
        a.setflags(write=False)
    return border, b1, b2, col2im(m2, m1), col2im(m1, border)


class _FrameEncoder:
    """Numpy forward and prompt-only backward of the frozen encoder.

    The forward builds the same im2col matrices as ``ad.conv2d`` and runs
    the same GEMMs on them, so its output is bit-identical to the taped
    composition; activations stay channels-last between the convolutions.
    The two tanh activations, at the b1 and b2 outputs only, are kept only
    when ``save`` is set (a tape will replay them). Every buffer has the
    dtype of the frames.
    """

    def __init__(self, k1, k2, prompt, frames, pad, save):
        n, h, w = frames.shape
        hp, wp = h + 2 * pad, w + 2 * pad
        self.plan = _border_plan(hp, wp, pad, frames.dtype)
        border = self.plan[0]
        self.k1, self.k2 = k1, k2
        xp = np.empty((n, hp, wp, 1), dtype=frames.dtype)
        xp[:, border, 0] = prompt[0]
        xp[:, pad : hp - pad, pad : wp - pad, 0] = frames
        a1 = _conv_tanh(xp, k1)
        del xp  # each large temporary is freed as soon as it is read
        a2 = _conv_tanh(a1, k2)
        a1, a2 = a1.reshape(n, -1, a1.shape[3]), a2.reshape(n, -1, a2.shape[3])
        self.out = np.ascontiguousarray(a2.transpose(0, 2, 1)).reshape(n, -1)
        if save:  # the backward reads only the outputs that reach the border
            _, b1, b2 = self.plan[:3]
            self.a1, self.a2 = np.take(a1, b1, axis=1), np.take(a2, b2, axis=1)
        self.prompt_shape = prompt.shape

    def backward(self, g):
        """The prompt's gradient, through the b2 and b1 outputs only.

        Rows are output positions and columns (channel, frame), so each
        col2im is one sparse product over every frame at once. The map from
        conv1 output to border pixel is linear and shared by every frame,
        so the frames are summed before it.
        """
        _, b1, b2, col2im2, col2im1 = self.plan
        n, _, c2 = self.a2.shape
        c1 = self.a1.shape[2]
        a2 = self.a2.transpose(1, 2, 0)  # (b2, c2, frame)
        dy2 = np.take(g.reshape(n, c2, -1), b2, axis=2).transpose(2, 1, 0) * (1.0 - a2 * a2)
        k2 = self.k2.reshape(c2, c1, 9).transpose(2, 1, 0).reshape(9 * c1, c2)
        dcols2 = k2 @ dy2  # (b2, tap x c1, frame)
        da1 = (col2im2 @ dcols2.reshape(len(b2) * 9, c1 * n)).reshape(len(b1), c1, n)
        dy1 = np.einsum("qcn,nqc->qc", da1, 1.0 - self.a1 * self.a1)  # summed over frames
        dcols1 = dy1 @ self.k1.reshape(c1, 9)
        return ((col2im1 @ dcols1.reshape(-1)).reshape(self.prompt_shape),)


def embed_points(params, cfg, points):
    """Two-layer MLP point embedding; accepts (.., point_dim) tensor or array."""
    x = points if isinstance(points, ad.Tensor) else ad.constant(np.asarray(points, dtype=cfg.dtype))
    if x.shape[-1] != cfg.point_dim:
        raise ad.ShapeError(f"points width {x.shape[-1]} != {cfg.point_dim}")
    return _mlp2(params, "traj", x)


def temporal_encode(params, cfg, x, observed, branch):
    """Stack of masked post-norm encoder blocks over one branch.

    x: (R,d_obs) packed embeddings, one row per observed step in the order
    of ``observed_cells`` (R = sum of C); observed: (N,) ints. Each row gets
    the sinusoidal position of its step. Every row-wise op runs on the R
    rows only; attention scatters them onto the (N, max C) grid, where keys
    past each sample's C are masked. Returns (R,d_obs).
    """
    samples, steps = observed_cells(observed)
    t = int(observed.max())
    rows = samples * t + steps
    u = ad.add(x, ad.constant(positional_encoding(t, x.shape[-1], cfg.dtype).take(steps, axis=0)))
    mask = _key_mask(observed, cfg.heads, t, t, cfg.dtype)
    for b in range(cfg.blocks):
        base = f"{branch}.{b}"
        attn = _mha(params, f"{base}.attn", u, u, cfg.heads, rows, mask)
        u = _layer_norm(params, f"{base}.ln1", ad.add(u, attn))
        m = _mlp2(params, f"{base}.mlp", u)
        u = _layer_norm(params, f"{base}.ln2", ad.add(u, m))
    return u


# Parameters of the fused transition, in the order of its gradients after h.
_TRANSITION_PARAMS = (
    "self.wq.w", "self.wq.b", "self.wk.w", "self.wv.w", "self.wv.b", "self.wo.w", "self.wo.b",
    "ln_wbar.g", "ln_wbar.b",
    "cross.wq.w", "cross.wq.b", "cross.wk.w", "cross.wv.w", "cross.wv.b", "cross.wo.w",
    "cross.wo.b", "ln_what.g", "ln_what.b",
    "inner.fc1.w", "inner.fc1.b", "inner.fc2.w", "inner.fc2.b",
    "outer.fc1.w", "outer.fc1.b", "outer.fc2.w", "outer.fc2.b",
    "ln_z.g", "ln_z.b", "z0",
)


def transition(params, cfg, h, observed, horizon):
    """Recursive latent rollout over the full horizon, as one taped op.

    h: (N,T_enc,d_z) encoded observations (keys masked to < observed);
    returns z: (N,horizon,d_z). Each step attends over its own latent
    history (seeded with the learnable initial latent) and over the
    observation encoding. The forward runs in numpy on a preallocated
    self-attention K/V cache; the backward is hand-written BPTT.
    """
    n, t_enc, dz = h.shape
    t = int(horizon)
    inputs = (h,) + tuple(params[f"trans.{k}"] for k in _TRANSITION_PARAMS)
    roll = _Rollout({k: params[f"trans.{k}"].data for k in _TRANSITION_PARAMS}, h.data,
                    _key_mask(observed, cfg.heads, 1, t_enc, cfg.dtype),
                    positional_encoding(t, dz, cfg.dtype),
                    cfg.heads, save=ad.is_recording(inputs))
    return ad.custom(roll.z, inputs, roll.backward)


def _split(x, heads):
    """(N,T,D) array -> (N,heads,T,D/heads), as ad.split_heads lays it out."""
    n, t, d = x.shape
    return np.ascontiguousarray(x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3))


def _merge(x):
    """(N,heads,T,dh) array -> (N,T,heads*dh)."""
    n, heads, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, t, heads * dh)


class _Rollout:
    """Numpy forward and hand-written backward of the transition.

    Every step mirrors the taped composition op for op, with the same
    (N,1,d) operand shapes, so the forward is bit-identical to it. Step i
    writes the self-attention key/value of its input latent z_i into slot
    i of (N,heads,T,dh) caches and attends over slots 0..i. Activations
    are kept per step only when ``save`` is set (a tape will replay them).
    Every buffer, forward and backward, has the dtype of h.
    """

    def __init__(self, w, h, hmask, pe, heads, save):
        n, _, dz = h.shape
        t = pe.shape[0]
        dh = dz // heads
        self.w, self.h, self.heads = w, h, heads
        self.scale = float(1.0 / np.sqrt(dh))
        self.kh = _split(h @ w["cross.wk.w"], heads)
        self.vh = _split(h @ w["cross.wv.w"] + w["cross.wv.b"], heads)
        self.k = np.empty((n, heads, t, dh), dtype=h.dtype)
        self.v = np.empty_like(self.k)
        self.z = np.empty((n, t, dz), dtype=h.dtype)
        self.saved = []
        z_prev = np.broadcast_to(w["z0"], (n, 1, dz)).copy()
        for i in range(t):
            self.k[:, :, i] = (z_prev @ w["self.wk.w"]).reshape(n, heads, dh)
            self.v[:, :, i] = (z_prev @ w["self.wv.w"] + w["self.wv.b"]).reshape(n, heads, dh)
            q = (z_prev @ w["self.wq.w"] + w["self.wq.b"]).reshape(n, heads, 1, dh)
            ps = ad.softmax_fwd((q @ np.swapaxes(self.k[:, :, : i + 1], -1, -2)) * self.scale)
            ctx = (ps @ self.v[:, :, : i + 1]).reshape(n, 1, dz)
            attn = ctx @ w["self.wo.w"] + w["self.wo.b"]
            wbar, xhat1, inv1 = ad.layer_norm_fwd(np.concatenate([z_prev, attn], axis=2),
                                                  w["ln_wbar.g"], w["ln_wbar.b"])
            qc = (wbar @ w["cross.wq.w"] + w["cross.wq.b"]).reshape(n, heads, 1, dh)
            pc = ad.softmax_fwd((qc @ np.swapaxes(self.kh, -1, -2)) * self.scale + hmask)
            ctxc = (pc @ self.vh).reshape(n, 1, dz)
            cproj = ctxc @ w["cross.wo.w"] + w["cross.wo.b"]
            what, xhat2, inv2 = ad.layer_norm_fwd(np.concatenate([wbar, cproj], axis=2),
                                                  w["ln_what.g"], w["ln_what.b"])
            a1 = np.tanh(what @ w["inner.fc1.w"] + w["inner.fc1.b"])
            u = np.concatenate([what, a1 @ w["inner.fc2.w"] + w["inner.fc2.b"]], axis=2)
            a2 = np.tanh(u @ w["outer.fc1.w"] + w["outer.fc1.b"])
            feats = a2 @ w["outer.fc2.w"] + w["outer.fc2.b"]
            z_next, xhat3, inv3 = ad.layer_norm_fwd(feats + pe[i], w["ln_z.g"], w["ln_z.b"])
            if save:
                self.saved.append(dict(zin=z_prev, q=q, ps=ps, ctx=ctx, xhat1=xhat1, inv1=inv1,
                                       wbar=wbar, qc=qc, pc=pc, ctxc=ctxc, xhat2=xhat2,
                                       inv2=inv2, u=u, a1=a1, a2=a2, xhat3=xhat3, inv3=inv3))
            self.z[:, i] = z_next[:, 0]
            z_prev = z_next

    def backward(self, g):
        """BPTT over the saved steps: gradients of h, then of each parameter
        in _TRANSITION_PARAMS order.

        Rows are (N,d) here: the backward has no bit-identity to keep, and
        2-D products are the cheaper ones. Weight gradients accumulate step
        by step while the step's activations are still in cache; bias and
        layer-norm terms accumulate per sample and are summed once.
        """
        w, heads, scale = self.w, self.heads, self.scale
        n, t, dz = self.z.shape
        dh = dz // heads
        wqkv = np.concatenate([w["self.wq.w"], w["self.wk.w"], w["self.wv.w"]], axis=1)
        grads = {k: np.zeros_like(w[k]) for k in _TRANSITION_PARAMS if k.endswith(".w")}
        grads["self.wqkv.w"] = np.zeros_like(wqkv)
        dtype = self.z.dtype
        rows = {k: np.zeros((n, w[k].shape[-1]), dtype=dtype) for k in _TRANSITION_PARAMS
                if k.endswith((".b", ".g"))}
        rows["self.wqkv.b"] = np.zeros((n, 3 * dz), dtype=dtype)
        # Attention terms of every step, so that each key/value gradient is
        # one product over the steps that read it: row i holds step i's
        # weights, query, d(logits) and d(context); self-attention rows are
        # zero past slot i.
        ps = np.zeros((n, heads, t, t), dtype=dtype)
        q = np.empty((n, heads, t, dh), dtype=dtype)
        for i, f in enumerate(self.saved):
            ps[:, :, i, : i + 1] = f["ps"][:, :, 0]
            q[:, :, i] = f["q"][:, :, 0]
        dlog = np.zeros_like(ps)
        dctx = np.empty_like(q)
        pc = np.concatenate([f["pc"] for f in self.saved], axis=2)
        qc = np.concatenate([f["qc"] for f in self.saved], axis=2)
        dlogc = np.empty_like(pc)
        dctxc = np.empty_like(q)

        def linear(name, x, dy):
            grads[f"{name}.w"] += x.T @ dy
            rows[f"{name}.b"] += dy

        def norm(name, xhat, dy):
            rows[f"{name}.g"] += dy * xhat
            rows[f"{name}.b"] += dy

        dz_ = 0.0  # gradient of z_{i+1} from step i+1: residual, query, cache slot
        for i in reversed(range(t)):
            f = self.saved[i]
            dout = g[:, i] + dz_
            xhat3 = f["xhat3"][:, 0]
            norm("ln_z", xhat3, dout)
            dfeats = ad.layer_norm_bwd(dout, w["ln_z.g"], xhat3, f["inv3"][:, 0])
            a2, a1, u = f["a2"][:, 0], f["a1"][:, 0], f["u"][:, 0]
            linear("outer.fc2", a2, dfeats)
            da2 = (dfeats @ w["outer.fc2.w"].T) * (1.0 - a2 * a2)
            linear("outer.fc1", u, da2)
            du = da2 @ w["outer.fc1.w"].T
            dinner = du[:, 3 * dz :]
            linear("inner.fc2", a1, dinner)
            da1 = (dinner @ w["inner.fc2.w"].T) * (1.0 - a1 * a1)
            linear("inner.fc1", u[:, : 3 * dz], da1)
            dwhat = du[:, : 3 * dz] + da1 @ w["inner.fc1.w"].T
            xhat2 = f["xhat2"][:, 0]
            norm("ln_what", xhat2, dwhat)
            dcat2 = ad.layer_norm_bwd(dwhat, w["ln_what.g"], xhat2, f["inv2"][:, 0])
            dcproj = dcat2[:, 2 * dz :]
            linear("cross.wo", f["ctxc"][:, 0], dcproj)
            dctxc[:, :, i] = (dcproj @ w["cross.wo.w"].T).reshape(n, heads, dh)
            dlogc[:, :, i] = ad.softmax_bwd(dctxc[:, :, i, None] @ np.swapaxes(self.vh, -1, -2),
                                            f["pc"])[:, :, 0] * scale
            dqc = (dlogc[:, :, i, None] @ self.kh).reshape(n, dz)
            linear("cross.wq", f["wbar"][:, 0], dqc)
            dwbar = dcat2[:, : 2 * dz] + dqc @ w["cross.wq.w"].T
            xhat1 = f["xhat1"][:, 0]
            norm("ln_wbar", xhat1, dwbar)
            dcat1 = ad.layer_norm_bwd(dwbar, w["ln_wbar.g"], xhat1, f["inv1"][:, 0])
            dattn = dcat1[:, dz:]
            linear("self.wo", f["ctx"][:, 0], dattn)
            dctx[:, :, i] = (dattn @ w["self.wo.w"].T).reshape(n, heads, dh)
            v_t = np.swapaxes(self.v[:, :, : i + 1], -1, -2)
            dlog_i = ad.softmax_bwd(dctx[:, :, i, None] @ v_t, f["ps"]) * scale
            dlog[:, :, i, : i + 1] = dlog_i[:, :, 0]
            # slot i (holding z_i) is complete: its readers are steps i..t-1
            dk = np.swapaxes(dlog[:, :, i:, i, None], -1, -2) @ q[:, :, i:]
            dv = np.swapaxes(ps[:, :, i:, i, None], -1, -2) @ dctx[:, :, i:]
            dqkv = np.concatenate([(dlog_i @ self.k[:, :, : i + 1]).reshape(n, dz),
                                   dk.reshape(n, dz), dv.reshape(n, dz)], axis=1)
            linear("self.wqkv", f["zin"][:, 0], dqkv)
            dz_ = dcat1[:, :dz] + dqkv @ wqkv.T

        dkh = _merge(np.swapaxes(dlogc, -1, -2) @ qc).reshape(-1, dz)
        dvh = _merge(np.swapaxes(pc, -1, -2) @ dctxc).reshape(-1, dz)
        h = self.h.reshape(-1, dz)
        grads["cross.wk.w"] += h.T @ dkh
        grads["cross.wv.w"] += h.T @ dvh
        rows["cross.wv.b"] = dvh
        for k, name in enumerate(("self.wq", "self.wk", "self.wv")):
            grads[f"{name}.w"] = grads["self.wqkv.w"][:, k * dz : (k + 1) * dz]
            rows[f"{name}.b"] = rows["self.wqkv.b"][:, k * dz : (k + 1) * dz]
        grads.update((k, v.sum(axis=0)) for k, v in rows.items())
        grads["z0"] = dz_.sum(axis=0)
        dh_in = (dkh @ w["cross.wk.w"].T + dvh @ w["cross.wv.w"].T).reshape(self.h.shape)
        return (dh_in,) + tuple(grads[k] for k in _TRANSITION_PARAMS)


def _emission_params(cfg):
    """Parameters of the fused emission, in the order of its gradients after
    z and o_t: the heads' two layers, then the re-embedding of the previous
    mean (``embed_points`` followed by ``emit.reembed``)."""
    heads = ("mean", "alpha", "beta") if cfg.point_dim == 3 else ("mean", "alpha")
    return tuple(f"emit.{h}.{fc}.{k}" for h in heads for fc in ("fc1", "fc2") for k in "wb") + (
        "emit.reembed.w", "emit.reembed.b", "traj.fc1.w", "traj.fc1.b", "traj.fc2.w", "traj.fc2.b")


def emit(params, cfg, z, o_t, observed):
    """Probabilistic emission over the whole horizon, as one taped op.

    z: (N,T,d_z) latents; o_t: (N,max C,d_obs) trajectory-encoder features,
    zero past each sample's C; observed: (N,) ints. Step i reads z_i and a
    previous-trajectory feature: zero at step 0, the encoder feature of
    step i-1 through step C, and after that the previous predicted mean,
    re-embedded by ``embed_points`` and ``emit.reembed``. Returns mean
    (N,T,point_dim) under tanh and alpha, beta (N,T,1) under softplus; beta
    is None in 2d mode. The forward runs in numpy; the backward is
    hand-written BPTT through the previous-mean recurrence.
    """
    names = _emission_params(cfg)
    inputs = (z, o_t) + tuple(params[k] for k in names)
    em = _Emission({k: params[k].data for k in names}, z.data, o_t.data,
                   np.asarray(observed), save=ad.is_recording(inputs))
    out = ad.custom(em.out, inputs, em.backward)
    pd = cfg.point_dim
    beta = ad.slice_axis(out, 2, pd + 1, pd + 2) if pd == 3 else None
    return ad.slice_axis(out, 2, 0, pd), ad.slice_axis(out, 2, pd, pd + 1), beta


class _Emission:
    """Numpy forward and hand-written backward of the emission.

    The forward mirrors the taped composition op for op: steps 0..min C
    run as one (N, min C + 1, d) block, since every sample reads encoder
    features there, and each later step runs on (N,1,d) operands, so the
    output is bit-identical to it. ``out`` packs mean, alpha and beta
    (N,T,point_dim+2; +1 without beta). Activations are kept per step only
    when ``save`` is set (a tape will replay them); the backward stacks
    them over the horizon. Every buffer, forward and backward, has the
    dtype of z.
    """

    def __init__(self, w, z, o, observed, save):
        n, t, dz = z.shape
        d = o.shape[2]
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
        """BPTT over the saved steps: gradients of z, o_t, then of each
        parameter in _emission_params order.

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
        dz = d_in - act["e2"].shape[2]
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
        dre = np.empty((n, t - m0 - 1, d_in - dz), dtype=mean.dtype)
        d1 = np.empty_like(e1_act)
        t_enc = len(self.sel)
        keep_re = 1.0 - self.sel
        do = np.zeros((n, t_enc, d_in - dz), dtype=mean.dtype)
        carry = 0.0  # gradient of mean_i from step i+1's re-embedding
        for i in range(t - 1, m0, -1):
            j = i - m0 - 1
            dpm[:, i] = (g[:, i, :pd] + carry) * dmean_act[:, i]
            dhm[:, i] = (dpm[:, i] @ w2m_t) * dhm_act[:, i]
            dfeat = dinp[:, i, dz:] + dhm[:, i] @ w1m_feat_t
            if i <= t_enc:
                do[:, i - 1] = dfeat * self.sel[i - 1]
                dfeat = dfeat * keep_re[i - 1]
            dre[:, j] = dfeat
            d1[:, j] = (dfeat @ re_t) * e1_act[:, j]
            carry = d1[:, j] @ w1t_t
        dpm[:, : m0 + 1] = g[:, : m0 + 1, :pd] * dmean_act[:, : m0 + 1]
        dpm[:, m0] += carry * dmean_act[:, m0]
        dhm[:, : m0 + 1] = (dpm[:, : m0 + 1] @ w2m_t) * dhm_act[:, : m0 + 1]
        dinp += (rows(dhm) @ w["emit.mean.fc1.w"].T).reshape(n, t, d_in)
        do[:, :m0] = dinp[:, 1 : m0 + 1, dz:]

        grads = {}

        def linear(name, x, dy):
            grads[f"{name}.w"] = rows(x).T @ rows(dy)
            grads[f"{name}.b"] = rows(dy).sum(axis=0)

        linear("emit.mean.fc2", hm, dpm)
        linear("emit.mean.fc1", act["inp"], dhm)
        for h in heads[1:]:
            linear(f"emit.{h}.fc2", act[h], dpre[h])
            linear(f"emit.{h}.fc1", act["inp"], dhid[h])
        linear("emit.reembed", act["e2"], dre)
        linear("traj.fc2", act["e1"], rows(dre) @ w["emit.reembed.w"].T)
        linear("traj.fc1", mean[:, m0 : t - 1], d1)
        return (dinp[..., :dz], do) + tuple(grads[k] for k in w)


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
    rows. The transition and the emission then run once each over the
    whole horizon. Returns dict of graph tensors: mean (N,T,pd),
    alpha/beta (N,T,1), beta None in 2d mode, velocity (N,T,pd).
    """
    frames = np.asarray(frames, dtype=cfg.dtype)
    points = np.asarray(points, dtype=cfg.dtype)
    observed = np.asarray(observed, dtype=np.int64)
    n, t = points.shape[:2]
    if np.any(observed < 1) or np.any(observed >= (lengths if lengths is not None else t)):
        raise ValueError("observed counts must satisfy 1 <= C < T")

    # The encoders see only observed steps, packed into one row each
    # (R = sum of C rows, sample-major); inputs past each sample's C are
    # never read. Their outputs are scattered onto the (N, max C) grid,
    # zero past C, for the transition and the emission, which mask those
    # cells out (attention keys) or select around them.
    t_enc = int(observed.max())
    samples, steps = observed_cells(observed)
    rows = samples * t_enc + steps

    def observed_rows(a):  # (N,T,...) -> (R,...), a view when every cell is observed
        if len(rows) == n * t_enc:
            return a[:, :t_enc].reshape((len(rows),) + a.shape[2:])
        return a[samples, steps]

    o_v = temporal_encode(params, cfg, encode_frames(params, cfg, observed_rows(frames)),
                          observed, "enc_v")
    o_t = temporal_encode(params, cfg, embed_points(params, cfg, observed_rows(points)),
                          observed, "enc_t")

    o = ad.concat([o_v, o_t], axis=1)
    pe_z = positional_encoding(t, cfg.d_z, cfg.dtype).take(steps, axis=0)
    h = _layer_norm(params, "trans.h.ln", ad.add(_mlp2(params, "trans.h", o), ad.constant(pe_z)))

    z = transition(params, cfg, ad.scatter_rows(h, rows, n, t_enc), observed, horizon=t)
    mean, alpha, beta = emit(params, cfg, z, ad.scatter_rows(o_t, rows, n, t_enc), observed)
    return {"mean": mean, "alpha": alpha, "beta": beta,
            "velocity": velocity_head(params, cfg, z)}


def forecast(params, cfg, frames, points, observed_count):
    """Single-sample inference. frames (T,H,W), points (T,point_dim)
    with at least the first C entries filled; returns a ForecastOutput
    covering the sample's full horizon."""
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
    """Write <path>.bin (flat doubles, whatever the compute dtype) and
    <path>.json (manifest). Tensors are written one by one, so at most one
    tensor's float64 copy is held."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    manifest, offset = [], 0
    with open(base.with_suffix(".bin"), "wb") as f:
        for name, t in params.items():
            flat = np.ascontiguousarray(t.data, dtype=np.float64).reshape(-1)
            manifest.append({"name": name, "offset": offset, "shape": list(t.data.shape),
                             "frozen": name in params.frozen})
            f.write(flat)
            offset += flat.size
    doc = {"config": asdict(cfg), "params": manifest, "extra": extra or {}}
    with open(base.with_suffix(".json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (params, cfg, extra), the params in the
    config's compute dtype."""
    base = Path(path)
    with open(base.with_suffix(".json")) as f:
        doc = json.load(f)
    cfg = ModelConfig(**doc["config"])
    raw = np.frombuffer(open(base.with_suffix(".bin"), "rb").read(), dtype=np.float64)
    params = Params(cfg.dtype)
    for entry in doc["params"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        data = np.array(raw[entry["offset"] : entry["offset"] + size].reshape(entry["shape"]),
                        dtype=cfg.dtype)
        params.add(entry["name"], data, frozen=entry["frozen"])
    return params, cfg, doc.get("extra", {})
