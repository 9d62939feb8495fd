"""Dense tensors with define-by-run reverse-mode differentiation, one
dtype per graph.

The engine is deliberately small: a ``Tensor`` wraps a contiguous numpy
array, every operation records itself on the active ``Graph`` (a tape),
and ``Graph.backward`` replays the tape once in reverse. Graphs are
rebuilt on every forward pass, which keeps recursive loops (the state
transition, the autoregressive emission) trivially correct.

A graph computes in one floating dtype, float32 or float64. Every tensor
input of an op must have the same dtype, and the op's output and every
gradient it passes back have it too; a mismatch raises ``DTypeError``
rather than promoting a float32 graph to float64.

Besides the built-in ops, ``custom(out_data, inputs, backward)`` records
an op whose forward the caller has already run in numpy and whose
backward it writes by hand: ``backward(g)`` returns one gradient (or None)
per input, and the engine validates and accumulates them without a copy.
So a backward hands over arrays it does not keep: fresh ones, or views of
fresh ones, sharing memory with no other entry. A long recurrence fused
this way costs one tape record instead of dozens per step. Callers use
``is_recording(inputs)`` to save activations for the backward only when a
tape will replay it. The numpy kernels of softmax (in place) and layer
norm, and the row moves to and from the padded grid (``unpack_rows``,
``pack_rows``), are public so fused ops compute them exactly as the taped
ops do; layer norm's epsilon is one constant, ``LAYER_NORM_EPS``, for
both.

Ragged batches keep one packed row per real step, so row-wise ops skip
padding. ``unpack_rows`` lays rows on the padded (N, T) grid and
``pack_rows`` takes them back; both always return a new array, so a row
move never aliases its input. The fused ops use them inside their numpy
forward and backward, so no taped op moves rows to the grid.

The model runs its frame encoder, temporal encoders, transition and
emission as fused ops. ``conv2d``, ``embed_border``, ``split_heads``,
``merge_heads``, ``softmax_lastdim``, ``transpose`` and ``concat`` now
serve only the taped references of those ops in the tests and the
benchmark's tracer, which wraps them by name.

A graph and its tensors belong to one thread; weight tensors may be
shared read-only across threads running independent graphs. A fused op
may run part of its numpy work on a helper thread, forward or backward,
as the temporal encoders do; the helper reads and writes arrays only and
never touches the tape, so ``is_recording`` is asked on the op's own
thread. The optimizer, which runs after the tape is done, may do the
same with the gradients it reads: ``trainer.Adam.step`` updates one half
of the parameters on a helper thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

_POINTWISE_KINDS = ("tanh", "neg-exp")
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root

_state = threading.local()


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Backward called on an invalid target or outside a graph."""


class DTypeError(TypeError):
    """Operands of one op, or an op and its output, differ in dtype."""


_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _tape():
    return getattr(_state, "tape", None)


class Tensor:
    """A dense float32 or float64 array plus an optional gradient
    accumulator of the same dtype. Data of any other dtype becomes float64."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def grad_or_zeros(self):
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data):
    return Tensor(data, requires_grad=False)


class Graph:
    """Tape of op records; execution order is a topological order.

    Entering the graph makes it the thread's active tape. ``backward``
    replays the records once, in reverse, accumulating gradients in a
    fixed order so repeated passes are bit-identical.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        if _tape() is not None:
            raise GraphError("a graph is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def backward(self, loss):
        if loss.data.size != 1:
            raise GraphError(f"backward target must be scalar, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise GraphError("backward target does not depend on any gradient-requiring tensor")
        loss.grad = np.ones_like(loss.data)
        for out, _inputs, bwd in reversed(self._records):
            if out.grad is not None:
                bwd(out.grad)

    def __len__(self):
        return len(self._records)


def _accum(t, g):
    """Accumulate a gradient the caller may still alias (copies on first use)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _accum_new(t, g):
    """Accumulate a freshly-allocated gradient the caller hands over."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def is_recording(inputs):
    """True when an op over ``inputs`` would be recorded on the active tape."""
    return _tape() is not None and any(t.requires_grad for t in inputs)


def _record(out_data, inputs, bwd):
    out = Tensor(out_data)
    dtype = out.data.dtype
    for t in inputs:
        if t.data.dtype != dtype:
            raise DTypeError(f"op mixes dtypes: a {t.data.dtype} input, a {dtype} output")
    if is_recording(inputs):
        out.requires_grad = True
        _tape()._records.append((out, inputs, bwd))
    return out


def custom(out_data, inputs, backward):
    """Record a caller-computed op as one tape entry.

    ``out_data`` is the op's output array, already computed from the
    ``inputs`` tensors. ``backward(g)`` receives the output gradient and
    returns one entry per input: a gradient array of that input's shape
    and dtype, or None for no contribution. ``out_data`` must have the
    inputs' dtype. The engine checks the count, shapes and dtypes,
    skips None entries and inputs that need no gradient, and accumulates
    the rest without a copy: an input's first gradient becomes its
    ``grad``, and later ones add into it. So each entry must be an array
    the backward does not keep, fresh or a view of a fresh one, that
    shares no memory with another entry, ``g`` or a saved activation.
    ``backward`` runs at most once per ``Graph.backward`` and only when the
    output received a gradient.
    """
    inputs = tuple(inputs)

    def bwd(g):
        grads = tuple(backward(g))
        if len(grads) != len(inputs):
            raise GraphError(f"custom: backward returned {len(grads)} gradients for {len(inputs)} inputs")
        for t, gt in zip(inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            if gt.shape != t.data.shape:
                raise ShapeError(f"custom: gradient {gt.shape} does not match input {t.data.shape}")
            if gt.dtype != t.data.dtype:
                raise DTypeError(f"custom: gradient {gt.dtype} does not match input {t.data.dtype}")
            _accum_new(t, gt)

    return _record(out_data, inputs, bwd)


def _reduce_to_shape(g, shape):
    """Sum a gradient over dimensions that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b):
    _check_same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _record(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bwd(g):
        _accum(a, g)
        _accum_new(b, -g)

    return _record(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_same_shape(a, b, "mul")

    def bwd(g):
        _accum_new(a, g * b.data)
        _accum_new(b, g * a.data)

    return _record(a.data * b.data, (a, b), bwd)


def scale(a, s):
    s = float(s)

    def bwd(g):
        _accum_new(a, g * s)

    return _record(a.data * s, (a,), bwd)


def add_bias(x, b):
    """x + b with b broadcast over all leading axes (b.shape == x.shape[-1:])."""
    if b.data.ndim != 1 or b.data.shape[0] != x.data.shape[-1]:
        raise ShapeError(f"add_bias: bias {b.data.shape} does not match last axis of {x.data.shape}")

    def bwd(g):
        _accum(x, g)
        _accum_new(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _record(x.data + b.data, (x, b), bwd)


def matmul(a, b):
    """Matrix product with numpy batch semantics on leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul: operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner extents {a.data.shape} x {b.data.shape} do not match")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accum_new(a, np.ascontiguousarray(_reduce_to_shape(ga, a.data.shape)))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accum_new(b, np.ascontiguousarray(_reduce_to_shape(gb, b.data.shape)))

    return _record(out_data, (a, b), bwd)


def affine(x, w, b):
    """x @ w + b in one op; w is 2-D (d_in, d_out), b is (d_out,)."""
    if w.data.ndim != 2 or b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine: bad weight/bias shapes {w.data.shape}, {b.data.shape}")
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"affine: inner extents {x.data.shape} x {w.data.shape} do not match")
    out_data = x.data @ w.data + b.data

    def bwd(g):
        if x.requires_grad:
            _accum_new(x, g @ w.data.T)
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            _accum_new(w, x.data.reshape(-1, x.data.shape[-1]).T @ g2)
        if b.requires_grad:
            _accum_new(b, g2.sum(axis=0))

    return _record(out_data, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    old = a.data.shape

    def bwd(g):
        _accum(a, g.reshape(old))

    return _record(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes):
    axes = tuple(int(ax) for ax in axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _record(a.data.transpose(axes), (a,), bwd)


def unpack_rows(a, rows, shape):
    """(R, D) rows -> a new array of ``shape`` (n, t, ...) holding row r at
    flat grid index rows[r] and zero where no row lands."""
    out = np.zeros((shape[0] * shape[1], a.shape[1]), dtype=a.dtype)
    out[rows] = a
    return out.reshape(shape)


def pack_rows(a, rows):
    """(n, t, ...) -> a new (R, D) array of the rows at flat grid indices
    ``rows``; the inverse of ``unpack_rows``."""
    return a.reshape(a.shape[0] * a.shape[1], -1)[rows]


def split_heads(x, heads, rows, n, t):
    """Packed rows (R, D) -> (n, heads, t, D/heads) in one op, laying row r
    at flat grid index rows[r] as ``unpack_rows`` does (zero at cells no
    row fills)."""
    _, d = x.data.shape
    if d % heads:
        raise ShapeError(f"split_heads: {d} not divisible by {heads}")
    dh = d // heads
    grid = unpack_rows(x.data, rows, (n, t, heads, dh))
    out = np.ascontiguousarray(grid.transpose(0, 2, 1, 3))

    def bwd(g):
        _accum_new(x, pack_rows(np.ascontiguousarray(g.transpose(0, 2, 1, 3)), rows))

    return _record(out, (x,), bwd)


def merge_heads(x, rows):
    """(N, heads, T, dh) -> packed rows (R, heads*dh) in one op: the inverse of
    ``split_heads``, keeping only the grid cells listed in ``rows``."""
    n, h, t, dh = x.data.shape
    out = pack_rows(np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)), rows)

    def bwd(g):
        grid = unpack_rows(g, rows, (n, t, h, dh))
        _accum_new(x, np.ascontiguousarray(grid.transpose(0, 2, 1, 3)))

    return _record(out, (x,), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    axis = int(axis) % tensors[0].data.ndim
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != axis):
            raise ShapeError(f"concat: non-concat extents differ: {ref} vs {s}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def slice_axis(a, axis, start, stop):
    axis = int(axis)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum_new(a, full)

    return _record(a.data[idx].copy(), (a,), bwd)


def reduce_sum(a, axis=None, keepdims=False):
    if axis is None:
        axes = tuple(range(a.data.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.data.ndim,)
    else:
        axes = tuple(ax % a.data.ndim for ax in axis)
    kept = a.data.sum(axis=axes, keepdims=True)
    out_data = kept if keepdims else kept.reshape(
        [n for i, n in enumerate(a.data.shape) if i not in axes]
    )
    kept_shape = kept.shape

    def bwd(g):
        _accum(a, np.broadcast_to(g.reshape(kept_shape), a.data.shape))

    return _record(out_data, (a,), bwd)


def mean(a):
    """The mean of every element, as a scalar tensor."""
    return scale(reduce_sum(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# numpy kernels, shared by the taped ops below and by custom ops


def softmax_fwd(x):
    """Row-wise softmax of an array over its last axis, max-subtracted, in
    place: x is overwritten and returned."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_bwd(g, s):
    """Input gradient of softmax_fwd, given its output s."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def layer_norm_fwd(x, gain, bias):
    """Layer norm of an array over its last axis; returns (out, xhat, inv)
    where xhat is the standardized input and inv the per-row 1/std."""
    d = x.shape[-1]  # sum / d is bit-identical to mean and cheaper to dispatch
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_bwd(g, gain, xhat, inv):
    """Input gradient of layer_norm_fwd from its saved xhat and inv."""
    gx = g * gain
    d = g.shape[-1]
    m1 = gx.sum(axis=-1, keepdims=True) / d
    m2 = (gx * xhat).sum(axis=-1, keepdims=True) / d
    return inv * (gx - m1 - xhat * m2)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax_lastdim(x):
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    if x.data.shape[-1] < 1:
        raise ShapeError("softmax_lastdim: last extent must be >= 1")
    s = softmax_fwd(x.data.copy())

    def bwd(g):
        _accum_new(x, softmax_bwd(g, s))

    return _record(s, (x,), bwd)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the last axis")
    out, xhat, inv = layer_norm_fwd(x.data, gain.data, bias.data)

    def bwd(g):
        lead = g.reshape(-1, d)
        if gain.requires_grad:
            _accum_new(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum_new(bias, lead.sum(axis=0))
        if x.requires_grad:
            _accum_new(x, layer_norm_bwd(g, gain.data, xhat, inv))

    return _record(out, (x, gain, bias), bwd)


def pointwise(x, kind):
    """Elementwise map; one of tanh | neg-exp."""
    if kind == "tanh":
        out = np.tanh(x.data)
        dfn = lambda: 1.0 - out * out
    elif kind == "neg-exp":
        out = np.exp(-x.data)
        dfn = lambda: -out
    else:
        raise ValueError(f"pointwise: unknown kind {kind!r}, expected one of {_POINTWISE_KINDS}")

    def bwd(g):
        _accum_new(x, g * dfn())

    return _record(out, (x,), bwd)


def tanh(x):
    return pointwise(x, "tanh")


def neg_exp(x):
    return pointwise(x, "neg-exp")


def huber(x, delta):
    """Elementwise Huber penalty: 0.5 x^2 inside |x| <= delta, linear outside."""
    if delta <= 0:
        raise ValueError("huber: delta must be > 0")
    a = np.abs(x.data)
    out = np.where(a <= delta, 0.5 * x.data * x.data, delta * (a - 0.5 * delta))

    def bwd(g):
        _accum_new(x, g * np.clip(x.data, -delta, delta))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# structured ops for the frame encoder


def conv2d(x, k, stride):
    """Valid-padding strided convolution; x: (N,C,H,W), k: (O,C,kh,kw).

    Implemented as im2col plus one matrix product so desk-scale batches
    spend their time in BLAS rather than op dispatch.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("conv2d: x must be (N,C,H,W) and k (O,C,kh,kw)")
    n, c, h, w = x.data.shape
    o, ck, kh, kw = k.data.shape
    if ck != c:
        raise ShapeError(f"conv2d: channel mismatch {c} vs {ck}")
    stride = int(stride)
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError("conv2d: kernel larger than input")

    cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.data.dtype)
    for di in range(kh):
        for dj in range(kw):
            patch = x.data[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
            cols[:, :, :, :, di, dj] = patch.transpose(0, 2, 3, 1)
    cols2 = cols.reshape(n * oh * ow, c * kh * kw)
    kmat = k.data.reshape(o, c * kh * kw).T
    out = (cols2 @ kmat).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)

    def bwd(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, o)
        if x.requires_grad:
            dcols = (g2 @ kmat.T).reshape(n, oh, ow, c, kh, kw)
            gx = np.zeros_like(x.data)
            for di in range(kh):
                for dj in range(kw):
                    gx[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride] += (
                        dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
                    )
            _accum_new(x, gx)
        if k.requires_grad:
            _accum_new(k, (g2.T @ cols2).reshape(o, c, kh, kw))

    return _record(out, (x, k), bwd)


def embed_border(frames, prompt, pad):
    """Pad frames with a learnable pixel border.

    frames: (N,C,H,W); prompt: (C, n_border) with
    n_border = (H+2*pad)*(W+2*pad) - H*W. The same border values are
    shared by every frame in the batch; their gradient sums over it.
    """
    pad = int(pad)
    if pad == 0:
        def bwd0(g):
            _accum(frames, g)

        return _record(frames.data.copy(), (frames, prompt), bwd0)
    n, c, h, w = frames.data.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    n_border = hp * wp - h * w
    if prompt.data.shape != (c, n_border):
        raise ShapeError(f"embed_border: prompt must be ({c}, {n_border}), got {prompt.data.shape}")
    border = np.ones((hp, wp), dtype=bool)
    border[pad:-pad, pad:-pad] = False
    out = np.empty((n, c, hp, wp), dtype=frames.data.dtype)
    out[:, :, border] = prompt.data
    out[:, :, pad:-pad, pad:-pad] = frames.data

    def bwd(g):
        _accum(frames, g[:, :, pad:-pad, pad:-pad])
        _accum_new(prompt, g[:, :, border].sum(axis=0))

    return _record(out, (frames, prompt), bwd)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckEntry:
    """An input's worst analytic vs central-difference relative gradient error."""

    name: str
    max_rel_err: float
    n_checked: int
    passed: bool


def check_gradients(build, inputs, step=1e-6, tolerance=1e-5, max_checks_per_tensor=None, seed=0):
    """Compare reverse-mode gradients of ``build()`` against central differences.

    ``build`` constructs and returns the scalar loss from the given input
    tensors; it is re-run for every finite-difference probe. ``inputs``
    maps name -> Tensor, each float64: central differences at float32
    precision measure rounding, not the gradient. When
    ``max_checks_per_tensor`` is set (>= 1), a seeded subsample of
    coordinates is probed in each tensor; otherwise all. Returns one
    ``GradCheckEntry`` per input, in input order.
    """
    if step <= 0:
        raise ValueError("check_gradients: step must be > 0")
    if max_checks_per_tensor is not None and max_checks_per_tensor < 1:
        raise ValueError("check_gradients: max_checks_per_tensor must be >= 1")
    items = list(inputs.items())
    for name, t in items:
        if t.data.dtype != np.float64:
            raise DTypeError(f"check_gradients: input {name!r} is {t.data.dtype}, not float64")
    with Graph() as g:
        loss = build()
        if loss.requires_grad:
            g.backward(loss)
    grads = {name: t.grad_or_zeros().copy() for name, t in items}
    for _, t in items:
        t.grad = None

    rng = np.random.default_rng(seed)
    entries = []
    for name, t in items:
        n = t.data.size
        if max_checks_per_tensor is not None and n > max_checks_per_tensor:
            idx = np.sort(rng.choice(n, size=max_checks_per_tensor, replace=False))
        else:
            idx = np.arange(n)
        g_ad = grads[name].reshape(-1)
        worst = 0.0
        for i in idx:
            at = np.unravel_index(i, t.data.shape)
            orig = t.data[at]
            t.data[at] = orig + step
            f_plus = float(build().data.reshape(()))
            t.data[at] = orig - step
            f_minus = float(build().data.reshape(()))
            t.data[at] = orig
            g_fd = (f_plus - f_minus) / (2.0 * step)
            rel = abs(g_ad[i] - g_fd) / max(1e-8, abs(g_ad[i]) + abs(g_fd))
            worst = max(worst, rel)
        entries.append(GradCheckEntry(name, worst, len(idx), worst <= tolerance))
    return entries
