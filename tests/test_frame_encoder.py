"""The fused visual branch against its taped composition.

``reference_encoder`` builds the prompted backbone from taped primitives,
``embed_border -> conv2d -> tanh -> conv2d -> tanh -> reshape``, and
``reference_encode_frames`` adds the ``vis`` MLP as taped ``affine``,
``tanh`` and ``affine`` ops. ``model._Visual``'s features must reproduce
the backbone's forward bit for bit. The fused ``model.encode_frames`` must
reproduce the whole forward and the ``vis`` gradients bit for bit, and the
prompt gradient within rtol 1e-9 / atol 1e-12 in float64; in float32 the
prompt gradients agree to 2e-6 of the largest entry. Running the second
half of the frames on a helper thread must change no output and no
gradient by a single bit.
"""

import threading
import time

import numpy as np
import pytest

from reachcast import autodiff as ad
from reachcast import model as M
from reachcast.model import ModelConfig


def reference_encoder(params, cfg, frames):
    x = ad.constant(frames.reshape(-1, 1, cfg.frame_h, cfg.frame_w))
    x = ad.embed_border(x, params["prompt"], cfg.prompt_width)
    x = ad.tanh(ad.conv2d(x, params["enc.conv1.k"], stride=2))
    x = ad.tanh(ad.conv2d(x, params["enc.conv2.k"], stride=2))
    return ad.reshape(x, (-1, cfg.flat_dim()))


def reference_encode_frames(params, cfg, frames):
    return M._mlp2(params, "vis", reference_encoder(params, cfg, frames))


PRESETS = {"tiny": ModelConfig.tiny, "desk": ModelConfig.desk, "paper": ModelConfig.paper,
           # a non-square frame, so rows and columns of the patch index differ
           "tiny-wide": lambda: ModelConfig.tiny(frame_w=13, prompt_width=2)}


def _model(cfg, seed=3):
    """Parameters with a random (not zero) prompt, so every path is exercised."""
    params = M.init_params(cfg, seed=seed)
    prompt = params["prompt"].data
    prompt[...] = np.random.default_rng(seed).uniform(-1, 1, prompt.shape)
    return params


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset(request):
    cfg = PRESETS[request.param]()
    return request.param, cfg, _model(cfg)


def _frames(cfg, shape, seed):
    return np.random.default_rng(seed).uniform(0, 1, shape + (cfg.frame_h, cfg.frame_w)).astype(
        cfg.dtype)


def _grads(fn, params, cfg, frames, seed):
    """Output and every trainable gradient of sum(fn(frames) * w)."""
    params.zero_grads()
    with ad.Graph() as g:
        out = fn(params, cfg, frames)
        weight = np.random.default_rng(seed).standard_normal(out.shape).astype(cfg.dtype)
        g.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
    grads = {name: t.grad_or_zeros().copy() for name, t in params.trainable_items()}
    params.zero_grads()
    return out.data, grads


def _assert_prompt_close(fused, ref, dtype):
    if dtype == np.float64:
        np.testing.assert_allclose(fused, ref, rtol=1e-9, atol=1e-12)
    else:
        assert np.max(np.abs(fused - ref)) <= 2e-6 * np.max(np.abs(ref))


def _backbone(params, cfg, frames, save=False):
    """The fused backbone's (R, flat_dim) features of all frames, and its
    op object."""
    vis = M._Visual({k: params[k].data for k in M._fused_params(cfg)["vis"] + M.FROZEN},
                    frames, cfg.prompt_width, save)
    return vis.feats, vis


def _unread_border(cfg):
    """Mask over the prompt's entries of the border pixels that no output
    reads: conv2 reads conv1 rows 0..2 h2 and conv1 row r reads pixel rows
    2r..2r+2, so rows from 4 h2 + 3 on (and likewise columns) are never read."""
    hp, wp = cfg.padded_hw()
    pad = cfg.prompt_width
    h2, w2 = cfg.conv_out_hw()
    read = np.zeros((hp, wp), dtype=bool)
    read[: 4 * h2 + 3, : 4 * w2 + 3] = True
    border = np.ones((hp, wp), dtype=bool)
    border[pad : hp - pad, pad : wp - pad] = False
    return ~read[border]


class TestFusedMatchesReference:
    @pytest.mark.parametrize("n", [1, 5])
    def test_forward_is_bit_identical(self, preset, n):
        _, cfg, params = preset
        frames = _frames(cfg, (n,), seed=10 + n)
        fused, _ = _backbone(params, cfg, frames)
        ref = reference_encoder(params, cfg, frames).data
        assert fused.shape == (n, cfg.flat_dim()) and fused.dtype == cfg.dtype
        assert fused.flags.c_contiguous
        np.testing.assert_array_equal(fused, ref)
        out = M.encode_frames(params, cfg, frames).data
        assert out.shape == (n, cfg.d_obs) and out.dtype == cfg.dtype
        np.testing.assert_array_equal(out, reference_encode_frames(params, cfg, frames).data)

    def test_gradients(self, preset):
        _, cfg, params = preset
        frames = _frames(cfg, (6,), seed=21)
        out_f, g_f = _grads(M.encode_frames, params, cfg, frames, seed=22)
        out_r, g_r = _grads(reference_encode_frames, params, cfg, frames, seed=22)
        np.testing.assert_array_equal(out_f, out_r)
        for key in ("vis.fc1.w", "vis.fc1.b", "vis.fc2.w", "vis.fc2.b"):
            np.testing.assert_array_equal(g_f[key], g_r[key], err_msg=key)
        assert g_f["prompt"].dtype == cfg.dtype
        _assert_prompt_close(g_f["prompt"], g_r["prompt"], cfg.dtype)
        assert np.count_nonzero(g_f["prompt"]) == np.count_nonzero(~_unread_border(cfg))

    def test_unread_border_pixels_get_exact_zero(self, preset):
        _, cfg, params = preset
        unread = _unread_border(cfg)
        assert unread.any()
        _, grads = _grads(M.encode_frames, params, cfg, _frames(cfg, (4,), seed=31), seed=32)
        prompt = grads["prompt"][0]
        assert np.all(prompt[unread] == 0.0)
        assert np.all(prompt[~unread] != 0.0)

    def test_forward_without_tape_matches_taped(self, preset):
        _, cfg, params = preset
        frames = _frames(cfg, (3,), seed=41)
        untaped = M.encode_frames(params, cfg, frames)
        taped, _ = _grads(M.encode_frames, params, cfg, frames, seed=42)
        assert not untaped.requires_grad
        np.testing.assert_array_equal(untaped.data, taped)
        saved = _backbone(params, cfg, frames, save=True)[1]
        assert hasattr(saved, "a1") and not hasattr(_backbone(params, cfg, frames)[1], "a1")

    def test_one_tape_record(self, preset):
        _, cfg, params = preset
        with ad.Graph() as g:
            M.encode_frames(params, cfg, _frames(cfg, (2,), seed=51))
        assert len(g) == 1

    def test_no_record_when_nothing_requires_a_gradient(self, preset):
        _, cfg, params = preset
        names = M._fused_params(cfg)["vis"]  # the op's inputs, in its backward's order
        assert names == ("prompt", "vis.fc1.w", "vis.fc1.b", "vis.fc2.w", "vis.fc2.b")
        inputs = [params[k] for k in names]
        try:
            for t in inputs:
                t.requires_grad = False
            with ad.Graph() as g:
                out = M.encode_frames(params, cfg, _frames(cfg, (2,), seed=52))
        finally:
            for t in inputs:
                t.requires_grad = True
        assert len(g) == 0 and not out.requires_grad


def _counting_thread(started):
    """A ``threading.Thread`` that appends its name to ``started`` on start."""
    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()
    return Counted


def _visual_grads(params, cfg, frames, weight):
    """Output bytes and the bytes of every visual-branch gradient for a
    weighted sum of the output."""
    params.zero_grads()
    with ad.Graph() as g:
        out = M.encode_frames(params, cfg, frames)
        g.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
    grads = {name: params[name].grad.tobytes()
             for name in ("prompt", "vis.fc1.w", "vis.fc1.b", "vis.fc2.w", "vis.fc2.b")}
    params.zero_grads()
    return out.data.tobytes(), grads


# (preset, the patched gate's constants or None for the module's, the gate's
# edge: the least R that splits). desk's 8-row halves make small products,
# where BLAS's kernels change the bits, so its forced edge sits at 48 rows.
GATES = [("paper", None, 16), ("desk", {"PARALLEL_MIN_MACS": 0, "PARALLEL_MIN_ROWS": 24}, 48),
         ("tiny", {"PARALLEL_MIN_MACS": 0}, 16)]


class Boom(RuntimeError):
    """Raised by a patched half of the frames."""


class TestHelperThread:
    @pytest.mark.parametrize("name, gate, edge", GATES, ids=[g[0] for g in GATES])
    def test_threaded_and_serial_are_byte_equal_at_the_gate(self, monkeypatch, name, gate, edge):
        cfg = PRESETS[name]()
        params = _model(cfg)
        for key, value in (gate or {}).items():
            monkeypatch.setattr(M, key, value)
        if gate is None:  # the module's gate: its edge is where fc1's work and the halves allow
            per_row = cfg.flat_dim() * cfg.vis_hidden
            assert edge == max(-(-M.PARALLEL_MIN_MACS // per_row), 2 * M.PARALLEL_MIN_ROWS)
        rng = np.random.default_rng(91)
        for r, threads in ((edge - 1, 0), (edge, 2), (edge + 1, 2), (2 * edge + 7, 2)):
            frames = _frames(cfg, (r,), seed=r)
            weight = rng.standard_normal((r, cfg.d_obs)).astype(cfg.dtype)
            started = []
            with monkeypatch.context() as mp:
                mp.setattr(threading, "Thread", _counting_thread(started))
                split = _visual_grads(params, cfg, frames, weight)
            assert started == ["reachcast-helper"] * threads, r  # the forward and the backward
            with monkeypatch.context() as mp:
                mp.setattr(M, "PARALLEL_MIN_ROWS", float("inf"))
                serial = _visual_grads(params, cfg, frames, weight)
            assert split[0] == serial[0], r
            for key in serial[1]:
                assert split[1][key] == serial[1][key], (r, key)

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_exception_reaches_the_caller_and_the_helper_is_joined(self, monkeypatch, where):
        cfg = PRESETS["tiny"]()
        params = _model(cfg)
        caller = threading.current_thread()
        original = M._Visual._forward

        def patched(self, rows):
            if (threading.current_thread() is caller) == (where == "caller"):
                raise Boom(where)
            time.sleep(0.1)  # still running when the other half raises
            return original(self, rows)

        monkeypatch.setattr(M, "PARALLEL_MIN_MACS", 0)
        monkeypatch.setattr(M._Visual, "_forward", patched)
        before = threading.active_count()
        with pytest.raises(Boom, match=where):
            M.encode_frames(params, cfg, _frames(cfg, (16,), seed=93))
        assert threading.active_count() == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_col2im_sums_match_a_csr_product(name, dtype):
    # scipy's CSR product sums each row from zero in ascending column order;
    # the numpy plans must give its bytes, so the prompt gradient is unchanged
    from scipy import sparse

    cfg = PRESETS[name]()
    border, b1, b2, col2im2, col2im1 = M._border_plan(*cfg.padded_hw(), cfg.prompt_width)
    assert col2im2[0] == len(b1) and col2im1[0] == np.count_nonzero(border)
    for a in (border, b1, b2) + sum(col2im2[1] + col2im1[1], ()):
        assert not a.flags.writeable
    rng = np.random.default_rng(81)
    for plan, n_cols in ((col2im2, 9 * len(b2)), (col2im1, 9 * len(b1))):
        size, passes = plan
        rows = np.concatenate([r for r, _ in passes])
        cols = np.concatenate([c for _, c in passes])
        assert len(np.unique(cols)) == len(cols)  # each patch entry reads one cell
        ref = sparse.csr_array((np.ones(len(cols), dtype=dtype), (rows, cols)),
                               shape=(size, n_cols))
        for shape in ((n_cols,), (n_cols, 6)):
            x = rng.standard_normal(shape).astype(dtype)
            x[rng.random(shape) < 0.5] = -0.0  # a row of -0.0 alone must sum to +0.0
            out, expected = M._col2im(plan, x), ref @ x
            assert out.dtype == expected.dtype == dtype
            assert out.shape == expected.shape == (size,) + shape[1:]
            assert out.tobytes() == expected.tobytes()


def test_zero_prompt_width():
    cfg = ModelConfig.tiny(prompt_width=0)
    params = _model(cfg)
    assert params["prompt"].shape == (1, 0)
    frames = _frames(cfg, (6,), seed=61)
    out_f, g_f = _grads(M.encode_frames, params, cfg, frames, seed=62)
    out_r, g_r = _grads(reference_encode_frames, params, cfg, frames, seed=62)
    np.testing.assert_array_equal(out_f, out_r)
    assert g_f["prompt"].shape == (1, 0)
    np.testing.assert_array_equal(g_f["vis.fc1.w"], g_r["vis.fc1.w"])

