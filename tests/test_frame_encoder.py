"""The fused frozen encoder against its taped composition.

``reference_encoder`` builds the prompted backbone from taped primitives,
``embed_border -> conv2d -> tanh -> conv2d -> tanh -> reshape``. The fused
``model.frozen_encoder`` must reproduce its forward bit for bit, and its
prompt gradient within rtol 1e-9 / atol 1e-12 in float64; in float32 the
gradients agree to 2e-6 of the largest entry. Through ``encode_frames`` the
head's gradients are bit-identical, since the head reads identical features.
"""

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
    x = reference_encoder(params, cfg, frames.reshape(-1, cfg.frame_h, cfg.frame_w))
    return ad.reshape(M._mlp2(params, "vis", x), frames.shape[:-2] + (cfg.d_obs,))


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
        fused = M.frozen_encoder(params, cfg, frames).data
        ref = reference_encoder(params, cfg, frames).data
        assert fused.shape == (n, cfg.flat_dim()) and fused.dtype == cfg.dtype
        assert fused.flags.c_contiguous
        np.testing.assert_array_equal(fused, ref)

    def test_gradients(self, preset):
        _, cfg, params = preset
        frames = _frames(cfg, (2, 3), seed=21)
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
        _, grads = _grads(M.frozen_encoder, params, cfg, _frames(cfg, (4,), seed=31), seed=32)
        prompt = grads["prompt"][0]
        assert np.all(prompt[unread] == 0.0)
        assert np.all(prompt[~unread] != 0.0)

    def test_forward_without_tape_matches_taped(self, preset):
        _, cfg, params = preset
        frames = _frames(cfg, (3,), seed=41)
        untaped = M.frozen_encoder(params, cfg, frames)
        taped, _ = _grads(M.frozen_encoder, params, cfg, frames, seed=42)
        assert not untaped.requires_grad
        np.testing.assert_array_equal(untaped.data, taped)

    def test_one_tape_record(self, preset):
        _, cfg, params = preset
        with ad.Graph() as g:
            M.frozen_encoder(params, cfg, _frames(cfg, (2,), seed=51))
        assert len(g) == 1


def test_zero_prompt_width():
    cfg = ModelConfig.tiny(prompt_width=0)
    params = _model(cfg)
    assert params["prompt"].shape == (1, 0)
    frames = _frames(cfg, (2, 3), seed=61)
    out_f, g_f = _grads(M.encode_frames, params, cfg, frames, seed=62)
    out_r, g_r = _grads(reference_encode_frames, params, cfg, frames, seed=62)
    np.testing.assert_array_equal(out_f, out_r)
    assert g_f["prompt"].shape == (1, 0)
    np.testing.assert_array_equal(g_f["vis.fc1.w"], g_r["vis.fc1.w"])


@pytest.mark.parametrize("kernel", ["enc.conv1.k", "enc.conv2.k"])
def test_trainable_kernel_refused(kernel):
    cfg = ModelConfig.tiny()
    params = _model(cfg)
    params[kernel].requires_grad = True
    with pytest.raises(ad.GraphError, match=kernel):
        M.frozen_encoder(params, cfg, _frames(cfg, (1,), seed=71))
