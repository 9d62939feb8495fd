"""The fused transition op against the tape-composed rollout it replaced.

``reference_transition`` builds the state transition from taped
primitives, one record per op and step, with the self-attention K/V grown
by ``concat``. The fused ``model.transition`` must reproduce its forward
to 1e-12 and its gradients for ``h`` and every ``trans.*`` parameter to
rtol 1e-9 and atol 1e-12. In float32 it must stay within 1e-5 of the
float64 forward at the same weights, and its gradients within 2e-5 of
each tensor's largest float64 entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast import autodiff as ad
from reachcast import model as M
from reachcast.model import ModelConfig


def split_heads(x, heads):
    """(N, T, D) tensor -> (N, heads, T, D/heads): every grid cell a packed row."""
    n, t, d = x.shape
    return ad.split_heads(ad.reshape(x, (n * t, d)), heads, np.arange(n * t), n, t)


def merge_heads(x):
    """(N, heads, T, dh) tensor -> (N, T, heads*dh)."""
    n, heads, t, dh = x.shape
    return ad.reshape(ad.merge_heads(x, np.arange(n * t)), (n, t, heads * dh))


def reference_transition(params, cfg, h, observed, horizon):
    n, t_enc, dz = h.shape
    t = int(horizon)
    pe = M.positional_encoding(t, dz, cfg.dtype)
    heads = cfg.heads
    hmask = np.broadcast_to(M._key_mask(observed, t_enc, cfg.dtype), (n, heads, 1, t_enc)).copy()
    dh = dz // heads
    k_h = split_heads(ad.matmul(h, params["trans.cross.wk.w"]), heads)
    v_h = split_heads(M._linear(params, "trans.cross.wv", h), heads)

    def self_kv(z_t):
        return (split_heads(ad.matmul(z_t, params["trans.self.wk.w"]), heads),
                split_heads(M._linear(params, "trans.self.wv", z_t), heads))

    ones = ad.constant(np.ones((n, 1, 1)))
    z0 = ad.matmul(ones, ad.reshape(params["trans.z0"], (1, 1, dz)))
    z_hist = [z0]
    k_s, v_s = self_kv(z0)
    for i in range(t):
        z_prev = z_hist[-1]
        if i > 0:
            k_new, v_new = self_kv(z_prev)
            k_s = ad.concat([k_s, k_new], axis=2)
            v_s = ad.concat([v_s, v_new], axis=2)
        q = split_heads(M._linear(params, "trans.self.wq", z_prev), heads)
        logits = ad.scale(ad.matmul(q, ad.transpose(k_s, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        attn = merge_heads(ad.matmul(ad.softmax_lastdim(logits), v_s))
        attn = M._linear(params, "trans.self.wo", attn)
        wbar = M._layer_norm(params, "trans.ln_wbar", ad.concat([z_prev, attn], axis=2))

        qc = split_heads(M._linear(params, "trans.cross.wq", wbar), heads)
        logits = ad.scale(ad.matmul(qc, ad.transpose(k_h, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        ctx = merge_heads(ad.matmul(ad.softmax_lastdim(ad.add(logits, ad.constant(hmask))), v_h))
        ctx = M._linear(params, "trans.cross.wo", ctx)
        what = M._layer_norm(params, "trans.ln_what", ad.concat([wbar, ctx], axis=2))

        inner = M._mlp2(params, "trans.inner", what)
        feats = M._mlp2(params, "trans.outer", ad.concat([what, inner], axis=2))
        pe_i = ad.constant(np.broadcast_to(pe[i], (n, 1, dz)).copy())
        z_t = M._layer_norm(params, "trans.ln_z", ad.add(feats, pe_i))
        z_hist.append(z_t)
    return ad.concat(z_hist[1:], axis=1)


PRESETS = {"tiny": ModelConfig.tiny, "desk": ModelConfig.desk}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset(request):
    cfg = PRESETS[request.param]()
    return request.param, cfg, M.init_params(cfg, seed=3)


def _case(cfg, n, seed):
    """Encoder output h and mixed observed counts for n samples."""
    rng = np.random.default_rng(seed)
    observed = rng.integers(1, cfg.horizon, size=n)
    if n > 1:
        observed[0], observed[-1] = 2, cfg.horizon - 1
    h = rng.standard_normal((n, int(observed.max()), cfg.d_z))
    weight = rng.standard_normal((n, cfg.horizon, cfg.d_z))
    return h, observed, weight


def _grads(fn, params, cfg, h_np, observed, weight):
    params.zero_grads()
    h = ad.Tensor(h_np.copy(), requires_grad=True)
    with ad.Graph() as g:
        z = fn(params, cfg, h, observed, horizon=cfg.horizon)
        g.backward(ad.reduce_sum(ad.mul(z, ad.constant(weight))))
    grads = {name: t.grad_or_zeros().copy() for name, t in params.items()
             if name.startswith("trans.")}
    grads["h"] = h.grad.copy()
    params.zero_grads()
    return z.data, grads


class TestFusedMatchesReference:
    @pytest.mark.parametrize("n", [1, 3])
    def test_forward(self, preset, n):
        _, cfg, params = preset
        h_np, observed, _ = _case(cfg, n, seed=10 + n)
        fused = M.transition(params, cfg, ad.constant(h_np), observed, horizon=cfg.horizon).data
        ref = reference_transition(params, cfg, ad.constant(h_np), observed,
                                   horizon=cfg.horizon).data
        assert fused.shape == (n, cfg.horizon, cfg.d_z)
        assert np.max(np.abs(fused - ref)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_gradients(self, preset, n):
        _, cfg, params = preset
        h_np, observed, weight = _case(cfg, n, seed=20 + n)
        z_f, g_f = _grads(M.transition, params, cfg, h_np, observed, weight)
        z_r, g_r = _grads(reference_transition, params, cfg, h_np, observed, weight)
        assert np.max(np.abs(z_f - z_r)) <= 1e-12
        for key in g_r:
            np.testing.assert_allclose(g_f[key], g_r[key], rtol=1e-9, atol=1e-12, err_msg=key)
        assert np.any(g_f["trans.z0"] != 0) and np.any(g_f["h"] != 0)

    def test_forward_without_tape_matches_taped(self, preset):
        _, cfg, params = preset
        h_np, observed, weight = _case(cfg, 3, seed=31)
        untaped = M.transition(params, cfg, ad.constant(h_np), observed, horizon=cfg.horizon)
        taped, _ = _grads(M.transition, params, cfg, h_np, observed, weight)
        assert not untaped.requires_grad
        np.testing.assert_array_equal(untaped.data, taped)

    def test_one_tape_record(self, preset):
        _, cfg, params = preset
        h_np, observed, _ = _case(cfg, 2, seed=41)
        with ad.Graph() as g:
            M.transition(params, cfg, ad.Tensor(h_np, requires_grad=True), observed,
                         horizon=cfg.horizon)
        assert len(g) == 1


_PARAMS = {}


def _preset_params(name, **overrides):
    """The preset's config and its seed-3 weights, built once per session.
    Biases, gains and ``trans.z0`` are redrawn away from their initial
    zeros and ones, so that no term of the transition vanishes."""
    key = (name, tuple(sorted(overrides.items())))
    if key not in _PARAMS:
        cfg = PRESETS[name](**overrides)
        params = M.init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        for pname, t in params.items():
            if pname.endswith((".b", ".g", ".z0")):
                t.data[...] = float(pname.endswith(".g")) + rng.normal(0, 0.3, t.shape)
        _PARAMS[key] = cfg, params
    return _PARAMS[key]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_cases_match_reference_and_ignore_rows_past_c(data):
    name = data.draw(st.sampled_from(sorted(PRESETS)), label="preset")
    cfg, params = _preset_params(name)
    n = data.draw(st.integers(1, 5), label="n")
    observed = np.array(data.draw(st.lists(st.integers(1, cfg.horizon - 1), min_size=n,
                                           max_size=n), label="C"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    h_np = rng.standard_normal((n, int(observed.max()), cfg.d_z))
    weight = rng.standard_normal((n, cfg.horizon, cfg.d_z))

    z_f, g_f = _grads(M.transition, params, cfg, h_np, observed, weight)
    z_r, g_r = _grads(reference_transition, params, cfg, h_np, observed, weight)
    assert np.max(np.abs(z_f - z_r)) <= 1e-12
    for key in g_r:
        np.testing.assert_allclose(g_f[key], g_r[key], rtol=1e-9, atol=1e-12, err_msg=key)

    moved = h_np.copy()
    for i, c in enumerate(observed):
        moved[i, c:] = rng.uniform(-1e3, 1e3, moved[i, c:].shape)
    z_m = M.transition(params, cfg, ad.constant(moved), observed, horizon=cfg.horizon).data
    np.testing.assert_array_equal(z_m, z_f)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_float32_agrees_with_float64_at_the_same_weights(name):
    # measured on this case: forward within 1.4e-6 (tiny 1.1e-6), gradients
    # within 1.4e-6 of each tensor's largest entry; margins of 7x or more
    cfg32, p32 = _preset_params(name, compute_dtype="float32")
    cfg64 = PRESETS[name]()
    p64 = M.Params(M.param_layout(cfg64), np.float64)
    for (_, a), (_, b) in zip(p32.items(), p64.items()):
        b.data[...] = a.data
    h_np, observed, weight = _case(cfg64, 4, seed=51)
    h_np = h_np.astype(np.float32)
    z32, g32 = _grads(M.transition, p32, cfg32, h_np, observed, weight.astype(np.float32))
    z64, g64 = _grads(M.transition, p64, cfg64, h_np.astype(np.float64), observed, weight)
    assert z32.dtype == np.float32 and g32["h"].dtype == np.float32
    assert np.max(np.abs(z32 - z64)) <= 1e-5
    for key in g64:
        assert np.max(np.abs(g32[key] - g64[key])) <= 2e-5 * np.max(np.abs(g64[key])), key
