"""The fused emission op against the tape-composed loop it replaced.

``reference_emission`` builds the emission from taped primitives: steps
0..min C as one block, then one autoregressive step at a time, each
re-embedding the previous predicted mean, over the (N, max C, d_obs) grid
of trajectory features. The fused ``model.emit`` takes the temporal op's
(R, 2 d_obs) rows, the grid's packed rows at the observed steps in their
trajectory half and noise in their visual half. It must reproduce the
reference's forward bit for bit and its gradients for ``z``, ``o_t`` and
every ``emit.*`` and ``traj.*`` parameter, and give the visual half an
exact zero gradient. The reference is fed garbage past each sample's C,
which it must ignore.
"""

import numpy as np
import pytest

from reachcast import autodiff as ad
from reachcast import model as M
from reachcast.model import ModelConfig


def softplus(x):
    """Taped log(1 + e^x), with the logistic derivative the fused emission uses."""
    sigmoid = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return ad.custom(np.logaddexp(0.0, x.data), (x,), lambda g: (g * sigmoid,))


def reference_heads(params, cfg, z_t, prev_traj_feature):
    """Mean, alpha and beta of (N,k,d_z) latents and (N,k,d_obs) features."""
    inp = ad.concat([z_t, prev_traj_feature], axis=2)
    mean = ad.tanh(M._mlp2(params, "emit.mean", inp))
    alpha = softplus(M._mlp2(params, "emit.alpha", inp))
    beta = softplus(M._mlp2(params, "emit.beta", inp)) if cfg.point_dim == 3 else None
    return mean, alpha, beta


def reference_emission(params, cfg, z, o_t, observed):
    n, t, _ = z.shape
    t_enc = o_t.shape[1]
    zero_feat = ad.constant(np.zeros((n, 1, cfg.d_obs)))
    m0 = int(observed.min())
    mean_blk, alpha_blk, beta_blk = reference_heads(
        params, cfg, ad.slice_axis(z, 1, 0, m0 + 1),
        ad.concat([zero_feat, ad.slice_axis(o_t, 1, 0, m0)], axis=1))
    means, alphas = [mean_blk], [alpha_blk]
    betas = [beta_blk] if beta_blk is not None else []
    prev_mean = ad.slice_axis(mean_blk, 1, m0, m0 + 1)
    for i in range(m0 + 1, t):
        z_i = ad.slice_axis(z, 1, i, i + 1)
        re = M._linear(params, "emit.reembed", M._mlp2(params, "traj", prev_mean))
        if i <= t_enc:
            sel = (i <= observed).astype(np.float64)  # encoder feature through step C
            sel_d = np.broadcast_to(sel[:, None, None], (n, 1, cfg.d_obs)).copy()
            obs_feat = ad.mul(ad.slice_axis(o_t, 1, i - 1, i), ad.constant(sel_d))
            prev_feat = ad.add(obs_feat, ad.mul(re, ad.constant(1.0 - sel_d)))
        else:
            prev_feat = re
        m_i, a_i, b_i = reference_heads(params, cfg, z_i, prev_feat)
        means.append(m_i)
        alphas.append(a_i)
        if b_i is not None:
            betas.append(b_i)
        prev_mean = m_i
    return (ad.concat(means, axis=1), ad.concat(alphas, axis=1),
            ad.concat(betas, axis=1) if betas else None)


PRESETS = {
    "tiny": ModelConfig.tiny,
    "desk": ModelConfig.desk,
    "tiny-2d": lambda: ModelConfig.tiny(coordinate_mode="2d"),
    "desk-2d": lambda: ModelConfig.desk(coordinate_mode="2d"),
}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset(request):
    """The preset's config and its seed-5 weights, with every bias redrawn
    away from its initial zero, so that a dropped bias term changes the
    result."""
    cfg = PRESETS[request.param]()
    params = M.init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    for name, t in params.items():
        if name.endswith(".b"):
            t.data[...] = rng.normal(0, 0.3, t.shape)
    return cfg, params


def pack(x, observed):
    """The packed rows of an (N, max C, ...) grid at each sample's observed steps."""
    return x[M.observed_cells(np.asarray(observed))]


def rows(o_t, observed):
    """The temporal op's rows: noise in the visual half (columns :d_obs)
    and ``o_t``'s packed grid in the trajectory half."""
    traj = pack(o_t, observed)
    return np.concatenate([np.random.default_rng(2).standard_normal(traj.shape), traj], axis=1)


def _case(cfg, n, seed, observed=None):
    """Latents z, trajectory features o_t as a grid (garbage past C), mixed
    counts and per-output loss weights for n samples."""
    rng = np.random.default_rng(seed)
    if observed is None:
        observed = rng.integers(1, cfg.horizon, size=n)
        if n > 1:
            observed[0], observed[-1] = 1, cfg.horizon - 1
    observed = np.asarray(observed)
    t_enc = int(observed.max())
    z = rng.standard_normal((n, cfg.horizon, cfg.d_z))
    o_t = rng.standard_normal((n, t_enc, cfg.d_obs))
    past = np.arange(t_enc)[None, :] >= observed[:, None]
    o_t[past] = rng.uniform(-1e3, 1e3, (np.count_nonzero(past), cfg.d_obs))
    weights = [rng.standard_normal((n, cfg.horizon, k)) for k in (cfg.point_dim, 1, 1)]
    return z, o_t, observed, weights


def _run(fn, params, cfg, z_np, o_np, observed, weights):
    """Outputs and gradients of a weighted sum of mean, alpha and beta."""
    params.zero_grads()
    z = ad.Tensor(z_np.copy(), requires_grad=True)
    o_t = ad.Tensor(o_np.copy(), requires_grad=True)
    with ad.Graph() as g:
        outs = [x for x in fn(params, cfg, z, o_t, observed) if x is not None]
        terms = [ad.reduce_sum(ad.mul(x, ad.constant(wt))) for x, wt in zip(outs, weights)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        g.backward(loss)
    grads = {name: t.grad_or_zeros().copy() for name, t in params.items()
             if name.startswith(("emit.", "traj."))}
    grads["z"], grads["o_t"] = z.grad.copy(), o_t.grad.copy()
    params.zero_grads()
    return [x.data for x in outs], grads


CASES = [(1, None), (3, None), (32, None), (3, [1, 1, 1]), (2, "full")]


def _observed(cfg, spec):
    return [cfg.horizon - 1, cfg.horizon - 1] if spec == "full" else spec


class TestFusedMatchesReference:
    @pytest.mark.parametrize("n,spec", CASES)
    def test_forward_bit_identical(self, preset, n, spec):
        cfg, params = preset
        z, o_t, observed, _ = _case(cfg, n, seed=10 + n, observed=_observed(cfg, spec))
        fused = M.emit(params, cfg, ad.constant(z), ad.constant(rows(o_t, observed)), observed)
        ref = reference_emission(params, cfg, ad.constant(z), ad.constant(o_t), observed)
        assert fused[0].shape == (n, cfg.horizon, cfg.point_dim)
        assert (fused[2] is None) == (cfg.point_dim == 2)
        for f, r in zip(fused, ref):
            if r is not None:
                np.testing.assert_array_equal(f.data, r.data)

    @pytest.mark.parametrize("n,spec", CASES)
    def test_gradients(self, preset, n, spec):
        cfg, params = preset
        z, o_t, observed, weights = _case(cfg, n, seed=20 + n, observed=_observed(cfg, spec))
        out_f, g_f = _run(M.emit, params, cfg, z, rows(o_t, observed), observed, weights)
        out_r, g_r = _run(reference_emission, params, cfg, z, o_t, observed, weights)
        for f, r in zip(out_f, out_r):
            np.testing.assert_array_equal(f, r)
        assert set(g_f) == set(g_r)
        g_f["o_t"] = g_f["o_t"][:, cfg.d_obs :]
        g_grid, g_r["o_t"] = g_r["o_t"], pack(g_r["o_t"], observed)
        assert np.count_nonzero(g_grid) == np.count_nonzero(g_r["o_t"])  # zero past C
        for key in g_r:
            np.testing.assert_allclose(g_f[key], g_r[key], rtol=1e-9, atol=1e-12, err_msg=key)
        assert np.any(g_f["o_t"] != 0) and np.any(g_f["z"] != 0)
        if int(observed.min()) < cfg.horizon - 1:  # some step re-embeds its previous mean
            assert np.any(g_f["traj.fc1.w"] != 0) and np.any(g_f["emit.reembed.w"] != 0)

    @pytest.mark.parametrize("n,spec", CASES)
    def test_visual_half_gets_exact_zero_gradient(self, preset, n, spec):
        cfg, params = preset
        z, o_t, observed, weights = _case(cfg, n, seed=50 + n, observed=_observed(cfg, spec))
        _, g = _run(M.emit, params, cfg, z, rows(o_t, observed), observed, weights)
        assert g["o_t"].shape == (int(np.sum(observed)), 2 * cfg.d_obs)
        assert not np.any(g["o_t"][:, : cfg.d_obs])
        assert np.any(g["o_t"][:, cfg.d_obs :])

    def test_forward_without_tape_matches_taped(self, preset):
        cfg, params = preset
        z, o_t, observed, weights = _case(cfg, 3, seed=31)
        o_t = rows(o_t, observed)
        names = M._fused_params(cfg)["emit"]
        inputs = (ad.constant(z), ad.constant(o_t)) + tuple(params[k] for k in names)
        untaped = M._Emission({k: params[k].data for k in names}, z, o_t, observed,
                              save=ad.is_recording(inputs))
        assert not hasattr(untaped, "saved")
        out = M.emit(params, cfg, ad.constant(z), ad.constant(o_t), observed)
        assert not any(x.requires_grad for x in out if x is not None)
        taped, _ = _run(M.emit, params, cfg, z, o_t, observed, weights)
        for a, b in zip(out, taped):
            np.testing.assert_array_equal(a.data, b)
        np.testing.assert_array_equal(untaped.out[..., : cfg.point_dim], taped[0])

    def test_one_tape_record(self, preset):
        # the fused op plus one slice per output
        cfg, params = preset
        z, o_t, observed, _ = _case(cfg, 2, seed=41)
        with ad.Graph() as g:
            out = M.emit(params, cfg, ad.Tensor(z, requires_grad=True),
                         ad.constant(rows(o_t, observed)), observed)
        assert len(g) == 1 + sum(x is not None for x in out)
