"""The fused temporal encoder against the tape-composed block stack it
replaced.

``reference_encode`` builds one branch's masked post-norm blocks from
taped primitives, with attention on the (N, max C) grid through
``split_heads``/``merge_heads`` and a materialized (N, heads, T, T) key
mask. The fused ``model.temporal_encode`` runs both branches as one op;
``encode_branch`` feeds it the branch under test and reads that branch's
half. It must reproduce the reference's forward bit for bit, and its
gradients for ``x`` and every tensor of the branch to rtol 1e-9 and atol
1e-12. In float32 it must stay within a bound of the float64 forward at
the same weights. Running the trajectory branch on a helper thread must
change no output and no gradient by a single bit.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast import autodiff as ad
from reachcast import model as M
from reachcast.model import ModelConfig


def reference_mha(params, name, u, heads, rows, key_mask):
    """Self-attention over packed rows u, at the flat indices ``rows`` of the
    (N,T) grid of the additive (N,heads,T,T) key_mask."""
    n, _, t, _ = key_mask.shape
    q = ad.split_heads(M._linear(params, f"{name}.wq", u), heads, rows, n, t)
    k = ad.split_heads(ad.matmul(u, params[f"{name}.wk.w"]), heads, rows, n, t)
    v = ad.split_heads(M._linear(params, f"{name}.wv", u), heads, rows, n, t)
    dh = q.shape[-1]
    logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    logits = ad.add(logits, ad.constant(key_mask))
    ctx = ad.merge_heads(ad.matmul(ad.softmax_lastdim(logits), v), rows)
    return M._linear(params, f"{name}.wo", ctx)


def reference_encode(params, cfg, x, observed, branch):
    samples, steps = M.observed_cells(observed)
    n, t = len(observed), int(observed.max())
    rows = samples * t + steps
    pe = M.positional_encoding(t, cfg.d_obs, cfg.dtype).take(steps, axis=0)
    u = ad.add(x, ad.constant(pe))
    mask = np.broadcast_to(M._key_mask(observed, t, cfg.dtype), (n, cfg.heads, t, t)).copy()
    for b in range(cfg.blocks):
        base = f"{branch}.{b}"
        attn = reference_mha(params, f"{base}.attn", u, cfg.heads, rows, mask)
        u = M._layer_norm(params, f"{base}.ln1", ad.add(u, attn))
        m = M._mlp2(params, f"{base}.mlp", u)
        u = M._layer_norm(params, f"{base}.ln2", ad.add(u, m))
    return u


def encode_branch(params, cfg, x, observed, branch):
    """``branch``'s (R,d_obs) half of the paired ``temporal_encode``, with x
    fed to that branch and zeros to the other."""
    other = ad.constant(np.zeros_like(x.data))
    pair = (x, other) if branch == "enc_v" else (other, x)
    lo = 0 if branch == "enc_v" else cfg.d_obs
    return ad.slice_axis(M.temporal_encode(params, cfg, pair, observed), 1, lo, lo + cfg.d_obs)


PRESETS = {"tiny": ModelConfig.tiny, "desk": ModelConfig.desk, "paper": ModelConfig.paper}
_PARAMS = {}


def _preset_params(name, **overrides):
    """The preset's config and its seed-3 weights, built once per test run.
    Biases and gains are redrawn away from their initial zeros and ones,
    so that a dropped bias or gain term changes the result."""
    key = (name, tuple(sorted(overrides.items())))
    if key not in _PARAMS:
        cfg = PRESETS[name](**overrides)
        params = M.init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        for pname, t in params.items():
            if pname.startswith(("enc_v.", "enc_t.")) and pname.endswith((".b", ".g")):
                t.data[...] = float(pname.endswith(".g")) + rng.normal(0, 0.3, t.shape)
        _PARAMS[key] = cfg, params
    return _PARAMS[key]


def _case(cfg, n, seed):
    """Packed inputs x, mixed observed counts and per-output loss weights
    for n samples."""
    rng = np.random.default_rng(seed)
    observed = rng.integers(1, cfg.horizon, size=n)
    if n > 1:
        observed[0], observed[-1] = 1, cfg.horizon - 1
    r = int(observed.sum())
    x = rng.standard_normal((r, cfg.d_obs)).astype(cfg.dtype)
    return x, observed, rng.standard_normal((r, cfg.d_obs)).astype(cfg.dtype)


def _grads(fn, params, cfg, x_np, observed, branch, weight):
    """Output and the gradients of x and of the branch's tensors for a
    weighted sum of the output."""
    params.zero_grads()
    x = ad.Tensor(x_np.copy(), requires_grad=True)
    with ad.Graph() as g:
        out = fn(params, cfg, x, observed, branch)
        g.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
    grads = {name: t.grad_or_zeros().copy() for name, t in params.items()
             if name.startswith(f"{branch}.")}
    grads["x"] = x.grad.copy()
    params.zero_grads()
    return out.data, grads


def _assert_matches_reference(params, cfg, x, observed, branch, weight):
    out_f, g_f = _grads(encode_branch, params, cfg, x, observed, branch, weight)
    out_r, g_r = _grads(reference_encode, params, cfg, x, observed, branch, weight)
    np.testing.assert_array_equal(out_f, out_r)
    assert set(g_f) == set(g_r) and len(g_f) == 1 + 15 * cfg.blocks
    for key in g_r:
        np.testing.assert_allclose(g_f[key], g_r[key], rtol=1e-9, atol=1e-12, err_msg=key)
    return out_f, g_f


def _assert_each_sample_independent(params, cfg, x, observed, branch, out):
    """Each sample's rows stay bit-identical when every other sample's rows
    are redrawn, and within 1e-12 of that sample encoded alone. Alone, its
    rounding can differ: a one-row product takes another BLAS path, and
    fewer padded keys can change the association of numpy's pairwise
    softmax sums."""
    bounds = np.cumsum([0, *observed])
    rng = np.random.default_rng(0)
    for i in range(len(observed)):
        rows = slice(bounds[i], bounds[i + 1])
        moved = rng.uniform(-1e3, 1e3, x.shape).astype(x.dtype)
        moved[rows] = x[rows]
        again = encode_branch(params, cfg, ad.constant(moved), observed, branch).data
        np.testing.assert_array_equal(again[rows], out[rows])
        alone = encode_branch(params, cfg, ad.constant(x[rows]), observed[i : i + 1], branch)
        np.testing.assert_allclose(alone.data, out[rows], rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_cases_match_reference_and_keep_samples_independent(data):
    name = data.draw(st.sampled_from(["tiny", "desk"]), label="preset")
    overrides = data.draw(st.sampled_from([{}, {"blocks": 0}]), label="overrides")
    cfg, params = _preset_params(name, **overrides)
    branch = data.draw(st.sampled_from(["enc_v", "enc_t"]), label="branch")
    n = data.draw(st.integers(1, 5), label="n")
    observed = np.array(data.draw(st.lists(st.integers(1, cfg.horizon - 1), min_size=n,
                                           max_size=n), label="C"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((int(observed.sum()), cfg.d_obs))
    weight = rng.standard_normal(x.shape)
    out, grads = _assert_matches_reference(params, cfg, x, observed, branch, weight)
    if cfg.blocks == 0:
        np.testing.assert_array_equal(grads["x"], weight)
    _assert_each_sample_independent(params, cfg, x, observed, branch, out)


class TestFusedMatchesReference:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_forward_bit_identical(self, name, n):
        cfg, params = _preset_params(name)
        x, observed, _ = _case(cfg, n, seed=10 + n)
        for branch in ("enc_v", "enc_t"):
            fused = encode_branch(params, cfg, ad.constant(x), observed, branch).data
            ref = reference_encode(params, cfg, ad.constant(x), observed, branch).data
            assert fused.shape == x.shape and fused.dtype == cfg.dtype
            np.testing.assert_array_equal(fused, ref)

    @pytest.mark.parametrize("name", ["tiny", "desk"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_gradients(self, name, n):
        cfg, params = _preset_params(name)
        x, observed, weight = _case(cfg, n, seed=20 + n)
        _, grads = _assert_matches_reference(params, cfg, x, observed, "enc_v", weight)
        assert all(np.any(g != 0) for g in grads.values())

    @pytest.mark.parametrize("name", ["tiny", "desk"])
    def test_each_sample_independent_of_the_others(self, name):
        cfg, params = _preset_params(name)
        x, observed, _ = _case(cfg, 4, seed=25)
        out = encode_branch(params, cfg, ad.constant(x), observed, "enc_t").data
        _assert_each_sample_independent(params, cfg, x, observed, "enc_t", out)

    @pytest.mark.parametrize("name", ["tiny", "desk"])
    def test_forward_without_tape_matches_taped(self, name):
        cfg, params = _preset_params(name)
        x, observed, weight = _case(cfg, 3, seed=31)
        untaped = encode_branch(params, cfg, ad.constant(x), observed, "enc_v")
        taped, _ = _grads(encode_branch, params, cfg, x, observed, "enc_v", weight)
        assert not untaped.requires_grad
        np.testing.assert_array_equal(untaped.data, taped)

    @pytest.mark.parametrize("name", ["tiny", "desk"])
    def test_one_tape_record_per_branch(self, name):
        # each paired call is one record, whichever branch's input needs a gradient
        cfg, params = _preset_params(name)
        x, observed, _ = _case(cfg, 2, seed=41)
        with ad.Graph() as g:
            for pair in ((ad.Tensor(x, requires_grad=True), ad.constant(x)),
                         (ad.constant(x), ad.Tensor(x, requires_grad=True))):
                M.temporal_encode(params, cfg, pair, observed)
        assert len(g) == 2

    @pytest.mark.parametrize("name", ["tiny", "desk"])
    def test_both_branches_are_one_record(self, name):
        cfg, params = _preset_params(name)
        x, observed, _ = _case(cfg, 2, seed=42)
        x_v, x_t = ad.Tensor(x, requires_grad=True), ad.Tensor(-x, requires_grad=True)
        with ad.Graph() as g:
            out = M.temporal_encode(params, cfg, (x_v, x_t), observed)
        assert len(g) == 1 and out.shape == (len(x), 2 * cfg.d_obs)
        (_, inputs, _), = g._records
        names = M._fused_params(cfg)
        expected = (x_v, x_t) + tuple(params[k] for k in names["enc_v"] + names["enc_t"])
        assert len(inputs) == len(expected) and all(a is b for a, b in zip(inputs, expected))


@pytest.mark.parametrize("name", ["tiny", "desk"])
def test_float32_agrees_with_float64_at_the_same_weights(name):
    # measured on this case: forward within 1.6e-6 (tiny 6.8e-7), gradients
    # within 7.6e-7 of each tensor's largest entry; margins of 6x or more
    cfg32, p32 = _preset_params(name, compute_dtype="float32")
    cfg64 = PRESETS[name]()
    p64 = M.Params(M.param_layout(cfg64), np.float64)
    for (_, a), (_, b) in zip(p32.items(), p64.items()):
        b.data[...] = a.data
    x, observed, weight = _case(cfg32, 4, seed=51)
    out32, g32 = _grads(encode_branch, p32, cfg32, x, observed, "enc_v", weight)
    out64, g64 = _grads(encode_branch, p64, cfg64, x.astype(np.float64), observed, "enc_v",
                        weight.astype(np.float64))
    assert out32.dtype == np.float32 and g32["x"].dtype == np.float32
    assert np.max(np.abs(out32 - out64)) <= 1e-5
    for key in g64:
        assert np.max(np.abs(g32[key] - g64[key])) <= 2e-5 * np.max(np.abs(g64[key])), key


def _pair_grads(params, cfg, x, observed, weight):
    """Output bytes and the bytes of every gradient (both inputs, every
    tensor of both branches) for a weighted sum of the paired output."""
    params.zero_grads()
    x_v, x_t = (ad.Tensor(a.copy(), requires_grad=True) for a in x)
    with ad.Graph() as g:
        out = M.temporal_encode(params, cfg, (x_v, x_t), observed)
        g.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
    grads = {name: t.grad_or_zeros().tobytes() for name, t in params.items()
             if name.startswith(("enc_v.", "enc_t."))}
    grads.update(x_v=x_v.grad.tobytes(), x_t=x_t.grad.tobytes())
    params.zero_grads()
    return out.data.tobytes(), grads


def _counting_thread(started):
    """A ``threading.Thread`` that appends its name to ``started`` on start."""
    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()
    return Counted


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_threaded_and_serial_paths_are_byte_equal(data):
    name = data.draw(st.sampled_from(sorted(PRESETS)), label="preset")
    overrides = data.draw(st.sampled_from([{}, {"blocks": 0}]), label="overrides")
    cfg, params = _preset_params(name, **overrides)
    n = data.draw(st.integers(1, 5), label="n")
    observed = np.array(data.draw(st.lists(st.integers(1, cfg.horizon - 1), min_size=n,
                                           max_size=n), label="C"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    r = int(observed.sum())
    x = rng.standard_normal((2, r, cfg.d_obs)).astype(cfg.dtype)
    weight = rng.standard_normal((r, 2 * cfg.d_obs)).astype(cfg.dtype)
    runs = {}
    for gate, threads in ((0, 2), (float("inf"), 0)):  # every call threaded, then none
        started = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "PARALLEL_MIN_MACS", gate)
            mp.setattr(threading, "Thread", _counting_thread(started))
            runs[threads] = _pair_grads(params, cfg, x, observed, weight)
        assert len(started) == threads  # one in the forward, one in the backward
    (out_2, grads_2), (out_0, grads_0) = runs[2], runs[0]
    assert out_2 == out_0
    assert grads_2.keys() == grads_0.keys() and len(grads_0) == 2 + 30 * cfg.blocks
    for key in grads_0:
        assert grads_2[key] == grads_0[key], key


class Boom(RuntimeError):
    """Raised by a patched encoder branch."""


class TestHelperThread:
    @pytest.mark.parametrize("stage", ["__init__", "backward"])
    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_exception_reaches_the_caller_and_the_helper_is_joined(self, monkeypatch,
                                                                      stage, where):
        cfg, params = _preset_params("tiny")
        x, observed, weight = _case(cfg, 3, seed=61)
        caller = threading.current_thread()
        original = getattr(M._Encoder, stage)

        def patched(*args):
            if (threading.current_thread() is caller) == (where == "caller"):
                raise Boom(f"{where} {stage}")
            time.sleep(0.1)  # still running when the other branch raises
            return original(*args)

        monkeypatch.setattr(M, "PARALLEL_MIN_MACS", 0)
        monkeypatch.setattr(M._Encoder, stage, patched)
        before = threading.active_count()
        with pytest.raises(Boom, match=f"{where} {stage}"):
            _pair_grads(params, cfg, np.stack([x, -x]), observed, np.hstack([weight, weight]))
        assert threading.active_count() == before

    def test_below_the_gate_starts_no_thread(self, monkeypatch):
        cfg, params = _preset_params("desk")
        per_row = cfg.blocks * (4 + 2 * cfg.mlp_ratio) * cfg.d_obs ** 2
        started = []
        monkeypatch.setattr(threading, "Thread", _counting_thread(started))
        # the largest R whose backward stays below the gate: two serial calls
        r = (M.PARALLEL_MIN_MACS - 1) // (2 * per_row)
        observed = np.array([cfg.horizon - 1] * (r // (cfg.horizon - 1)) + [r % (cfg.horizon - 1)])
        observed = observed[observed > 0]
        x = np.random.default_rng(71).standard_normal((2, r, cfg.d_obs))
        _pair_grads(params, cfg, x, observed, np.ones((r, 2 * cfg.d_obs)))
        assert started == []
        # one more row makes the backward threaded, but not the forward
        observed[-1] += 1
        x = np.random.default_rng(72).standard_normal((2, r + 1, cfg.d_obs))
        _pair_grads(params, cfg, x, observed, np.ones((r + 1, 2 * cfg.d_obs)))
        assert started == ["reachcast-helper"]

    def test_desk_forecast_starts_no_thread(self, monkeypatch):
        cfg, params = _preset_params("desk")

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        rng = np.random.default_rng(73)
        frames = rng.uniform(0, 1, (cfg.horizon, cfg.frame_h, cfg.frame_w))
        points = rng.uniform(-0.8, 0.8, (cfg.horizon, cfg.point_dim))
        out = M.forecast(params, cfg, frames, points, cfg.horizon - 1)
        assert out.mean.shape == (cfg.horizon, cfg.point_dim)
