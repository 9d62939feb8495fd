import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast import autodiff as ad
from reachcast import losses as L
from reachcast import model as M
from reachcast import trainer as T
from reachcast.model import ModelConfig


@pytest.fixture(scope="module")
def desk():
    cfg = ModelConfig.desk()
    return cfg, M.init_params(cfg, seed=0)


@pytest.fixture(scope="module")
def tiny():
    cfg = ModelConfig.tiny()
    return cfg, M.init_params(cfg, seed=0)


def random_batch(cfg, n, seed=0, observed=None):
    rng = np.random.default_rng(seed)
    t = cfg.horizon
    frames = rng.uniform(0, 1, (n, t, cfg.frame_h, cfg.frame_w))
    points = rng.uniform(-0.8, 0.8, (n, t, cfg.point_dim))
    if observed is None:
        observed = np.full(n, max(1, round(0.6 * t)))
    return frames, points, np.asarray(observed)


def pack(x, observed):
    """Rows of a padded (N, T, ...) array at each sample's observed steps."""
    return x[M.observed_cells(np.asarray(observed))]


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(d_obs=30, heads=8)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(coordinate_mode="4d")

    def test_prompt_param_formula(self):
        cfg = ModelConfig(frame_h=64, frame_w=64, prompt_width=5)
        assert cfg.n_prompt_params() == (64 + 10) ** 2 - 64 ** 2 == 1380

    def test_point_dim(self):
        assert ModelConfig().point_dim == 3
        assert ModelConfig(coordinate_mode="2d").point_dim == 2


class TestParams:
    def test_counts_per_preset(self):
        expected = {"paper": (ModelConfig(), 12324124, 1224),
                    "desk": (ModelConfig.desk(), 106168, 324),
                    "tiny": (ModelConfig.tiny(), 4612, 90),
                    "desk-2d": (ModelConfig.desk(coordinate_mode="2d"), 101781, 324)}
        for name, (cfg, trainable, frozen) in expected.items():
            params = M.init_params(cfg, seed=1)
            total = sum(t.data.size for _, t in params.items())
            trained = sum(t.data.size for _, t in params.trainable_items())
            assert (trained, total - trained) == (trainable, frozen), name

    def test_frozen_set(self):
        cfg = ModelConfig.tiny()
        params = M.init_params(cfg, seed=0)
        trainable = dict(params.trainable_items())
        assert {n for n, _ in params.items()} - trainable.keys() == {"enc.conv1.k", "enc.conv2.k"}
        # requires_grad is the one record of what trains: no second one to disagree
        params["enc.conv1.k"].requires_grad = True
        assert "enc.conv1.k" in dict(params.trainable_items())

    def test_same_seed_same_weights(self):
        cfg = ModelConfig.tiny()
        a = M.init_params(cfg, seed=5)
        b = M.init_params(cfg, seed=5)
        for (na, ta), (nb, tb) in zip(a.items(), b.items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_checkpoint_round_trip(self, tmp_path, desk):
        cfg, params = desk
        path = tmp_path / "ckpt"
        M.save_checkpoint(params, cfg, path, extra={"epoch": 3})
        loaded, cfg2, extra = M.load_checkpoint(path)
        assert cfg2 == cfg and extra == {"epoch": 3}
        assert ([n for n, _ in loaded.trainable_items()]
                == [n for n, _ in params.trainable_items()])
        for (na, ta), (nb, tb) in zip(params.items(), loaded.items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_checkpoint_load_closes_its_files(self, tmp_path, tiny):
        cfg, params = tiny
        path = tmp_path / "ckpt"
        M.save_checkpoint(params, cfg, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M.load_checkpoint(path)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("mode", M.COORDINATE_MODES)
    @pytest.mark.parametrize("preset", ["tiny", "desk", "paper"])
    def test_layout_is_what_init_builds(self, preset, mode):
        cfg = getattr(ModelConfig, preset)(coordinate_mode=mode)
        params = M.init_params(cfg, seed=0)
        assert M.param_layout(cfg) == tuple((n, t.data.shape) for n, t in params.items())
        assert {n for n, t in params.items() if not t.requires_grad} == set(M.FROZEN)

    @pytest.mark.parametrize("mode", M.COORDINATE_MODES)
    @pytest.mark.parametrize("preset", ["tiny", "desk", "paper"])
    def test_every_tensor_is_a_view_at_its_layout_offset(self, tmp_path, preset, mode):
        cfg = getattr(ModelConfig, preset)(coordinate_mode=mode)
        params = M.init_params(cfg, seed=0)
        M.save_checkpoint(params, cfg, tmp_path / "ckpt")
        for store in (params, M.load_checkpoint(tmp_path / "ckpt")[0]):
            base = store.flat.__array_interface__["data"][0]
            offset = 0
            for (name, shape), (n, t) in zip(M.param_layout(cfg), store.items(), strict=True):
                assert n == name and t.data.base is store.flat and t.data.flags.c_contiguous
                assert t.data.__array_interface__["data"][0] == base + offset * t.data.itemsize
                offset += t.data.size
            assert offset == store.flat.size and store.flat.dtype == cfg.dtype

    @pytest.mark.parametrize("dtype", M.COMPUTE_DTYPES)
    def test_checkpoint_bin_is_the_store_as_float64(self, tmp_path, dtype):
        cfg, params, _ = _stepped_tiny(seed=3, compute_dtype=dtype)
        M.save_checkpoint(params, cfg, tmp_path / "ckpt")
        assert (tmp_path / "ckpt.bin").read_bytes() == params.flat.astype("<f8").tobytes()

    def test_checkpoint_json_holds_config_and_extra_only(self, tmp_path, tiny):
        cfg, params = tiny
        M.save_checkpoint(params, cfg, tmp_path / "ckpt", extra={"epoch": 1})
        assert json.loads((tmp_path / "ckpt.json").read_text()).keys() == {"config", "extra"}


def _add_tensor_list(path, store):
    """Give the checkpoint at ``path`` the .json of the writer before the
    parameter layout: every tensor of ``store``, as written, listed by
    name, offset, shape and frozen flag. Returns that list."""
    entries, offset = [], 0
    for name, t in store.items():
        entries.append({"name": name, "offset": offset, "shape": list(t.data.shape),
                        "frozen": not t.requires_grad})
        offset += t.data.size
    json_path = path.with_suffix(".json")
    doc = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**doc, "params": entries}, indent=1, sort_keys=True) + "\n")
    return entries


def _stepped_tiny(seed, compute_dtype="float64"):
    """A tiny model and its optimizer after two steps on random gradients."""
    cfg = ModelConfig.tiny(compute_dtype=compute_dtype)
    params = M.init_params(cfg, seed=seed)
    opt = T.Adam(params)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        for _, p in params.trainable_items():
            p.grad = rng.standard_normal(p.data.shape).astype(cfg.dtype)
        opt.step(lr=1e-2, clip_norm=T.CLIP_NORM)
    return cfg, params, opt


def _assert_same_store(a, b):
    assert [(n, t.requires_grad) for n, t in a.items()] == [(n, t.requires_grad)
                                                            for n, t in b.items()]
    for (n, ta), (_, tb) in zip(a.items(), b.items()):
        assert ta.data.dtype == tb.data.dtype and ta.data.tobytes() == tb.data.tobytes(), n


class TestCheckpointsWithATensorList:
    """Checkpoints and optimizer states written before the parameter
    layout: their .json also lists every tensor, and that list is ignored."""

    def test_load_bit_identically(self, tmp_path):
        cfg, params, opt = _stepped_tiny(seed=2)
        M.save_checkpoint(params, cfg, tmp_path / "ckpt", extra={"epoch": 2})
        _add_tensor_list(tmp_path / "ckpt", params)
        loaded, cfg2, extra = M.load_checkpoint(tmp_path / "ckpt")
        assert cfg2 == cfg and extra == {"epoch": 2}
        _assert_same_store(params, loaded)
        opt.save(tmp_path / "adam", cfg)
        store = M.Params(T._moment_layout(cfg), cfg.dtype)
        for n in opt.m:
            store[f"m.{n}"].data[...] = opt.m[n]
            store[f"v.{n}"].data[...] = opt.v[n]
        _add_tensor_list(tmp_path / "adam", store)
        back = T.Adam.load(loaded, tmp_path / "adam")
        assert back.t == opt.t == 2 and back.m.keys() == opt.m.keys()
        for n in opt.m:
            assert back.m[n].tobytes() == opt.m[n].tobytes(), n
            assert back.v[n].tobytes() == opt.v[n].tobytes(), n

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda entries: entries[5].update(offset=entries[5]["offset"] + 1),
                     id="offset"),
        pytest.param(lambda entries: entries[3].update(offset=entries[4]["offset"]),
                     id="offset-of-another"),
        pytest.param(lambda entries: entries[3].update(name="vis.fc1.x"), id="renamed"),
        pytest.param(lambda entries: entries[0].update(frozen=False), id="kernel-not-frozen"),
        pytest.param(lambda entries: entries[4].update(shape=[1]), id="shape")])
    def test_edited_list_does_not_change_what_loads(self, tmp_path, tiny, edit):
        cfg, params = tiny
        path = tmp_path / "ckpt"
        M.save_checkpoint(params, cfg, path)
        entries = _add_tensor_list(path, params)
        edit(entries)
        doc = json.loads(path.with_suffix(".json").read_text())
        path.with_suffix(".json").write_text(json.dumps({**doc, "params": entries}))
        _assert_same_store(params, M.load_checkpoint(path)[0])


class TestFrameEncoder:
    def test_output_width_and_determinism(self, desk):
        cfg, params = desk
        frames, _, obs = random_batch(cfg, 2)
        packed = pack(frames, obs)
        a = M.encode_frames(params, cfg, packed).data
        b = M.encode_frames(params, cfg, packed).data
        assert a.shape == (2 * obs[0], cfg.d_obs)
        np.testing.assert_array_equal(a, b)

    def test_zero_prompt_width_matches_bare_frame(self):
        cfg = ModelConfig.tiny(prompt_width=0)
        params = M.init_params(cfg, seed=0)
        frames = np.random.default_rng(0).uniform(0, 1, (cfg.horizon, 8, 8))
        out = M.encode_frames(params, cfg, frames).data
        assert out.shape == (cfg.horizon, cfg.d_obs)
        # prompt has zero parameters; encoding is the frozen path on the frame
        assert params["prompt"].data.size == 0

    def test_size_mismatch_rejected(self, desk):
        cfg, params = desk
        with pytest.raises(ad.ShapeError, match=r"frames \(16, 8, 8\) are not \(R, 16, 16\)"):
            M.encode_frames(params, cfg, np.zeros((cfg.horizon, 8, 8)))

    def test_empty_frame_set_rejected(self, desk):
        cfg, params = desk
        with pytest.raises(ad.ShapeError, match=r"frames \(0, 16, 16\) are not .* R >= 1"):
            M.encode_frames(params, cfg, np.zeros((0, 16, 16)))

    def test_frozen_encoder_gets_no_gradient(self, desk):
        cfg, params = desk
        frames, points, obs = random_batch(cfg, 2)
        params.zero_grads()
        with ad.Graph() as g:
            out = M.forward_batch(params, cfg, frames, points, obs)
            g.backward(ad.reduce_sum(out["mean"]))
        for name in ("enc.conv1.k", "enc.conv2.k"):
            np.testing.assert_array_equal(params[name].grad_or_zeros(), 0.0)
        assert np.any(params["prompt"].grad_or_zeros() != 0)
        assert np.any(params["vis.fc1.w"].grad_or_zeros() != 0)


class TestEmbedPoint:
    def test_deterministic_and_width(self, desk):
        cfg, params = desk
        p = np.array([[0.1, -0.2, 0.4]])
        a = M.embed_points(params, cfg, p).data
        b = M.embed_points(params, cfg, p).data
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, cfg.d_obs)

    def test_zero_weights_zero_embedding(self):
        cfg = ModelConfig.tiny()
        params = M.init_params(cfg, seed=0)
        for name in ("traj.fc1.w", "traj.fc1.b", "traj.fc2.w", "traj.fc2.b"):
            params[name].data[...] = 0.0
        out = M.embed_points(params, cfg, np.ones((2, 3))).data
        np.testing.assert_array_equal(out, 0.0)


def encode(params, cfg, x, observed, branch):
    """``branch``'s half of the paired ``temporal_encode`` of x fed to both
    branches."""
    half = slice(0, cfg.d_obs) if branch == "enc_v" else slice(cfg.d_obs, None)
    return M.temporal_encode(params, cfg, (x, x), observed).data[:, half]


def encode_one_head(x, observed, value=None):
    """``temporal_encode`` with one block and one head, identity attention
    projections and a zero MLP, so that each output row is
    ``ln_ln(u + a)``: u the input row plus its position, a its attention
    output. ``value`` makes every value row that constant. Returns the
    output and u."""
    d = x.shape[1]
    cfg = ModelConfig.tiny(d_obs=d, blocks=1, heads=1)
    params = M.init_params(cfg, seed=0)  # biases start zero and gains one
    for proj in ("wq", "wk", "wv", "wo"):
        params[f"enc_v.0.attn.{proj}.w"].data[...] = np.eye(d)
    for fc in ("fc1", "fc2"):
        params[f"enc_v.0.mlp.{fc}.w"].data[...] = 0.0
    if value is not None:
        params["enc_v.0.attn.wv.w"].data[...] = 0.0
        params["enc_v.0.attn.wv.b"].data[...] = value
    observed = np.asarray(observed)
    out = encode(params, cfg, ad.constant(x), observed, "enc_v")
    steps = M.observed_cells(observed)[1]
    return out, x + M.positional_encoding(int(observed.max()), d, cfg.dtype)[steps]


def ln_ln(v):
    """The block's two layer norms at unit gain and zero bias."""
    ones, zeros = np.ones(v.shape[-1]), np.zeros(v.shape[-1])
    for _ in range(2):
        v = ad.layer_norm_fwd(v, ones, zeros)[0]
    return v


class TestMaskedAttention:
    def test_masked_position_has_no_influence(self):
        # C = [1, 2]: sample 0's key at step 1 is an empty, masked grid cell,
        # so its one query attends to its own key alone and reads back its
        # own value exactly; sample 1's second key is live
        x = np.random.default_rng(0).standard_normal((3, 4))
        out, u = encode_one_head(x, [1, 2])
        np.testing.assert_array_equal(out[0], ln_ln(u[0] + u[0]))
        assert np.max(np.abs(out[1] - ln_ln(u[1] + u[1]))) > 1e-3

    def test_equal_values_give_value(self):
        x = np.random.default_rng(1).standard_normal((3, 4))
        value = np.array([1.0, 2.0, 3.0, 4.0])
        out, u = encode_one_head(x, [3], value=value)
        np.testing.assert_allclose(out, ln_ln(u + value), atol=1e-12)

    def test_single_key_returns_value(self):
        out, u = encode_one_head(np.array([[0.7, -0.3, 0.2, 1.1]]), [1])
        np.testing.assert_array_equal(out, ln_ln(u + u))

    def test_count_out_of_range(self, tiny):
        cfg, params = tiny
        for observed in ([3, cfg.horizon], [0, 3]):
            frames, points, obs = random_batch(cfg, 2, observed=observed)
            with pytest.raises(ValueError):
                M.forward_batch(params, cfg, frames, points, obs)


class TestTemporalEncode:
    def test_future_slots_do_not_leak(self, desk):
        # with C = [5, 7], sample 0's steps 5 and 6 are empty grid cells inside
        # attention; its rows must equal those of sample 0 encoded alone
        cfg, params = desk
        rng = np.random.default_rng(3)
        obs = np.array([5, 7])
        x = rng.standard_normal((obs.sum(), cfg.d_obs))
        base = encode(params, cfg, ad.constant(x), obs, "enc_v")
        bounds = np.cumsum([0, *obs])
        for i in range(len(obs)):
            rows = slice(bounds[i], bounds[i + 1])
            alone = encode(params, cfg, ad.constant(x[rows]), obs[i : i + 1], "enc_v")
            np.testing.assert_array_equal(base[rows], alone)

    def test_output_width(self, desk):
        cfg, params = desk
        x = ad.constant(np.zeros((6, cfg.d_obs)))
        out = M.temporal_encode(params, cfg, (x, x), np.array([4, 2]))
        assert out.shape == (6, 2 * cfg.d_obs)

    def test_zero_blocks_degenerates_to_input_plus_pe(self):
        cfg = ModelConfig.tiny(blocks=0)
        params = M.init_params(cfg, seed=0)
        obs = np.array([4, 2])
        x = np.random.default_rng(0).standard_normal((6, cfg.d_obs))
        out = encode(params, cfg, ad.constant(x), obs, "enc_v")
        _, steps = M.observed_cells(obs)
        pe = M.positional_encoding(4, cfg.d_obs, cfg.dtype)
        np.testing.assert_array_equal(out, x + pe[steps])


    def test_emission_reads_the_trajectory_half(self, desk, monkeypatch):
        # forward_batch hands the emission the temporal op's full rows, and
        # the emission's outputs do not move with their visual half
        cfg, params = desk
        frames, points, obs = random_batch(cfg, 2, seed=5, observed=[3, 6])
        seen, emit = {}, M.emit

        def spy(params, cfg, z, o, observed):
            seen["z"], seen["o"] = z, o.data
            return emit(params, cfg, z, o, observed)

        monkeypatch.setattr(M, "emit", spy)
        M.forward_batch(params, cfg, frames, points, obs)
        x = (M.encode_frames(params, cfg, pack(frames, obs)),
             M.embed_points(params, cfg, pack(points, obs)))
        o = M.temporal_encode(params, cfg, x, obs).data
        np.testing.assert_array_equal(seen["o"], o)
        other = o.copy()
        other[:, : cfg.d_obs] = np.random.default_rng(6).standard_normal((len(o), cfg.d_obs))
        for a, b in zip(emit(params, cfg, seen["z"], ad.constant(o), obs),
                        emit(params, cfg, seen["z"], ad.constant(other), obs)):
            np.testing.assert_array_equal(a.data, b.data)


class TestPositionalEncoding:
    def test_cached_read_only_table(self):
        pe = M.positional_encoding(7, 6, np.float64)
        assert M.positional_encoding(7, 6, np.float64) is pe
        i = np.arange(6)
        angle = np.arange(7)[:, None] / np.power(10000.0, (2 * (i // 2)) / 6)
        np.testing.assert_array_equal(pe, np.where(i % 2 == 0, np.sin(angle), np.cos(angle)))
        with pytest.raises(ValueError, match="read-only"):
            pe[0, 0] = 1.0


class TestTransition:
    def test_shape_and_determinism(self, desk):
        cfg, params = desk
        rng = np.random.default_rng(5)
        obs = np.array([4, 6])
        h = ad.constant(rng.standard_normal((obs.sum(), cfg.d_z)))
        a = M.transition(params, cfg, h, obs, horizon=cfg.horizon).data
        b = M.transition(params, cfg, h, obs, horizon=cfg.horizon).data
        assert a.shape == (2, cfg.horizon, cfg.d_z)
        np.testing.assert_array_equal(a, b)

    def test_observed_context_reaches_latents(self, desk):
        # finite perturbation of any observed h row must move some latent
        cfg, params = desk
        rng = np.random.default_rng(7)
        h_np = rng.standard_normal((5, cfg.d_z))
        obs = np.array([5])
        base = M.transition(params, cfg, ad.constant(h_np), obs, horizon=cfg.horizon).data
        for slot in range(5):
            h2 = h_np.copy()
            h2[slot] += 1e-3
            out = M.transition(params, cfg, ad.constant(h2), obs, horizon=cfg.horizon).data
            assert np.max(np.abs(out - base)) > 0, f"slot {slot} had no effect"


class TestEmitAndVelocity:
    def test_uncertainties_nonnegative_any_weights(self):
        cfg = ModelConfig.tiny()
        for seed in range(3):
            params = M.init_params(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            z = ad.constant(rng.standard_normal((2, cfg.horizon, cfg.d_z)) * 3)
            o = ad.constant(rng.standard_normal((7, 2 * cfg.d_obs)) * 3)  # C = 2 and 5
            mean, alpha, beta = M.emit(params, cfg, z, o, np.array([2, 5]))
            assert np.all(alpha.data >= 0) and np.all(beta.data >= 0)
            assert np.all(np.abs(mean.data) < 1.0)

    def test_2d_mode_shapes(self):
        cfg = ModelConfig.tiny(coordinate_mode="2d")
        params = M.init_params(cfg, seed=0)
        frames, points, obs = random_batch(cfg, 2, seed=1)
        out = M.forward_batch(params, cfg, frames, points, obs)
        assert out["mean"].shape[-1] == 2
        assert out["beta"] is None
        assert out["velocity"].shape[-1] == 2

    def test_velocity_zero_final_layer(self):
        cfg = ModelConfig.tiny()
        params = M.init_params(cfg, seed=0)
        params["vel.fc2.w"].data[...] = 0.0
        params["vel.fc2.b"].data[...] = 0.0
        z = ad.constant(np.random.default_rng(0).standard_normal((1, 4, cfg.d_z)))
        np.testing.assert_array_equal(M.velocity_head(params, cfg, z).data, 0.0)

    def test_velocity_width_matches_mode(self):
        for mode, width in (("global-3d", 3), ("2d", 2)):
            cfg = ModelConfig.tiny(coordinate_mode=mode)
            params = M.init_params(cfg, seed=0)
            z = ad.constant(np.zeros((1, 2, cfg.d_z)))
            assert M.velocity_head(params, cfg, z).shape == (1, 2, width)


class TestForecast:
    def test_full_horizon_and_fields(self, desk):
        cfg, params = desk
        frames, points, _ = random_batch(cfg, 1, seed=9)
        out = M.forecast(params, cfg, frames[0], points[0], observed_count=7)
        t = cfg.horizon
        assert out.mean.shape == (t, 3) and out.velocity.shape == (t, 3)
        assert out.alpha.shape == (t,) and out.beta.shape == (t,)

    def test_bit_identical_repeat(self, desk):
        cfg, params = desk
        frames, points, _ = random_batch(cfg, 1, seed=11)
        a = M.forecast(params, cfg, frames[0], points[0], 7)
        b = M.forecast(params, cfg, frames[0], points[0], 7)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.velocity, b.velocity)

    def test_causality_exact(self, desk):
        cfg, params = desk
        frames, points, _ = random_batch(cfg, 1, seed=13)
        c = 7
        base = M.forecast(params, cfg, frames[0], points[0], c)
        rng = np.random.default_rng(99)
        frames2, points2 = frames[0].copy(), points[0].copy()
        frames2[c:] = rng.uniform(0, 1, frames2[c:].shape)
        points2[c:] = rng.uniform(-1, 1, points2[c:].shape)
        moved = M.forecast(params, cfg, frames2, points2, c)
        np.testing.assert_array_equal(base.mean, moved.mean)
        np.testing.assert_array_equal(base.alpha, moved.alpha)
        np.testing.assert_array_equal(base.beta, moved.beta)
        np.testing.assert_array_equal(base.velocity, moved.velocity)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_batched_causality_with_mixed_counts_and_padding(self, tiny, data):
        # every sample's outputs ignore its own inputs at steps >= C_i, for any
        # batch size, per-sample C and padded length, perturbed or not
        cfg, params = tiny
        t = cfg.horizon
        n = data.draw(st.integers(1, 3), label="n")
        lengths = data.draw(st.lists(st.integers(2, t), min_size=n, max_size=n), label="lengths")
        observed = [data.draw(st.integers(1, length - 1), label="C") for length in lengths]
        perturb = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="perturb")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        frames = np.zeros((n, t, cfg.frame_h, cfg.frame_w))
        points = np.zeros((n, t, cfg.point_dim))
        for i, length in enumerate(lengths):
            frames[i, :length] = rng.uniform(0, 1, (length, cfg.frame_h, cfg.frame_w))
            points[i, :length] = rng.uniform(-0.8, 0.8, (length, cfg.point_dim))
        frames2, points2 = frames.copy(), points.copy()
        for i, c in enumerate(observed):
            if perturb[i]:
                frames2[i, c:] = rng.uniform(0, 1, frames2[i, c:].shape)
                points2[i, c:] = rng.uniform(-1, 1, points2[i, c:].shape)
        observed, lengths = np.array(observed), np.array(lengths)
        base = M.forward_batch(params, cfg, frames, points, observed, lengths)
        moved = M.forward_batch(params, cfg, frames2, points2, observed, lengths)
        for key in ("mean", "alpha", "beta", "velocity"):
            np.testing.assert_array_equal(base[key].data, moved[key].data, err_msg=key)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_batch_rows_equal_single_sample_forecasts(self, tiny, data):
        # packing depends on the batch; each sample's outputs must not
        cfg, params = tiny
        t = cfg.horizon
        n = data.draw(st.integers(1, 3), label="n")
        lengths = data.draw(st.lists(st.integers(2, t), min_size=n, max_size=n), label="lengths")
        observed = [data.draw(st.integers(1, length - 1), label="C") for length in lengths]
        frames, points, _ = random_batch(cfg, n, seed=data.draw(st.integers(0, 2**32 - 1)))
        for i, length in enumerate(lengths):
            frames[i, length:], points[i, length:] = 0.0, 0.0
        out = M.forward_batch(params, cfg, frames, points, np.array(observed), np.array(lengths))
        for i, (length, c) in enumerate(zip(lengths, observed)):
            one = M.forecast(params, cfg, frames[i, :length], points[i, :length], c)
            np.testing.assert_allclose(out["mean"].data[i, :length], one.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out["alpha"].data[i, :length, 0], one.alpha, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(out["beta"].data[i, :length, 0], one.beta, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(out["velocity"].data[i, :length], one.velocity, rtol=0,
                                       atol=1e-12)

    def test_observed_count_bounds(self, desk):
        cfg, params = desk
        frames, points, _ = random_batch(cfg, 1)
        with pytest.raises(ValueError):
            M.forecast(params, cfg, frames[0], points[0], 0)
        with pytest.raises(ValueError):
            M.forecast(params, cfg, frames[0], points[0], cfg.horizon)

    def test_frame_scaling_leaves_trajectory_branch_alone(self, desk):
        cfg, params = desk
        frames, points, obs = random_batch(cfg, 1, seed=17)
        x_t1 = M.embed_points(params, cfg, pack(points, obs)).data
        x_t2 = M.embed_points(params, cfg, pack(points, obs)).data
        np.testing.assert_array_equal(x_t1, x_t2)
        # scaling pixels only affects the visual branch
        v1 = M.encode_frames(params, cfg, pack(frames, obs))
        v2 = M.encode_frames(params, cfg, pack(frames, obs) * 0.5)
        assert np.any(v1.data != v2.data)
        o1 = M.temporal_encode(params, cfg, (v1, ad.constant(x_t1)), obs).data
        o2 = M.temporal_encode(params, cfg, (v2, ad.constant(x_t2)), obs).data
        d = cfg.d_obs
        assert np.any(o1[:, :d] != o2[:, :d])
        np.testing.assert_array_equal(o1[:, d:], o2[:, d:])


class TestGradientFlow:
    def test_every_trainable_group_receives_gradient(self, desk):
        cfg, params = desk
        frames, points, obs = random_batch(cfg, 3, seed=19)
        params.zero_grads()
        with ad.Graph() as g:
            out = M.forward_batch(params, cfg, frames, points, obs)
            valid = np.ones((3, cfg.horizon), bool)
            total, _, _ = L.total_batch(out, points, obs, valid, L.LossConfig())
            g.backward(total)
        silent = [n for n, t in params.trainable_items()
                  if t.grad is None or not np.any(t.grad)]
        assert silent == [], f"no gradient reached: {silent}"

    def test_finite_differences_with_mixed_observed_counts(self, tiny):
        cfg, params = tiny
        frames, points, obs = random_batch(cfg, 2, seed=23, observed=[2, 5])
        valid = np.ones((2, cfg.horizon), bool)

        def build():
            out = M.forward_batch(params, cfg, frames, points, obs)
            total, _, _ = L.total_batch(out, points, obs, valid, L.LossConfig())
            return total

        entries = ad.check_gradients(build, dict(params.trainable_items()), step=1e-4,
                                     tolerance=1e-3, max_checks_per_tensor=4, seed=1)
        assert all(e.passed for e in entries), entries

    def test_finite_differences_2d_mode(self):
        # 2d mode has no depth head and no depth weights
        cfg = ModelConfig.tiny(coordinate_mode="2d")
        params = M.init_params(cfg, seed=0)
        frames, points, obs = random_batch(cfg, 2, seed=24, observed=[2, 5])
        valid = np.ones((2, cfg.horizon), bool)

        def build():
            out = M.forward_batch(params, cfg, frames, points, obs)
            assert out["beta"] is None
            total, _, _ = L.total_batch(out, points, obs, valid, L.LossConfig())
            return total

        entries = ad.check_gradients(build, dict(params.trainable_items()), step=1e-4,
                                     tolerance=1e-3, max_checks_per_tensor=4, seed=1)
        assert all(e.passed for e in entries), entries
        assert {e.name for e in entries} >= {"emit.reembed.w", "traj.fc1.w"}


def test_desk_training_step_tape_budget(desk):
    # one fixed desk step (C from 2 to 13) may not grow past its 58 tape records.
    # The model makes 20: one ad.custom record each for the visual branch (the
    # frozen frame encoder and its MLP), both temporal encoders, the transition
    # and the emission, which read the encoders' packed rows with no record
    # between (the emission takes the temporal op's rows whole); the small MLPs
    # and layer norms around them; and one slice per emission output. The loss
    # makes the other 38.
    cfg, params = desk
    observed = np.random.default_rng(0).integers(2, 14, size=32)
    assert (observed.min(), observed.max()) == (2, 13)
    frames, points, obs = random_batch(cfg, 32, seed=29, observed=observed)
    valid = np.ones((32, cfg.horizon), bool)
    with ad.Graph() as g:
        out = M.forward_batch(params, cfg, frames, points, obs)
        total, _, _ = L.total_batch(out, points, obs, valid, L.LossConfig())
    assert len(g) <= 58


# (config, observed counts or None for random_batch's default). The paper
# case's R = 42 frame rows cross both thread gates, forward and backward.
OWNERSHIP_CASES = {"tiny": (ModelConfig.tiny, None), "desk": (ModelConfig.desk, None),
                   "desk-2d": (lambda: ModelConfig.desk(coordinate_mode="2d"), None),
                   "paper": (lambda: ModelConfig.paper(horizon=24), [20, 2, 20])}


@pytest.mark.parametrize("name", sorted(OWNERSHIP_CASES))
def test_fused_backwards_hand_over_arrays_they_share_with_nothing(monkeypatch, name):
    # ad.custom accumulates each gradient a backward returns without a copy,
    # so none may share memory with another, with g, or with an input's data
    make, observed = OWNERSHIP_CASES[name]
    cfg = make()
    params = M.init_params(cfg, seed=0)
    records, custom = [], ad.custom

    def capture(out_data, inputs, backward):
        records.append((out_data, tuple(inputs), backward))
        return custom(out_data, inputs, backward)

    monkeypatch.setattr(ad, "custom", capture)
    frames, points, obs = random_batch(cfg, 3, seed=37, observed=observed)
    with ad.Graph():
        M.forward_batch(params, cfg, frames, points, obs)
    ops = [backward.__qualname__ for _, _, backward in records]
    assert ops == ["_Visual.backward", "temporal_encode.<locals>.backward",
                   "_Rollout.backward", "_Emission.backward"]
    rng = np.random.default_rng(38)
    for op, (out, inputs, backward) in zip(ops, records):
        g = rng.standard_normal(out.shape).astype(cfg.dtype)
        grads = backward(g)
        assert len(grads) == len(inputs) and all(a is not None for a in grads), op
        for i, a in enumerate(grads):
            assert not np.shares_memory(a, g), (op, i)
            assert not any(np.shares_memory(a, t.data) for t in inputs), (op, i)
            assert not any(np.shares_memory(a, b) for b in grads[i + 1 :]), (op, i)


@pytest.fixture(scope="module", params=["tiny", "desk"])
def float32_pair(request):
    """A float32 model and a float64 model holding the same (rounded) weights."""
    make = getattr(ModelConfig, request.param)
    cfg32, cfg64 = make(compute_dtype="float32"), make()
    p32, p64 = M.init_params(cfg32, seed=0), M.init_params(cfg64, seed=0)
    for (_, a), (_, b) in zip(p32.items(), p64.items()):
        np.testing.assert_array_equal(a.data, b.data.astype(np.float32))  # rounded once
        b.data[...] = a.data
    return cfg32, p32, cfg64, p64


def _step(params, cfg, seed=31):
    """Forward, loss and backward of one batch with mixed observed counts, in
    the config's dtype; returns (outputs, tape records, gradients by name)."""
    frames, points, obs = random_batch(cfg, 3, seed=seed,
                                       observed=[1, cfg.horizon // 2, cfg.horizon - 1])
    frames, points = frames.astype(cfg.dtype), points.astype(cfg.dtype)
    params.zero_grads()
    with ad.Graph() as g:
        out = M.forward_batch(params, cfg, frames, points, obs)
        total, _, _ = L.total_batch(out, points, obs, np.ones((3, cfg.horizon), bool),
                                    L.LossConfig())
        g.backward(total)
    return out, g._records, {n: t.grad for n, t in params.trainable_items()}


class TestComputeDtype:
    def test_presets(self):
        assert ModelConfig.paper().dtype == np.float32
        for cfg in (ModelConfig(), ModelConfig.desk(), ModelConfig.tiny()):
            assert cfg.dtype == np.float64
        with pytest.raises(ValueError, match="compute_dtype"):
            ModelConfig.tiny(compute_dtype="float16")

    def test_every_record_and_gradient_is_float32(self, float32_pair):
        cfg, params, _, _ = float32_pair
        _, records, grads = _step(params, cfg)
        assert {out.data.dtype for out, _, _ in records} == {np.dtype(np.float32)}
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    def test_float32_agrees_with_float64_at_the_same_weights(self, float32_pair):
        # measured on tiny and desk: outputs within 8e-7, gradients within
        # 2.2e-6 of their norm; the bounds leave a margin of 10x or more
        cfg32, p32, cfg64, p64 = float32_pair
        out32, _, g32 = _step(p32, cfg32)
        out64, _, g64 = _step(p64, cfg64)
        for k in ("mean", "alpha", "beta", "velocity"):
            assert np.max(np.abs(out32[k].data - out64[k].data)) <= 1e-5, k
        for n in g64:
            err = np.linalg.norm(g32[n] - g64[n]) / np.linalg.norm(g64[n])
            assert err <= 1e-4, n

    def test_float32_forecast_ignores_inputs_past_c(self, float32_pair):
        # float64 inputs are cast at entry; the -1e9 key mask still gives
        # exactly zero weight in float32
        cfg, params, _, _ = float32_pair
        frames, points, _ = random_batch(cfg, 1, seed=13)
        c = cfg.horizon // 2
        base = M.forecast(params, cfg, frames[0], points[0], c)
        frames[0, c:], points[0, c:] = 0.5, -0.5
        moved = M.forecast(params, cfg, frames[0], points[0], c)
        assert base.mean.dtype == np.float32
        for k in ("mean", "alpha", "beta", "velocity"):
            np.testing.assert_array_equal(getattr(base, k), getattr(moved, k))

    def test_mixed_dtype_inputs_fail_loudly(self, float32_pair):
        # float64 masks and tables must not promote a float32 graph
        cfg32, p32, cfg64, _ = float32_pair
        frames, points, obs = random_batch(cfg64, 2)
        with pytest.raises(ad.DTypeError):
            M.forward_batch(p32, cfg64, frames, points, obs)

    def test_checkpoint_round_trip_is_bit_exact(self, tmp_path, float32_pair):
        cfg, params, _, _ = float32_pair
        path = tmp_path / "ckpt"
        M.save_checkpoint(params, cfg, path)
        n_values = sum(t.data.size for _, t in params.items())
        assert (tmp_path / "ckpt.bin").stat().st_size == 8 * n_values
        loaded, cfg2, _ = M.load_checkpoint(path)
        assert cfg2 == cfg
        for (_, a), (_, b) in zip(params.items(), loaded.items()):
            assert b.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    def test_checkpoint_without_compute_dtype_loads_float64(self, tmp_path, float32_pair):
        cfg, params, _, _ = float32_pair
        path = tmp_path / "ckpt"
        M.save_checkpoint(params, cfg, path)
        doc = json.loads(path.with_suffix(".json").read_text())
        del doc["config"]["compute_dtype"]
        path.with_suffix(".json").write_text(json.dumps(doc))
        loaded, cfg2, _ = M.load_checkpoint(path)
        assert cfg2.compute_dtype == "float64"
        for (_, a), (_, b) in zip(params.items(), loaded.items()):
            assert b.data.dtype == np.float64
            np.testing.assert_array_equal(a.data, b.data)
