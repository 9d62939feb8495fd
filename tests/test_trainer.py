import math
import sys
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast import cli
from reachcast import losses as L
from reachcast import model as M
from reachcast import trainer as T
from reachcast.datagen import (
    DESK_INTRINSICS,
    GenOptions,
    TrajectorySample,
    gen_dataset,
    read_dataset,
    split_samples,
    write_dataset,
)
from reachcast.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    PoseChain,
    normalize_pixel,
    project,
)
from reachcast.trainer import (
    Adam,
    MetricsRow,
    TrainConfig,
    constant_velocity_baseline,
    denormalize,
    evaluate,
    evaluate_baseline,
    fit,
    lr_at,
    normalize,
    observation_count,
)


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = M.ModelConfig.tiny(horizon=10)
    opts = GenOptions(t_min=8, t_max=10, split_counts=(24, 4, 8, 4),
                      intrinsics=_tiny_intrinsics())
    samples, manifest = gen_dataset(40, master_seed=21, options=opts)
    norm = (np.array(manifest["norm"]["min"]), np.array(manifest["norm"]["max"]))
    return cfg, samples, manifest, norm


def _counting_thread(started):
    """A ``threading.Thread`` that appends its name to ``started`` on start."""
    class Counting(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()
    return Counting


def _tiny_intrinsics():
    from reachcast.geometry import CameraIntrinsics
    return CameraIntrinsics(fx=8.0, fy=8.0, ox=4.0, oy=4.0, width=8, height=8)


class TestNormalize:
    LO = np.array([0.0, -1.0, 2.0])
    HI = np.array([2.0, 1.0, 6.0])

    def test_extremes(self):
        np.testing.assert_array_equal(normalize(self.LO, self.LO, self.HI), [-1, -1, -1])
        np.testing.assert_array_equal(normalize(self.HI, self.LO, self.HI), [1, 1, 1])

    def test_midpoint(self):
        np.testing.assert_array_equal(normalize((self.LO + self.HI) / 2, self.LO, self.HI), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(self.LO, self.HI, size=(50, 3))
        back = denormalize(normalize(pts, self.LO, self.HI), self.LO, self.HI)
        assert np.max(np.abs(back - pts)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        # denormalize inverts normalize for any non-degenerate range, inside it or not
        coord = st.floats(-10.0, 10.0)
        lo = np.array(data.draw(st.lists(coord, min_size=3, max_size=3), label="lo"))
        span = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3),
                                  label="span"))
        hi = lo + span
        pts = np.array(data.draw(st.lists(st.lists(st.floats(-20.0, 20.0), min_size=3,
                                                   max_size=3), min_size=1, max_size=8),
                                 label="points"))
        np.testing.assert_allclose(denormalize(normalize(pts, lo, hi), lo, hi), pts,
                                   rtol=0, atol=1e-12)
        unit = np.clip(pts / 20.0, -1.0, 1.0)
        np.testing.assert_allclose(normalize(denormalize(unit, lo, hi), lo, hi), unit,
                                   rtol=0, atol=1e-9)

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            normalize(self.LO, self.LO, self.LO)
        with pytest.raises(ValueError):
            denormalize(self.LO, self.LO, self.LO)


@pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0), dict(lr=-1.0),
                                dict(lr=0.0)])
def test_train_config_refuses_bad_values(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)


class TestObservationCount:
    def test_fixed_examples(self):
        cfg = TrainConfig(observation_ratio=0.6)
        assert observation_count(40, cfg) == 24
        assert observation_count(2, cfg) == 1

    def test_clamps_both_ends(self):
        assert observation_count(2, TrainConfig(observation_ratio=0.01)) == 1
        assert observation_count(10, TrainConfig(observation_ratio=0.99)) == 9

    def test_random_bounds_exhaustive(self):
        cfg = TrainConfig(observation_mode="random")
        rng = np.random.default_rng(0)
        counts = {observation_count(10, cfg, rng) for _ in range(1000)}
        assert min(counts) >= 1 and max(counts) <= 9

    def test_random_needs_rng(self):
        cfg = TrainConfig(observation_mode="random")
        with pytest.raises(ValueError):
            observation_count(10, cfg)


class TestSchedule:
    def test_warmup_then_cosine(self):
        cfg = TrainConfig(lr=1e-3, warmup_epochs=5, epochs=50)
        assert lr_at(0, cfg) == pytest.approx(1e-3 / 5)
        assert lr_at(4, cfg) == pytest.approx(1e-3)
        assert lr_at(5, cfg) == pytest.approx(1e-3)
        mid = lr_at(5 + 22, cfg)
        assert 0 < mid < 1e-3
        assert lr_at(49, cfg) < lr_at(30, cfg) < lr_at(10, cfg)

    def test_no_warmup(self):
        cfg = TrainConfig(lr=1e-3, warmup_epochs=0, epochs=10)
        assert lr_at(0, cfg) == pytest.approx(1e-3)


class TestAdamAndFit:
    def test_loss_decreases_median_of_three_seeds(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        train = split_samples(samples, manifest, "train")
        drops = []
        for seed in range(3):
            params = M.init_params(cfg, seed=seed)
            tc = TrainConfig(lr=3e-3, warmup_epochs=2, epochs=12, batch_size=12, seed=seed)
            history, _ = fit(params, cfg, train, norm, tc)
            drops.append(history[-1][1] - history[0][1])
        assert np.median(drops) < 0

    def test_frozen_weights_byte_identical(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        train = split_samples(samples, manifest, "train")[:12]
        params = M.init_params(cfg, seed=0)
        before = {n: t.data.tobytes() for n, t in params.items() if not t.requires_grad}
        assert before
        fit(params, cfg, train, norm, TrainConfig(lr=1e-3, warmup_epochs=1, epochs=2,
                                                  batch_size=12, seed=0))
        for n, blob in before.items():
            assert params[n].data.tobytes() == blob

    def test_same_seed_identical_final_loss(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        train = split_samples(samples, manifest, "train")[:12]
        finals = []
        for _ in range(2):
            params = M.init_params(cfg, seed=3)
            tc = TrainConfig(lr=1e-3, warmup_epochs=1, epochs=3, batch_size=8, seed=7)
            history, _ = fit(params, cfg, train, norm, tc)
            finals.append(history[-1][1])
        assert finals[0] == finals[1]

    def test_empty_split_rejected(self, tiny_setup):
        cfg, _, _, norm = tiny_setup
        params = M.init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            fit(params, cfg, [], norm, TrainConfig())

    def test_adam_moves_only_trainable(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        params = M.init_params(cfg, seed=0)
        opt = Adam(params)
        for _, p in params.trainable_items():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.1, clip_norm=10.0)
        assert params["enc.conv1.k"].grad is None

    @pytest.mark.parametrize("name, requires_grad", [
        ("enc.conv1.k", True), ("vis.fc1.w", False), ("vel.fc2.b", False)],
        ids=["frozen-head-trains", "tail-tensor-frozen", "last-tensor-frozen"])
    def test_adam_refuses_trainable_tensors_that_are_not_one_tail(self, name, requires_grad):
        params = M.init_params(M.ModelConfig.tiny(), seed=0)
        params[name].requires_grad = requires_grad
        with pytest.raises(ValueError, match="trainable tensors are not one tail"):
            Adam(params)

    @pytest.mark.parametrize("name, requires_grad", [
        ("vis.fc1.w", False), ("enc.conv1.k", True)], ids=["frozen-later", "unfrozen-later"])
    def test_adam_refuses_a_trainable_set_changed_after_construction(self, name,
                                                                      requires_grad):
        # the chunk plan covers the tensors trainable when Adam was built: a
        # flag flipped afterwards is named, and nothing is updated
        params = M.init_params(M.ModelConfig.tiny(), seed=0)
        opt = Adam(params)
        for _, p in params.trainable_items():
            p.grad = np.ones_like(p.data)
        before = params.flat.copy()
        params[name].requires_grad = requires_grad
        with pytest.raises(ValueError, match=rf"requires_grad of {name} changed"):
            opt.step(lr=0.1, clip_norm=10.0)
        np.testing.assert_array_equal(params.flat, before)
        assert opt.t == 0

    def test_adam_steps_the_tail_of_the_store(self):
        store = M.Params([("enc.conv1.k", (2, 3)), ("a", (4,)), ("b", (2, 2))], np.float64)
        assert [n for n, _ in store.trainable_items()] == ["a", "b"]
        opt = Adam(store)
        assert opt._tail.base is store.flat and opt._tail.size == 8
        store["a"].grad, store["b"].grad = np.ones(4), np.ones((2, 2))
        opt.step(lr=0.1, clip_norm=10.0)
        np.testing.assert_array_equal(store.flat[:6], 0.0)
        assert np.all(store.flat[6:] < 0)

    @pytest.mark.parametrize("clip_norm", [pytest.param(1e3, id="unclipped"), 0.5])
    @pytest.mark.parametrize("chunk", [pytest.param(Adam.CHUNK_BYTES // 8, id="default"), 1000])
    def test_adam_in_place_matches_allocating_update(self, clip_norm, chunk, monkeypatch):
        # the chunked in-place step against the per-tensor allocating form it
        # replaced, bit for bit; desk is float64, so the byte budget gives
        # chunks of budget / 8 elements: the default one, and 1000-element
        # chunks that split desk's larger tensors and pack its small ones
        monkeypatch.setattr(Adam, "CHUNK_BYTES", chunk * 8)
        cfg = M.ModelConfig.desk()
        params = M.init_params(cfg, seed=0)
        ref = {n: p.data.copy() for n, p in params.trainable_items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        opt = Adam(params)
        covered = [(i, a, b) for lo, hi, pieces in opt._chunks for i, a, b in pieces]
        assert all(hi - lo <= chunk for lo, hi, _ in opt._chunks)
        assert sum(b - a for _, a, b in covered) == sum(a.size for a in ref.values())
        assert any(len(pieces) > 1 for *_, pieces in opt._chunks)
        rng = np.random.default_rng(4)
        for t in range(1, 5):
            grads = {n: rng.standard_normal(a.shape) * 0.1 for n, a in ref.items()}
            for n, p in params.trainable_items():
                p.grad = grads[n].copy()
            opt.step(lr=1e-3 * t, clip_norm=clip_norm)
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            assert (total > clip_norm) == (clip_norm == 0.5)  # 1e3 lies above the norm
            if total > clip_norm:
                grads = {n: g * (clip_norm / total) for n, g in grads.items()}
            for n, g in grads.items():
                m[n] = 0.9 * m[n] + (1 - 0.9) * g
                v[n] = 0.999 * v[n] + (1 - 0.999) * g * g
                ref[n] -= (1e-3 * t) * (m[n] / (1 - 0.9**t)) / (np.sqrt(v[n] / (1 - 0.999**t))
                                                                + 1e-8)
        for n, p in params.trainable_items():
            np.testing.assert_array_equal(p.data, ref[n], err_msg=n)
            np.testing.assert_array_equal(opt.m[n], m[n], err_msg=n)
            np.testing.assert_array_equal(opt.v[n], v[n], err_msg=n)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("clip_norm", [pytest.param(1e3, id="unclipped"), 0.5])
    @pytest.mark.parametrize("chunk", [None, 1000], ids=["default-chunk", "1000-chunk"])
    def test_adam_threaded_and_serial_steps_byte_equal(self, dtype, clip_norm, chunk,
                                                        monkeypatch):
        # the gate forced both ways on a desk store in float64 and in the
        # paper's float32; 1000-element chunks split desk's larger tensors
        # (read as views) and pack its small ones (gathered). A short switch
        # interval interleaves the two threads' numpy calls finely.
        cfg = M.ModelConfig.desk(compute_dtype=dtype)
        if chunk:
            monkeypatch.setattr(Adam, "CHUNK_BYTES", chunk * cfg.dtype.itemsize)
        rng = np.random.default_rng(8)
        shapes = {n: p.data.shape for n, p in M.init_params(cfg, seed=0).trainable_items()}
        grads = [{n: (rng.standard_normal(s) * 0.1).astype(dtype) for n, s in shapes.items()}
                 for _ in range(3)]
        assert all((np.sqrt(sum(float(np.sum(x.astype(np.float64) ** 2)) for x in g.values()))
                    > clip_norm) == (clip_norm == 0.5) for g in grads)
        started = []
        monkeypatch.setattr(threading, "Thread", _counting_thread(started))
        states = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for gate in (0, np.inf):  # threaded, then serial
                monkeypatch.setattr(Adam, "PARALLEL_MIN_BYTES", gate)
                params = M.init_params(cfg, seed=0)
                opt = Adam(params)
                kinds = {len(pieces) > 1 for *_, pieces in opt._chunks}
                assert kinds == ({True, False} if chunk else {True})
                assert 0 < opt._half_chunk < len(opt._chunks)
                for g in grads:
                    for n, p in params.trainable_items():
                        p.grad = g[n]
                    opt.step(lr=1e-3, clip_norm=clip_norm)
                states.append([params.flat.tobytes(), opt._m.tobytes(), opt._v.tobytes(),
                               opt.t])
        finally:
            sys.setswitchinterval(interval)
        assert started == ["reachcast-helper"] * 2 * len(grads)  # the norm and the update
        assert states[0] == states[1]

    def test_desk_adam_step_starts_no_thread(self, monkeypatch):
        # the gate is a property of the store: desk's tail stays serial and
        # the paper preset's is threaded
        paper = M.ModelConfig.paper()
        paper_tail = sum(math.prod(s) for n, s in M.param_layout(paper) if n not in M.FROZEN)
        assert paper_tail * paper.dtype.itemsize >= Adam.PARALLEL_MIN_BYTES
        params = M.init_params(M.ModelConfig.desk(), seed=0)
        opt = Adam(params)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        for _, p in params.trainable_items():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.1, clip_norm=10.0)
        assert opt.t == 1

    def test_adam_state_rejected_for_other_model(self, tiny_setup, tmp_path):
        cfg = tiny_setup[0]
        params = M.init_params(cfg, seed=0)
        opt = Adam(params)
        for _, p in params.trainable_items():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.1, clip_norm=10.0)
        opt.save(tmp_path / "adam", cfg)
        back = Adam.load(params, tmp_path / "adam")
        assert back.t == 1 and back.m.keys() == opt.m.keys()
        other = M.init_params(M.ModelConfig.tiny(coordinate_mode="2d"), seed=0)
        with pytest.raises(M.CheckpointError, match="optimizer state does not match"):
            Adam.load(other, tmp_path / "adam")

    def test_float32_model_trains_and_resumes_in_float32(self, tiny_setup, tmp_path):
        cfg, samples, manifest, norm = tiny_setup
        cfg = M.ModelConfig.tiny(horizon=cfg.horizon, compute_dtype="float32")
        train = split_samples(samples, manifest, "train")[:12]
        frames, points, *_ = T.assemble_batch(train[:2], cfg, norm, [3, 4])
        assert frames.dtype == points.dtype == np.float32
        params = M.init_params(cfg, seed=0)
        _, opt = fit(params, cfg, train, norm, TrainConfig(lr=1e-3, warmup_epochs=1, epochs=2,
                                                           batch_size=6, seed=0))
        assert {p.data.dtype for _, p in params.items()} == {np.dtype(np.float32)}
        assert opt._m.dtype == opt._v.dtype == np.float32
        opt.save(tmp_path / "adam", cfg)
        back = Adam.load(params, tmp_path / "adam")
        for n in opt.m:
            assert back.m[n].dtype == back.v[n].dtype == np.float32
            np.testing.assert_array_equal(back.m[n], opt.m[n])
            np.testing.assert_array_equal(back.v[n], opt.v[n])
        # decoding and metrics stay float64
        cases = T.forecast_cases(params, cfg, split_samples(samples, manifest, "test_seen"),
                                 norm, 0.6)
        assert {pred.dtype for _, _, pred, _ in cases} == {np.dtype(np.float64)}


class TestImageTargets:
    CFG = M.ModelConfig(coordinate_mode="2d")  # 64x64 frames, horizon 40

    @pytest.fixture(scope="class")
    def paper_geometry(self):
        """Tracks at the paper's 64x64 geometry, 32 to 40 steps, some of
        whose steps project just outside the frame."""
        opts = GenOptions(t_min=32, t_max=40, intrinsics=CameraIntrinsics(
            fx=64.0, fy=64.0, ox=32.0, oy=32.0, width=64, height=64))
        return gen_dataset(100, 2, opts)[0]

    def test_tracks_outside_the_frame_land_inside_the_tanh_range(self, paper_geometry):
        # an unpadded [0, 1] -> [-1, 1] map sent one of these steps to -1.047
        uv = np.concatenate([T.image_track(s) for s in paper_geometry])
        assert uv.min() < -0.02
        for s in paper_geometry:
            T.check_sample(s, self.CFG)
            assert np.all(np.abs(T.sample_targets(s, self.CFG, None)) < 1), s.id

    def test_targets_decode_to_the_image_track(self, paper_geometry):
        s = paper_geometry[0]
        pred, gt = T.decode_prediction(T.sample_targets(s, self.CFG, None), s, self.CFG, None)
        np.testing.assert_array_equal(gt, T.image_track(s))
        np.testing.assert_allclose(pred, gt, rtol=0, atol=1e-15)

    def test_assemble_batch_projects_each_track_once(self, paper_geometry, monkeypatch):
        # the box check's projection is the one the targets are made from
        samples = paper_geometry[:5]
        calls = []

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(T, "project", counted)
        _, points, _, lengths, _ = T.assemble_batch(samples, self.CFG, None, [3] * len(samples))
        assert len(calls) == len(samples)
        monkeypatch.undo()
        for s, row, t in zip(samples, points, lengths):
            np.testing.assert_array_equal(row[:t], T.sample_targets(s, self.CFG, None))

    def test_step_outside_the_box_refused_not_clipped(self, paper_geometry):
        s = paper_geometry[0]
        far = s.points_local.copy()
        far[-1, 0] += 2.0 * far[-1, 2]  # the last step two frame widths to the right
        moved = TrajectorySample(s.id, s.scene, s.frames, far, s.points_global, s.poses,
                                 s.intrinsics, s.valid_depth)
        T.check_sample(moved, M.ModelConfig())  # global-3d reads no projection
        with pytest.raises(ValueError, match=rf"sample {s.id} has 1 steps projecting outside "
                                             r"the frame padded by 0.25"):
            T.check_sample(moved, self.CFG)


class TestDepthValidity:
    def test_depthless_samples_refused_until_repaired(self, tmp_path):
        cfg = M.ModelConfig.tiny(horizon=16)  # gen drops depth only on tracks over 10 steps
        opts = GenOptions(t_min=14, t_max=16, depth_dropout=0.3, split_counts=(8, 0, 4, 0),
                          intrinsics=_tiny_intrinsics())
        samples, manifest = gen_dataset(12, master_seed=4, options=opts)
        norm = (np.array(manifest["norm"]["min"]), np.array(manifest["norm"]["max"]))
        train = split_samples(samples, manifest, "train")
        test = split_samples(samples, manifest, "test_seen")
        tc = TrainConfig(epochs=1, batch_size=8)
        params = M.init_params(cfg, seed=0)
        with pytest.raises(ValueError, match=r"steps without depth; run `reachcast repair`"):
            fit(params, cfg, train, norm, tc)
        with pytest.raises(ValueError, match=r"steps without depth"):
            evaluate(params, cfg, test, norm, 0.6)

        write_dataset(samples, manifest, tmp_path / "raw")
        assert cli.main(["repair", "--data", str(tmp_path / "raw"),
                         "--out", str(tmp_path / "fixed")]) == 0
        samples, manifest = read_dataset(tmp_path / "fixed")
        history, _ = fit(params, cfg, split_samples(samples, manifest, "train"), norm, tc)
        assert np.isfinite(history[0][1])
        row = evaluate(params, cfg, split_samples(samples, manifest, "test_seen"), norm, 0.6)
        assert np.isfinite(row.ade3d)


def _score_case_by_case(cases, split, ratio, model):
    """The scorer ``T.score`` replaced, kept as its reference: each case's
    errors from its own rows, lowered and projected one case at a time."""
    per = {k: [] for k in MetricsRow.METRICS}

    def add(ade_key, fde_key, pred, gt, observed):
        d = np.linalg.norm(pred[observed:] - gt[observed:], axis=-1)
        per[ade_key].append(float(d.mean()))
        per[fde_key].append(float(d[-1]))

    def to_2d(points, s):
        local = s.poses.global_to_local(points, np.arange(1, len(points) + 1))
        if np.any(local[:, 2] < T.NEAR_PLANE):
            raise BehindCameraError("nearer than the near plane")
        return normalize_pixel(project(local, s.intrinsics), s.intrinsics)

    for s, observed, pred, gt in cases:
        if pred.shape[-1] == 2:
            add("ade2d", "fde2d", pred, gt, observed)
            continue
        add("ade3d", "fde3d", pred, gt, observed)
        try:
            uv = to_2d(pred, s), to_2d(gt, s)
        except BehindCameraError:
            continue
        add("ade2d_from3d", "fde2d_from3d", *uv, observed)
    return MetricsRow(split=split, ratio=ratio, model=model,
                      **{k: float(np.mean(v)) if v else None for k, v in per.items()})


SCORE_CAMERAS = (CameraIntrinsics(fx=8.0, fy=8.0, ox=4.0, oy=4.0, width=8, height=8),
                 CameraIntrinsics(fx=40.0, fy=36.0, ox=31.5, oy=30.0, width=64, height=60))


def _random_case(rng, kind, t, observed, camera):
    """A scorer case of ``kind``: "2d" rows, or world rows on a random
    moving camera, in front of it, with one step behind it on the "pred"
    or "gt" side (a negative local depth), or with one "near" gt step
    lifted from local depth 0, which lowers back to a depth of rounding
    size of either sign."""
    s = SimpleNamespace(id="r", intrinsics=SCORE_CAMERAS[camera])
    if kind == "2d":
        gt = rng.uniform(0.0, 1.0, (t, 2))
        return s, observed, gt + rng.normal(0.0, 0.05, (t, 2)), gt
    poses = []
    for _ in range(t):
        q, r = np.linalg.qr(np.eye(3) + rng.normal(0.0, 0.1, (3, 3)))
        pose = np.eye(4)
        pose[:3, :3] = q * np.sign(np.diag(r))
        pose[:3, 3] = rng.normal(0.0, 0.05, 3)
        poses.append(pose)
    s.poses = PoseChain(poses)
    steps = np.arange(1, t + 1)
    local = {side: rng.uniform([-0.3, -0.3, 0.3], [0.3, 0.3, 1.5], (t, 3))
             for side in ("pred", "gt")}
    if kind in local:
        local[kind][rng.integers(t), 2] = -rng.uniform(0.01, 1.0)
    if kind == "near":
        local["gt"][rng.integers(t), 2] = 0.0
    pred, gt = (s.poses.local_to_global(local[side], steps) for side in ("pred", "gt"))
    return s, observed, pred, gt


SCORE_KINDS = ("2d", "3d", "pred", "gt", "near")


@st.composite
def _score_cases(draw):
    """A list of random scorer cases of mixed kinds, lengths and cameras."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    cases = []
    for _ in range(draw(st.integers(1, 8), label="cases")):
        t = draw(st.integers(2, 14))
        cases.append(_random_case(rng, draw(st.sampled_from(SCORE_KINDS)), t,
                                  draw(st.integers(1, t - 1)), draw(st.integers(0, 1))))
    return cases


class TestScoreMatchesCaseByCase:
    @settings(max_examples=150, deadline=None)
    @given(cases=_score_cases())
    def test_random_cases_bit_identical(self, cases):
        # the array passes over all cases give each row, and each case's own
        # row, bit for bit as the per-case reference does; any warning is an
        # error (a behind-camera row must not reach the division), but only
        # around the scorer, so hypothesis can still report a failure
        for subset in [cases] + [[c] for c in cases]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                row = T.score(subset, "test", 0.5, "model")
            assert repr(row) == repr(_score_case_by_case(subset, "test", 0.5, "model"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_behind_camera_case_drops_out_of_2d_only(self, side):
        rng = np.random.default_rng(5)
        front = [_random_case(rng, "3d", 9, 4, k % 2) for k in range(3)]
        behind = _random_case(rng, side, 9, 4, 1)
        row = T.score(front[:1] + [behind] + front[1:], "test", 0.5, "model")
        rest = T.score(front, "test", 0.5, "model")
        assert (row.ade2d_from3d, row.fde2d_from3d) == (rest.ade2d_from3d, rest.fde2d_from3d)
        assert row.ade3d != rest.ade3d
        alone = T.score([behind], "test", 0.5, "model")
        assert alone.ade2d_from3d is None and alone.ade3d is not None

    @pytest.mark.filterwarnings("error")
    def test_near_plane_case_drops_out_of_2d_only(self):
        # the near gt step lowers back to a hair in front of the camera; with
        # only depths <= 0 dropped, it projected to a pixel that made this
        # 4-case row read 1.0e15 instead of 0.36
        rng = np.random.default_rng(0)
        front = [_random_case(rng, "3d", 9, 4, k % 2) for k in range(3)]
        near = _random_case(rng, "near", 9, 4, 1)
        s, _, _, gt = near
        assert 0 < s.poses.global_to_local(gt, np.arange(1, 10))[:, 2].min() < T.NEAR_PLANE
        row = T.score(front[:1] + [near] + front[1:], "test", 0.5, "model")
        rest = T.score(front, "test", 0.5, "model")
        assert (row.ade2d_from3d, row.fde2d_from3d) == (rest.ade2d_from3d, rest.fde2d_from3d)
        assert row.ade2d_from3d < 1 and row.ade3d != rest.ade3d
        assert T.score([near], "test", 0.5, "model").ade2d_from3d is None

    def test_case_longer_than_its_pose_chain_refused(self):
        s, observed, pred, gt = _random_case(np.random.default_rng(1), "3d", 6, 3, 0)
        long = np.concatenate([pred, pred[-1:]]), np.concatenate([gt, gt[-1:]])
        with pytest.raises(ValueError, match="more steps than its sample's pose chain"):
            T.score([(s, observed, *long)], "test", 0.5, "model")


def _fixed_camera_case(gt, pred, observed):
    """A scorer case on a camera that never moves (world frame = every local frame)."""
    s = SimpleNamespace(id="a", poses=PoseChain([Pose.identity()] * len(gt)),
                        intrinsics=_tiny_intrinsics())
    return s, observed, pred, gt


def _stand_in(means):
    """A ``forecast_cases`` stand-in: ``means(s, c, cfg, norm)`` gives each
    sample's normalized per-step means, decoded as the model's are."""
    def forecast(params, cfg, samples, norm, ratio):
        fixed = TrainConfig(observation_mode="fixed", observation_ratio=ratio)
        out = []
        for s in sorted(samples, key=lambda x: x.id):
            c = observation_count(s.horizon, fixed)
            out.append((s, c, *T.decode_prediction(means(s, c, cfg, norm), s, cfg, norm)))
        return out
    return forecast


def _cv_forecasts(behind=()):
    """A ``forecast_cases`` stand-in returning constant-velocity forecasts;
    samples whose id is in ``behind`` get their future mirrored behind the
    camera."""
    def means(s, c, cfg, norm):
        future = constant_velocity_baseline(s.points_global, c)
        if s.id in behind:
            future = future * [1.0, 1.0, -1.0]
        return normalize(np.concatenate([s.points_global[:c], future]), *norm)
    return _stand_in(means)


class TestMetrics:
    def test_future_errors_constant_offset(self):
        gt = np.tile([0.0, 0.0, 1.0], (10, 1))
        pred = gt + np.array([0.3, 0.0, 0.4])
        row = T.score([_fixed_camera_case(gt, pred, observed=4)], "test", 0.6, "model")
        assert row.ade3d == pytest.approx(0.5) and row.fde3d == pytest.approx(0.5)
        # projected: u moves by fx * 0.3 / 1.4 pixels of a frame fx wide
        assert row.ade2d_from3d == pytest.approx(0.3 / 1.4)
        assert row.ade2d is None and row.model == "model"

    def test_single_future_step_fde(self):
        gt = np.tile([0.0, 0.0, 1.0], (5, 1))
        pred = gt.copy()
        pred[4] = [1.0, 1.0, 2.0]
        row = T.score([_fixed_camera_case(gt, pred, observed=4)], "test", 0.6, "model")
        assert row.fde3d == pytest.approx(np.sqrt(3)) and row.ade3d == pytest.approx(np.sqrt(3))

    def test_cv_forecasts_score_like_the_baseline(self, tiny_setup, monkeypatch):
        # the model rows and the CV rows share one scorer: the same forecasts
        # give the same numbers whichever evaluator reads them
        cfg, samples, manifest, norm = tiny_setup
        test = split_samples(samples, manifest, "test_seen")
        monkeypatch.setattr(T, "forecast_cases", _cv_forecasts())
        model_row = evaluate(None, cfg, test, norm, ratio=0.6)
        cv_row = evaluate_baseline(test, ratio=0.6)
        assert cv_row.model == "cv-baseline"
        for key in ("ade3d", "fde3d", "ade2d_from3d", "fde2d_from3d"):
            assert getattr(model_row, key) == pytest.approx(getattr(cv_row, key), rel=1e-12), key
        assert model_row.ade2d is None and cv_row.ade2d is None

    def test_image_plane_cv_scores_like_a_2d_model(self, tiny_setup, monkeypatch):
        # a 2d-mode model that forecasts constant velocity in (u, v) scores
        # exactly the image-plane CV columns
        _, samples, manifest, norm = tiny_setup
        cfg = M.ModelConfig.tiny(horizon=10, coordinate_mode="2d")
        test = split_samples(samples, manifest, "test_seen")

        def means(s, c, cfg_, norm_):
            uv = T.image_track(s)
            return normalize(np.concatenate([uv[:c], constant_velocity_baseline(uv, c)]),
                             *T.IMAGE_BOX)

        monkeypatch.setattr(T, "forecast_cases", _stand_in(means))
        model_row = evaluate(None, cfg, test, norm, ratio=0.6)
        cv_row = evaluate_baseline(test, ratio=0.6, image_plane=True)
        for key in ("ade2d", "fde2d"):
            assert getattr(cv_row, key) > 0
            assert getattr(cv_row, key) == pytest.approx(getattr(model_row, key), rel=1e-12), key
        world_row = evaluate_baseline(test, ratio=0.6)
        assert world_row.ade2d is None and world_row.fde2d is None
        for key in ("ade3d", "fde3d", "ade2d_from3d", "fde2d_from3d"):
            assert getattr(cv_row, key) == getattr(world_row, key), key

    def test_baseline_skips_samples_it_cannot_extrapolate(self, tiny_setup):
        _, samples, _, _ = tiny_setup
        fixed = TrainConfig(observation_ratio=0.15)
        short = [s for s in samples if observation_count(s.horizon, fixed) < 2]
        long = [s for s in samples if observation_count(s.horizon, fixed) >= 2]
        assert short and long
        assert evaluate_baseline(short + long, 0.15) == evaluate_baseline(long, 0.15)
        empty = evaluate_baseline(short, 0.15)
        assert all(getattr(empty, k) is None for k in MetricsRow.METRICS)

    @pytest.mark.filterwarnings("error")
    def test_behind_camera_drops_out_of_2d_only(self, tiny_setup, monkeypatch):
        cfg, samples, manifest, norm = tiny_setup
        test = sorted(split_samples(samples, manifest, "test_seen"), key=lambda s: s.id)
        monkeypatch.setattr(T, "forecast_cases", _cv_forecasts(behind={test[0].id}))
        row = evaluate(None, cfg, test, norm, ratio=0.6)
        rest = evaluate(None, cfg, test[1:], norm, ratio=0.6)
        assert row.ade2d_from3d == rest.ade2d_from3d and row.fde2d_from3d == rest.fde2d_from3d
        # the mirrored forecast still counts, and dominates, in 3D
        assert row.ade3d > rest.ade3d and row.fde3d > rest.fde3d

    def test_perfect_prediction_all_zero(self, tiny_setup, monkeypatch):
        cfg, samples, manifest, norm = tiny_setup
        test = split_samples(samples, manifest, "test_seen")

        perfect = _stand_in(lambda s, c, cfg_, norm_: T.sample_targets(s, cfg_, norm_))
        monkeypatch.setattr(T, "forecast_cases", perfect)
        row = evaluate(None, cfg, test, norm, ratio=0.6)
        assert row.ade3d == pytest.approx(0.0, abs=1e-12)
        assert row.fde3d == pytest.approx(0.0, abs=1e-12)
        assert row.ade2d_from3d == pytest.approx(0.0, abs=1e-10)

    def test_order_invariance(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        test = split_samples(samples, manifest, "test_seen")
        params = M.init_params(cfg, seed=0)
        a = evaluate(params, cfg, test, norm, 0.5)
        b = evaluate(params, cfg, list(reversed(test)), norm, 0.5)
        assert a == b

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_order_invariance_property(self, tiny_setup, data):
        # the encoders pack each batch's observed steps, so the rows depend on
        # batch composition; evaluate's sort must make any input order agree
        cfg, samples, manifest, norm = tiny_setup
        test = split_samples(samples, manifest, "test_seen")
        params = M.init_params(cfg, seed=0)
        shuffled = data.draw(st.permutations(test), label="order")
        batch = data.draw(st.sampled_from([3, T.EVAL_BATCH]), label="eval batch")
        # patched in the body: hypothesis refuses function-scoped fixtures
        with mock.patch.object(T, "EVAL_BATCH", batch):
            assert (evaluate(params, cfg, shuffled, norm, 0.5)
                    == evaluate(params, cfg, test, norm, 0.5))

    def test_normalization_is_metric_transparent(self, tiny_setup):
        cfg, samples, manifest, norm = tiny_setup
        test = split_samples(samples, manifest, "test_seen")
        params = M.init_params(cfg, seed=1)
        row = evaluate(params, cfg, test, norm, 0.6)
        test = sorted(test, key=lambda x: x.id)
        fixed = TrainConfig(observation_ratio=0.6)
        counts = [observation_count(s.horizon, fixed) for s in test]
        frames, points, obs, lengths, _ = T.assemble_batch(test, cfg, norm, counts)
        means = M.forward_batch(params, cfg, frames, points, obs, lengths)["mean"].data
        ades = []
        for s, observed, mean in zip(test, counts, means):
            pred = denormalize(mean, *norm)
            d = np.linalg.norm(pred[observed:s.horizon] - s.points_global[observed:s.horizon],
                               axis=-1)
            ades.append(d.mean())
        assert abs(row.ade3d - np.mean(ades)) < 1e-9

    def test_csv_row_format(self):
        row = MetricsRow(split="val", ratio=0.6, ade3d=0.1, fde3d=0.2)
        cells = row.as_csv().split(",")
        assert cells[0] == "model" and cells[1] == "val"
        assert cells[3] == "0.1" and cells[-1] == ""


class TestConstantVelocityBaseline:
    @staticmethod
    def _linear_sample(t):
        # a straight line at constant speed, seen by a camera that stays put
        start, target = np.array([0.0, 0.02, 0.3]), np.array([0.06, 0.05, 0.45])
        points = start + (target - start) * np.linspace(0.0, 1.0, t)[:, None]
        return TrajectorySample(
            id="lin0", scene="drawer", frames=np.zeros((t, 16, 16)), points_local=points,
            points_global=points, poses=PoseChain(np.tile(np.eye(4), (t, 1, 1))),
            intrinsics=DESK_INTRINSICS, valid_depth=np.ones(t, dtype=bool))

    def test_forced_extrapolation(self):
        track = np.array([[0.0, 0, 0], [1.0, 0, 0], [9.0, 9, 9], [9.0, 9, 9]])
        pred = constant_velocity_baseline(track, observed=2)
        np.testing.assert_array_equal(pred, [[2.0, 0, 0], [3.0, 0, 0]])

    def test_static_observation(self):
        pred = constant_velocity_baseline(np.tile([0.5, 0.5, 0.5], (5, 1)), observed=2)
        np.testing.assert_array_equal(pred, np.tile([0.5, 0.5, 0.5], (3, 1)))

    def test_needs_two_observed(self):
        with pytest.raises(ValueError):
            constant_velocity_baseline(np.zeros((4, 3)), observed=1)

    def test_exact_on_linear_trajectories(self):
        s = self._linear_sample(t=8)
        row = evaluate_baseline([s], ratio=0.5)
        assert row.ade3d == pytest.approx(0.0, abs=1e-12)
        assert row.fde3d == pytest.approx(0.0, abs=1e-12)
