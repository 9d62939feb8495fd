import contextlib
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast import datagen as dg
from reachcast.datagen import (
    DESK_INTRINSICS,
    GenOptions,
    ParseError,
    SceneSpec,
    gen_camera_path,
    gen_dataset,
    gen_sample,
    reach_path,
    read_dataset,
    render_frame,
    split_samples,
    write_dataset,
)
from reachcast.geometry import CameraIntrinsics, PoseChain, project

# non-square frames (12 rows, 20 columns), so a swapped H and W shows
WIDE_INTRINSICS = CameraIntrinsics(fx=16.0, fy=16.0, ox=10.0, oy=6.0, width=20, height=12)
# a record's values per step before its frames: a pose, a local point, a flag
STEP_VALUES = 16 + 3 + 1


def record_views(values, doc):
    """The fields of the record of the decoded line ``doc`` among the
    sidecar's float64 ``values``, as views: poses, local points, flags and
    frames, in their stored order."""
    t, h, w = doc["T"], int(doc["intrinsics"]["h"]), int(doc["intrinsics"]["w"])
    rec = values[doc["at"] : doc["at"] + t * (STEP_VALUES + h * w)]
    return {"poses": rec[: 16 * t].reshape(t, 4, 4),
            "points_local": rec[16 * t : 19 * t].reshape(t, 3),
            "valid_depth": rec[19 * t : 20 * t], "frames": rec[20 * t :].reshape(t, h, w)}


def reference_head(doc, line_no, at):
    """One line's checks, before its record is read; returns (T, h, w)."""
    if not isinstance(doc, dict):
        raise ParseError(line_no, "not a JSON object")
    if doc.get("format", 1) != dg.FORMAT:
        raise ValueError(f"wire format {doc.get('format', 1)!r}, not {dg.FORMAT}; "
                         "re-run `reachcast gen` to write the dataset again")
    for key in ("id", "scene", "T", "intrinsics", "at"):
        if key not in doc:
            raise ParseError(line_no, f"missing key {key!r}")
    t = doc["T"]
    if type(t) is not int:
        raise ValueError(f"T must be a JSON integer, got {t!r}")
    if t < 1:
        raise ValueError(f"T must be at least 1, got {t}")
    intr = CameraIntrinsics.from_dict(doc["intrinsics"])
    if not all(type(x) in (int, float) and float(x).is_integer()
               for x in (intr.width, intr.height)):
        raise ValueError(f"intrinsics w and h must be integral, got w={intr.width!r}, "
                         f"h={intr.height!r}")
    if type(doc["at"]) is not int or doc["at"] != at:
        raise ValueError(f"at is {doc['at']!r}, but the records before this sample end at {at}")
    return t, int(intr.height), int(intr.width)


def reference_sample(doc, sidecar, at, size):
    """One line's sample from its record, which starts at element ``at`` of
    the open sidecar of ``size`` bytes: its chain built, its flags checked
    and its points lifted before the next line is read."""
    t, h, w = doc["T"], int(doc["intrinsics"]["h"]), int(doc["intrinsics"]["w"])
    n = t * (STEP_VALUES + h * w)
    missing = (at + n) * 8 - size
    if missing > 0:
        raise ValueError(f"sidecar {sidecar.name} ends {missing} bytes before this "
                         "sample's record does")
    fields = record_views(np.fromfile(sidecar, dtype="<f8", count=n), {**doc, "at": 0})
    chain = PoseChain(fields["poses"])
    for step, v in enumerate(fields["valid_depth"], start=1):
        if v != 0.0 and v != 1.0:
            raise ValueError(f"valid_depth must be 0.0 or 1.0, got {float(v)!r} at step {step}")
    local = fields["points_local"]
    return dg.TrajectorySample(
        id=doc["id"], scene=doc["scene"], frames=fields["frames"], points_local=local,
        points_global=chain.local_to_global(local, np.arange(1, t + 1)), poses=chain,
        intrinsics=CameraIntrinsics.from_dict(doc["intrinsics"]),
        valid_depth=fields["valid_depth"] == 1.0)


def reference_read_dataset(path):
    """``read_dataset`` a sample at a time, in file order. The sidecar is
    opened when the first record is needed, or after the last line."""
    manifest = dg.read_manifest(path)
    data_path = Path(path) / "data.jsonl"
    sidecar_path = data_path.with_suffix(".f64")
    samples, at, last_line = [], 0, 0
    with open(data_path) as f, contextlib.ExitStack() as files:
        sidecar = size = None

        def open_sidecar():
            handle = files.enter_context(open(sidecar_path, "rb"))
            return handle, os.fstat(handle.fileno()).st_size

        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"invalid JSON: {e}") from e
            try:
                t, h, w = reference_head(doc, line_no, at)
                if sidecar is None:
                    sidecar, size = open_sidecar()
                sample = reference_sample(doc, sidecar, at, size)
            except ParseError:
                raise
            except (ValueError, TypeError, KeyError) as e:
                raise ParseError(line_no, f"sample {doc.get('id')!r}: {e}") from e
            samples.append(sample)
            at += t * (STEP_VALUES + h * w)
            last_line = line_no
        if sidecar is None:
            sidecar, size = open_sidecar()
    extra = size - at * 8
    if extra:
        sid = samples[-1].id if samples else None
        raise ParseError(max(last_line, 1), f"sample {sid!r}: sidecar {sidecar_path} has "
                                            f"{extra} bytes after the last sample's record")
    return samples, manifest


def sample_arrays(s):
    """Every array field of sample ``s``, the poses and their products too."""
    return (s.frames, s.points_local, s.points_global, s.valid_depth, s.poses.matrices,
            s.poses.cumulative)


def assert_same_samples(got, want):
    """Field for field and byte for byte; ``got``'s arrays are read-only."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.scene, a.intrinsics, a.horizon) == (b.id, b.scene, b.intrinsics,
                                                             b.horizon)
        for x, y in zip(sample_arrays(a), sample_arrays(b)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()
            assert not x.flags.writeable


def read_error(reader, path):
    """The ParseError ``reader`` raises on the dataset at ``path``."""
    with pytest.raises(ParseError) as err:
        reader(path)
    return err.value


def write_lines(path, docs):
    """Replace the lines of the dataset at ``path`` with the decoded ``docs``."""
    (path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))


def old_line(s, version, frames_at):
    """Sample ``s`` as a line of wire format 1 (its frames inline) or 2 (its
    frames in data.frames.f64 from element ``frames_at``)."""
    doc = {"id": s.id, "scene": s.scene, "T": s.horizon, "intrinsics": s.intrinsics.to_dict(),
           "poses": s.poses.matrices.reshape(-1, 16).tolist(),
           "points_local": s.points_local.tolist(),
           "valid_depth": [bool(v) for v in s.valid_depth]}
    if version == 1:
        doc["frames"] = s.frames.reshape(s.horizon, -1).tolist()
    else:
        doc.update(format=2, frames_at=frames_at)
    return doc


def first_steps(s, t):
    """Sample ``s`` cut to its first ``t`` steps."""
    return dataclasses.replace(s, frames=s.frames[:t], points_local=s.points_local[:t],
                               points_global=s.points_global[:t],
                               poses=PoseChain(s.poses.matrices[:t]),
                               valid_depth=s.valid_depth[:t])


def reference_small_rotation(omega):
    """Nearest rotation to I + [w]x for one w, the per-step form."""
    wx, wy, wz = omega
    r = np.array([[1.0, -wz, wy], [wz, 1.0, -wx], [-wy, wx, 1.0]])
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0:
        u[:, -1] *= -1
        out = u @ vt
    return out


def reference_frame(p, intrinsics, rng):
    """One step's frame, rendered on its own: the per-step form."""
    h, w = int(intrinsics.height), int(intrinsics.width)
    u, v = project(p, intrinsics)
    cols = np.arange(w, dtype=np.float64)[None, :]
    rows = np.arange(h, dtype=np.float64)[:, None]
    blob = np.exp(-((cols - u) ** 2 + (rows - v) ** 2) / (2 * dg.BLOB_SIGMA**2))
    return np.round(np.clip(blob + dg.PIXEL_NOISE * rng.standard_normal((h, w)), 0.0, 1.0), 6)


def make_spec(**kw):
    """A drawer reach; keywords that are not SceneSpec fields set its GenOptions."""
    base = dict(scene="drawer", start=np.array([0.0, 0.05, 0.30]),
                target=np.array([0.05, 0.1, 0.45]), duration=12, seed=3)
    spec_fields = {f.name for f in dataclasses.fields(SceneSpec)}
    base.update({k: v for k, v in kw.items() if k in spec_fields})
    opts = GenOptions(**{k: v for k, v in kw.items() if k not in spec_fields})
    return SceneSpec(**base, opts=opts)


class TestMinJerk:
    def test_boundaries(self):
        pts = reach_path([0, 0, 0], [1, 2, 3], 11)
        np.testing.assert_array_equal(pts[0], [0, 0, 0])
        np.testing.assert_allclose(pts[-1], [1, 2, 3], atol=1e-12)

    def test_midpoint_symmetry(self):
        pts = reach_path([0, 0, 0], [1, 0, 0], 11)
        np.testing.assert_allclose(pts[5], [0.5, 0, 0], atol=1e-12)

    def test_endpoint_velocity_smaller_than_mid(self):
        pts = reach_path([0, 0, 0], [1, 0, 0], 41)
        speed = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert speed[-1] < speed[len(speed) // 2]
        assert speed[0] < speed[len(speed) // 2]

    def test_too_short(self):
        with pytest.raises(ValueError):
            reach_path([0, 0, 0], [1, 0, 0], 1)


class TestCameraPath:
    def test_seeded_reproducibility(self):
        a = gen_camera_path(10, np.random.default_rng(5))
        b = gen_camera_path(10, np.random.default_rng(5))
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.matrix, pb.matrix)

    def test_first_pose_is_identity(self):
        chain = gen_camera_path(6, np.random.default_rng(1))
        np.testing.assert_array_equal(chain.poses[0].matrix, np.eye(4))

    def test_orthonormal_at_64_steps(self):
        # the lifted unit axes, taken from the lifted origin, are each
        # step's cumulative rotation: it must stay orthonormal
        chain = gen_camera_path(64, np.random.default_rng(7))
        basis = np.tile(np.vstack([np.zeros(3), np.eye(3)]), (64, 1))
        img = chain.local_to_global(basis, np.repeat(np.arange(1, 65), 4)).reshape(64, 4, 3)
        axes = img[:, 1:] - img[:, :1]
        assert np.max(np.abs(axes @ axes.transpose(0, 2, 1) - np.eye(3))) < 1e-9


    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 64),
           rot=st.sampled_from([dg.ROT_AMPLITUDE, 0.05, 0.5]),
           trans=st.sampled_from([dg.TRANS_AMPLITUDE, 0.1]))
    def test_every_generated_chain_passes_the_check(self, seed, steps, rot, trans):
        # each step is the per-step rotation bit for bit, and the written
        # chain reads back through the stacked validity check; amplitudes
        # above the generator's go through its rotation builder directly
        omega = dg._smooth_noise(np.random.default_rng(seed), steps) * rot
        poses = np.tile(np.eye(4), (steps, 1, 1))
        poses[1:, :3, :3] = dg._small_rotations(omega[1:])
        poses[1:, :3, 3] = dg._smooth_noise(np.random.default_rng(seed + 1), steps)[1:] * trans
        chains = [PoseChain(poses)]
        if rot == dg.ROT_AMPLITUDE:
            generated = gen_camera_path(steps, np.random.default_rng(seed))
            np.testing.assert_array_equal(
                np.stack([q.matrix[:3, :3] for q in generated.poses]), poses[:, :3, :3])
            chains.append(generated)
        for chain in chains:
            again = PoseChain.stack([chain.matrices])[0]
            for t, (a, b) in enumerate(zip(chain.poses, again.poses)):
                np.testing.assert_array_equal(a.matrix, b.matrix)
                if t:
                    np.testing.assert_array_equal(a.matrix[:3, :3],
                                                  reference_small_rotation(omega[t]))


def _hand_points(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-0.08, 0.08, n), rng.uniform(-0.08, 0.08, n),
                            rng.uniform(0.3, 0.5, n)])


class TestRenderFrame:
    def test_blob_argmax_at_projection(self, monkeypatch):
        monkeypatch.setattr(dg, "PIXEL_NOISE", 0.0)
        p = _hand_points(20, 0)
        frames = render_frame(p, DESK_INTRINSICS, np.random.default_rng(1))
        assert frames.shape == (20, 16, 16)
        for frame, (u, v) in zip(frames, project(p, DESK_INTRINSICS)):
            row, col = np.unravel_index(np.argmax(frame), frame.shape)
            assert (row, col) == (int(np.floor(v + 0.5)), int(np.floor(u + 0.5)))

    def test_pure_noise_carries_no_position_signal(self, monkeypatch):
        monkeypatch.setattr(dg, "PIXEL_NOISE", 1000.0)
        p = np.array([[-0.08, 0.0, 0.35], [0.08, 0.0, 0.35]])
        noise_a = render_frame(p[:1], DESK_INTRINSICS, np.random.default_rng(9))
        noise_b = render_frame(p[1:], DESK_INTRINSICS, np.random.default_rng(9))
        # at overwhelming noise amplitude the clipped frames coincide
        assert np.mean(noise_a == noise_b) > 0.95

    def test_fixed_seed_reproducible(self):
        p = np.array([[0.0, 0.0, 0.4], [0.01, 0.02, 0.45]])
        a = render_frame(p, DESK_INTRINSICS, np.random.default_rng(11))
        b = render_frame(p, DESK_INTRINSICS, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("intrinsics", [DESK_INTRINSICS, WIDE_INTRINSICS],
                             ids=["16x16", "12x20"])
    def test_one_call_is_a_loop_over_steps(self, intrinsics):
        # the (T, H, W) noise takes the stream of T (H, W) draws, so a
        # sample's frames and the draws after them are those of a loop
        p = _hand_points(9, 3)
        whole, steps = np.random.default_rng(4), np.random.default_rng(4)
        frames = render_frame(p, intrinsics, whole)
        looped = np.stack([reference_frame(q, intrinsics, steps) for q in p])
        np.testing.assert_array_equal(frames, looped)
        np.testing.assert_array_equal(whole.random(4), steps.random(4))


class TestGenSample:
    def test_local_global_consistency(self):
        s = gen_sample(make_spec(), "s0")
        for t in range(s.horizon):
            back = s.poses.local_to_global(s.points_local[t], t + 1)
            assert np.max(np.abs(back - s.points_global[t])) < 1e-9

    def test_dropout_flags_and_sentinel(self):
        s = gen_sample(make_spec(duration=24, depth_dropout=0.3, seed=5), "s0")
        assert not s.valid_depth.all()
        np.testing.assert_array_equal(s.points_local[~s.valid_depth, 2], 0.0)
        assert s.valid_depth.sum() >= 10

    def test_dropout_never_starves_repair(self):
        for seed in range(10):
            s = gen_sample(make_spec(duration=12, depth_dropout=0.9, seed=seed), "s0")
            assert s.valid_depth.sum() >= 10

    def test_frames_in_unit_range(self):
        s = gen_sample(make_spec(), "s0")
        assert s.frames.min() >= 0.0 and s.frames.max() <= 1.0


class TestGenDataset:
    def test_partition_and_counts(self):
        samples, manifest = gen_dataset(40, master_seed=7)
        splits = manifest["splits"]
        assert manifest["n"] == 40
        assert sum(len(v) for v in splits.values()) == 40
        seen_scenes = {s.scene for s in split_samples(samples, manifest, "train")}
        seen_scenes |= {s.scene for s in split_samples(samples, manifest, "val")}
        seen_scenes |= {s.scene for s in split_samples(samples, manifest, "test_seen")}
        unseen_scenes = {s.scene for s in split_samples(samples, manifest, "test_unseen")}
        assert seen_scenes.isdisjoint(unseen_scenes)

    def test_explicit_split_counts(self):
        samples, manifest = gen_dataset(20, 1, GenOptions(split_counts=(14, 2, 2, 2)))
        assert [len(manifest["splits"][k]) for k in ("train", "val", "test_seen", "test_unseen")] \
            == [14, 2, 2, 2]

    @pytest.mark.parametrize("kw, message", [
        (dict(t_min=9, t_max=5), "t_min <= t_max"),
        (dict(t_min=1, t_max=5), "2 <= t_min"),
        (dict(depth_dropout=1.5), "probability"),
        (dict(depth_dropout=-0.1), "probability"),
        (dict(depth_dropout=float("nan")), "probability"),
        (dict(split_counts=(10, 5, 5)), "not four counts"),
        (dict(split_counts=(26, -2, -2, -2)), "not four counts"),
    ])
    def test_bad_options_refused(self, kw, message):
        with pytest.raises(ValueError, match=message):
            GenOptions(**kw)

    def test_same_seed_identical_bytes(self, tmp_path):
        for run in ("a", "b"):
            samples, manifest = gen_dataset(12, master_seed=3)
            write_dataset(samples, manifest, tmp_path / run)
        for name in ("data.jsonl", "data.f64", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_norm_covers_all_points(self):
        samples, manifest = gen_dataset(12, master_seed=3)
        lo = np.array(manifest["norm"]["min"])
        hi = np.array(manifest["norm"]["max"])
        for s in samples:
            assert np.all(s.points_global > lo) and np.all(s.points_global < hi)

    def test_geometry_audit_every_sample(self):
        samples, _ = gen_dataset(16, master_seed=9)
        for s in samples:
            valid = s.valid_depth
            for t in np.flatnonzero(valid):
                back = s.poses.local_to_global(s.points_local[t], t + 1)
                assert np.max(np.abs(back - s.points_global[t])) < 1e-9


# faults of step 3's pose: the entry set and its value
POSE_FAULTS = {"non-rigid pose": ((0, 0), 1.5), "bad bottom row": ((3, 0), 0.5),
               "nan rotation": ((0, 1), np.nan), "inf translation": ((0, 3), np.inf)}
# one fault of line 2 each, named as the tests below name them
LINE_FAULTS = {
    **{name: {"pose": name} for name in POSE_FAULTS},
    "flag 0.5": {"flag": 0.5}, "flag nan": {"flag": np.nan}, "flag 2.0": {"flag": 2.0},
    "short record": {"short": True}, "null T": {"T": None}, "T 0": {"T": 0},
    "at off by one": {"at_shift": 1}, "float at": {"at_shift": 0.0},
}


def apply_faults(path, docs, faults):
    """Write the dataset at ``path`` again with ``faults[i]`` applied to its
    line i+1, decoded as ``docs[i]``, and that line's record. A fault may
    hold ``pose`` (a POSE_FAULTS name, at step 3) and ``flag`` (step 5's
    flag) in the record; ``short`` (the sidecar ends inside the record's
    frame 5) and ``trailing`` (8 bytes after the last record) of the
    sidecar; line keys to set (``T``, ``format``), ``at_shift`` (added to
    ``at``), ``drop`` (a key deleted) and ``json`` (the line cut short)."""
    values = np.fromfile(path / "data.f64", dtype="<f8")
    end, texts = len(values), []
    for doc, fault in zip(docs, faults):
        fields = record_views(values, doc)
        if "pose" in fault:
            entry, value = POSE_FAULTS[fault["pose"]]
            fields["poses"][2][entry] = value
        if "flag" in fault:
            fields["valid_depth"][4] = fault["flag"]
        if fault.get("short"):
            pixels = int(doc["intrinsics"]["h"]) * int(doc["intrinsics"]["w"])
            end = min(end, doc["at"] + STEP_VALUES * doc["T"] + 6 * pixels - 1)
        for key in ("T", "format"):
            if key in fault:
                doc[key] = fault[key]
        if "at_shift" in fault:
            doc["at"] += fault["at_shift"]
        if "drop" in fault:
            del doc[fault["drop"]]
        text = json.dumps(doc)
        texts.append(text[:-9] if fault.get("json") else text)
    trailing = b"\0" * 8 if any(f.get("trailing") for f in faults) else b""
    (path / "data.f64").write_bytes(values[:end].tobytes() + trailing)
    (path / "data.jsonl").write_text("".join(t + "\n" for t in texts))


class TestWireFormat:
    def test_round_trip_value_identical(self, tmp_path):
        samples, manifest = gen_dataset(12, master_seed=5,
                                        options=GenOptions(depth_dropout=0.0))
        write_dataset(samples, manifest, tmp_path)
        loaded, manifest2 = read_dataset(tmp_path)
        assert manifest2 == manifest
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.id == b.id and a.scene == b.scene
            np.testing.assert_array_equal(a.points_local, b.points_local)
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_array_equal(a.valid_depth, b.valid_depth)
            np.testing.assert_allclose(a.points_global, b.points_global, atol=1e-9)
            for pa, pb in zip(a.poses.poses, b.poses.poses):
                np.testing.assert_array_equal(pa.matrix, pb.matrix)

    @settings(max_examples=25, deadline=None)
    @given(draws=st.lists(st.tuples(st.integers(1, 40),
                                    st.sampled_from([DESK_INTRINSICS, WIDE_INTRINSICS,
                                                     CameraIntrinsics(8.0, 8.0, 4.0, 4.0, 8,
                                                                      8)]),
                                    st.sampled_from([0.0, 0.3, 0.9]),
                                    st.integers(0, 2**31 - 1)), max_size=6))
    def test_mixed_samples_round_trip_byte_for_byte(self, tmp_path_factory, draws):
        # T from 1 to 40, frame sizes and dropout mixed within one dataset:
        # written, read and written again, the files are identical, and every
        # stored field has the bytes of the generated sample, depth-dropout
        # sentinels included
        samples = []
        for i, (t, intrinsics, dropout, seed) in enumerate(draws):
            opts = GenOptions(t_min=max(t, 2), t_max=max(t, 2), depth_dropout=dropout,
                              intrinsics=intrinsics)
            spec = dg.sample_spec(opts, seed, dg.SCENES_SEEN[i % len(dg.SCENES_SEEN)])
            samples.append(first_steps(gen_sample(spec, f"s{i:05d}"), t))
        manifest = {"n": len(samples), "seed": 0}
        first, again = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("again")
        write_dataset(samples, manifest, first)
        got, manifest2 = read_dataset(first)
        assert manifest2 == manifest
        write_dataset(got, manifest2, again)
        for name in ("data.jsonl", "data.f64", "manifest.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
        assert_same_samples(got, reference_read_dataset(first)[0])
        for a, b in zip(got, samples):
            assert (a.id, a.scene, a.intrinsics) == (b.id, b.scene, b.intrinsics)
            for x, y in ((a.frames, b.frames), (a.points_local, b.points_local),
                         (a.valid_depth, b.valid_depth), (a.poses.matrices, b.poses.matrices),
                         (a.poses.cumulative, b.poses.cumulative)):
                assert (x.dtype, x.shape) == (y.dtype, y.shape)
                assert x.tobytes() == y.tobytes()
            ok = a.valid_depth
            np.testing.assert_allclose(a.points_global[ok], b.points_global[ok], rtol=0,
                                       atol=1e-9)

    def test_line_is_a_header_and_the_record_is_in_the_sidecar(self, tmp_path):
        samples, manifest = gen_dataset(3, 2, GenOptions(depth_dropout=0.3,
                                                         split_counts=(3, 0, 0, 0)))
        write_dataset(samples, manifest, tmp_path)
        docs = [json.loads(line) for line in (tmp_path / "data.jsonl").read_text().splitlines()]
        values = np.fromfile(tmp_path / "data.f64", dtype="<f8")
        at = 0
        for doc, s in zip(docs, samples):
            assert list(doc) == ["format", "id", "scene", "T", "intrinsics", "at"]
            assert (doc["format"], doc["id"], doc["T"], doc["at"]) == (3, s.id, s.horizon, at)
            fields = record_views(values, doc)
            np.testing.assert_array_equal(fields["poses"], s.poses.matrices)
            np.testing.assert_array_equal(fields["points_local"], s.points_local)
            np.testing.assert_array_equal(fields["valid_depth"], s.valid_depth.astype(float))
            np.testing.assert_array_equal(fields["frames"], s.frames)
            at += s.horizon * (STEP_VALUES + 16 * 16)
        assert len(values) == at

    def test_reader_returns_read_only_arrays(self, tmp_path):
        write_dataset(*gen_dataset(3, 2, GenOptions(split_counts=(3, 0, 0, 0))), tmp_path)
        for s in read_dataset(tmp_path)[0]:
            for x in sample_arrays(s):
                with pytest.raises(ValueError, match="read-only"):
                    x.flat[0] = x.flat[0]

    def test_a_sample_holds_only_its_own_record(self, tmp_path):
        # a kept split must not keep the rest of the dataset's records alive
        write_dataset(*gen_dataset(3, 2, GenOptions(split_counts=(3, 0, 0, 0))), tmp_path)
        for s in read_dataset(tmp_path)[0]:
            record = s.frames.base
            assert record.nbytes == s.horizon * (STEP_VALUES + 16 * 16) * 8
            assert s.points_local.base is record

    def test_dataset_rewritten_in_place_from_its_read(self, tmp_path):
        # the reader holds the records in memory, so writing over them is safe
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        write_dataset(*gen_dataset(4, 6, GenOptions(depth_dropout=0.3)), here)
        write_dataset(*read_dataset(here), fresh)
        write_dataset(*read_dataset(here), here)
        for name in ("data.jsonl", "data.f64", "manifest.json"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_empty_file(self, tmp_path):
        # no samples still make all three files, and they read back
        manifest = gen_dataset(4, master_seed=0)[1]
        write_dataset([], manifest, tmp_path)
        assert (tmp_path / "data.jsonl").read_bytes() == b""
        assert (tmp_path / "data.f64").read_bytes() == b""
        assert read_dataset(tmp_path) == ([], manifest)

    def test_truncated_line_reports_number(self, tmp_path):
        samples, manifest = gen_dataset(3, master_seed=2, options=GenOptions(split_counts=(1, 1, 1, 0)))
        write_dataset(samples, manifest, tmp_path)
        lines = (tmp_path / "data.jsonl").read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(tmp_path)

    def test_missing_key_reports_number(self, tmp_path):
        samples, manifest = gen_dataset(2, master_seed=2, options=GenOptions(split_counts=(1, 0, 1, 0)))
        write_dataset(samples, manifest, tmp_path)
        lines = (tmp_path / "data.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        del doc["at"]
        lines[0] = json.dumps(doc)
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 1: missing key 'at'$"):
            read_dataset(tmp_path)

    @staticmethod
    def _three_samples(path):
        """Write three samples to ``path``; returns their decoded lines."""
        samples, manifest = gen_dataset(3, master_seed=2, options=GenOptions(split_counts=(1, 1, 1, 0)))
        write_dataset(samples, manifest, path)
        return [json.loads(line) for line in (path / "data.jsonl").read_text().splitlines()]

    @pytest.mark.parametrize("case", sorted(LINE_FAULTS))
    def test_malformed_sample_reports_line_and_id(self, tmp_path, case):
        docs = self._three_samples(tmp_path)
        apply_faults(tmp_path, docs, [{}, LINE_FAULTS[case], {}])
        with pytest.raises(ParseError, match="^line 2: sample 's00001'") as err:
            read_dataset(tmp_path)
        assert err.value.line_no == 2
        if case in POSE_FAULTS:
            assert "pose at step 3 " in str(err.value)

    def test_missing_sidecar_is_named(self, tmp_path):
        self._three_samples(tmp_path)
        (tmp_path / "data.f64").unlink()
        with pytest.raises(FileNotFoundError, match="data.f64"):
            read_dataset(tmp_path)

    def test_missing_sidecar_of_an_empty_dataset_is_named(self, tmp_path):
        write_dataset([], gen_dataset(4, master_seed=0)[1], tmp_path)
        (tmp_path / "data.f64").unlink()
        with pytest.raises(FileNotFoundError, match="data.f64"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("keep, line", [
        pytest.param(lambda total, starts: total - 8, 3, id="one value short"),
        pytest.param(lambda total, starts: total - 1, 3, id="one byte short"),
        pytest.param(lambda total, starts: starts[1] + 8, 2, id="ends in line 2"),
        pytest.param(lambda total, starts: starts[1], 2, id="ends before line 2"),
        pytest.param(lambda total, starts: 0, 1, id="empty"),
    ])
    def test_short_sidecar_names_the_first_sample_it_breaks(self, tmp_path, keep, line):
        docs = self._three_samples(tmp_path)
        sidecar = tmp_path / "data.f64"
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[: keep(len(data), [d["at"] * 8 for d in docs])])
        with pytest.raises(ParseError, match=f"^line {line}: sample 's0000{line - 1}': "
                                             "sidecar .*data.f64 ends") as err:
            read_dataset(tmp_path)
        assert err.value.line_no == line

    @pytest.mark.parametrize("extra", [8, 3])
    def test_trailing_sidecar_bytes_name_the_last_sample(self, tmp_path, extra):
        self._three_samples(tmp_path)
        with open(tmp_path / "data.f64", "ab") as f:
            f.write(b"\0" * extra)
        with pytest.raises(ParseError, match=f"^line 3: sample 's00002': sidecar .* has "
                                             f"{extra} bytes after the last sample's record"):
            read_dataset(tmp_path)

    def test_lines_out_of_record_order_refused(self, tmp_path):
        self._three_samples(tmp_path)
        lines = (tmp_path / "data.jsonl").read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 1: sample 's00001': at is"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("shift, message", [
        (1, "at is 3313, but the records before this sample end at 3312"),
        (-1, "at is 3311, but the records before this sample end at 3312"),
        (0.0, "at is 3312.0, but the records before this sample end at 3312"),
    ])
    def test_at_must_be_where_the_records_before_end(self, tmp_path, shift, message):
        docs = self._three_samples(tmp_path)
        assert docs[1]["at"] == 3312  # 12 steps of 20 + 16 x 16 values
        apply_faults(tmp_path, docs, [{}, {"at_shift": shift}, {}])
        with pytest.raises(ParseError, match=f"^line 2: sample 's00001': {re.escape(message)}$"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_other_wire_formats_refused(self, tmp_path, version):
        docs = self._three_samples(tmp_path)
        samples = read_dataset(tmp_path)[0]
        docs[1] = old_line(samples[1], version, docs[1]["at"]) if version < 3 else \
            {**docs[1], "format": version}
        write_lines(tmp_path, docs)
        with pytest.raises(ParseError, match=f"^line 2: sample 's00001': wire format {version}, "
                                             "not 3; re-run `reachcast gen`"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_dataset_refused_by_format_without_a_sidecar(self, tmp_path, version):
        # an older dataset has no data.f64 (format 2 keeps its frames in
        # data.frames.f64); its first line is refused before the sidecar is
        # looked for, so the message says what to do
        self._three_samples(tmp_path)
        samples = read_dataset(tmp_path)[0]
        (tmp_path / "data.f64").unlink()
        starts = np.cumsum([0] + [s.frames.size for s in samples])
        write_lines(tmp_path, [old_line(s, version, int(a)) for s, a in zip(samples, starts)])
        if version == 2:
            (tmp_path / "data.frames.f64").write_bytes(b"".join(s.frames.tobytes()
                                                                for s in samples))
        for reader in (read_dataset, reference_read_dataset):
            assert str(read_error(reader, tmp_path)) == (
                f"line 1: sample 's00000': wire format {version}, not 3; re-run `reachcast gen` "
                "to write the dataset again")

    def test_frames_that_disagree_with_the_intrinsics_are_not_written(self, tmp_path):
        samples, manifest = gen_dataset(2, master_seed=2, options=GenOptions(split_counts=(1, 0, 1, 0)))
        bad = dataclasses.replace(samples[1], frames=samples[1].frames[:, :8, :])
        with pytest.raises(ValueError, match=r"sample s00001: frames of shape \(\d+, 8, 16\)"):
            write_dataset([samples[0], bad], manifest, tmp_path)

    def test_poses_that_disagree_with_the_steps_are_not_written(self, tmp_path):
        samples, manifest = gen_dataset(2, master_seed=2, options=GenOptions(split_counts=(1, 0, 1, 0)))
        t = samples[1].horizon
        bad = dataclasses.replace(samples[1], poses=PoseChain(samples[1].poses.matrices[:-1]))
        with pytest.raises(ValueError, match=re.escape(f"sample s00001: poses of shape "
                                                       f"({t - 1}, 4, 4) are not (T, 4, 4) = "
                                                       f"({t}, 4, 4)")):
            write_dataset([samples[0], bad], manifest, tmp_path)

    def test_line_that_is_not_an_object_refused(self, tmp_path):
        self._three_samples(tmp_path)
        with open(tmp_path / "data.jsonl", "a") as f:
            f.write("[1, 2]\n")
        with pytest.raises(ParseError, match="^line 4: not a JSON object"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_read_is_the_sample_at_a_time_read(self, tmp_path, preset):
        # two passes give what reading each line on its own gives, bit for bit
        size, (t_min, t_max), n = {"desk": (16, (12, 16), 16), "paper": (64, (32, 40), 6)}[preset]
        side = float(size)
        intrinsics = CameraIntrinsics(fx=side, fy=side, ox=side / 2, oy=side / 2,
                                      width=side, height=side)
        opts = GenOptions(t_min=t_min, t_max=t_max, depth_dropout=0.3, intrinsics=intrinsics,
                          split_counts=(n, 0, 0, 0))
        write_dataset(*gen_dataset(n, 17, opts), tmp_path)
        got, manifest = read_dataset(tmp_path)
        want, manifest2 = reference_read_dataset(tmp_path)
        assert manifest == manifest2
        assert_same_samples(got, want)

    @pytest.mark.parametrize("case", [*sorted(LINE_FAULTS), "missing at", "format 2"])
    def test_malformed_sample_keeps_its_message(self, tmp_path, case):
        docs = self._three_samples(tmp_path)
        fault = {"missing at": {"drop": "at"}, "format 2": {"format": 2}}.get(case) or \
            LINE_FAULTS[case]
        apply_faults(tmp_path, docs, [{}, fault, {}])
        got = read_error(read_dataset, tmp_path)
        want = read_error(reference_read_dataset, tmp_path)
        assert (got.line_no, str(got)) == (want.line_no, str(want))

    def test_pose_message_is_pinned(self, tmp_path):
        docs = self._three_samples(tmp_path)
        apply_faults(tmp_path, docs, [{}, {"pose": "non-rigid pose"}, {}])
        assert str(read_error(read_dataset, tmp_path)) == (
            "line 2: sample 's00001': pose at step 3 rotation block is not orthonormal "
            "within 1e-06")

    @pytest.mark.parametrize("faults, line, message", [
        pytest.param([{}, {"pose": "non-rigid pose"}, {"json": True}], 2, "pose at step 3",
                     id="bad pose before bad JSON"),
        pytest.param([{}, {"json": True}, {"pose": "non-rigid pose"}], 2, "invalid JSON",
                     id="bad JSON before bad pose"),
        pytest.param([{"pose": "non-rigid pose"}, {}, {"pose": "nan rotation"}], 1,
                     "pose at step 3", id="first of two bad poses"),
        pytest.param([{}, {"pose": "non-rigid pose", "flag": 0.5}, {}], 2, "pose at step 3",
                     id="bad pose before a bad flag on its line"),
        pytest.param([{"flag": 0.5}, {"pose": "non-rigid pose"}, {}], 1, "valid_depth",
                     id="bad flag before a later bad pose"),
        pytest.param([{"pose": "non-rigid pose"}, {"flag": np.nan}, {}], 1, "pose at step 3",
                     id="bad pose before a later bad flag"),
        pytest.param([{}, {}, {"pose": "non-rigid pose", "short": True}], 3, "sidecar .* ends",
                     id="short record before its own bad pose"),
        pytest.param([{}, {"short": True}, {"pose": "non-rigid pose"}], 2, "sidecar .* ends",
                     id="short record before a later bad pose"),
        pytest.param([{"flag": 2.0}, {"short": True}, {}], 1, "valid_depth",
                     id="bad flag before a later short record"),
        pytest.param([{}, {}, {"pose": "non-rigid pose", "trailing": True}], 3,
                     "pose at step 3", id="bad pose before trailing bytes"),
        pytest.param([{"pose": "non-rigid pose"}, {}, {"T": 1.5}], 1, "pose at step 3",
                     id="bad pose before a bad T"),
        pytest.param([{"flag": 0.5}, {"at_shift": 1}, {}], 1, "valid_depth",
                     id="bad flag before a bad at"),
        pytest.param([{"pose": "non-rigid pose"}, {}, {"format": 2}], 1, "pose at step 3",
                     id="bad pose before an older line"),
        pytest.param([{}, {"T": 0}, {"pose": "non-rigid pose"}], 2, "T must be at least 1",
                     id="zero T before a later bad pose"),
    ])
    def test_first_error_in_file_order_wins(self, tmp_path, faults, line, message):
        docs = self._three_samples(tmp_path)
        apply_faults(tmp_path, docs, faults)
        got = read_error(read_dataset, tmp_path)
        want = read_error(reference_read_dataset, tmp_path)
        assert (got.line_no, str(got)) == (want.line_no, str(want))
        assert got.line_no == line
        assert re.match(f"line {line}: (sample 's0000{line - 1}': )?{message}", str(got))

    @pytest.mark.parametrize("value, shown", [(0.5, "0.5"), (np.nan, "nan"), (2.0, "2.0"),
                                              (-1.0, "-1.0"), (np.inf, "inf")])
    def test_valid_depth_must_be_zero_or_one(self, tmp_path, value, shown):
        docs = self._three_samples(tmp_path)
        apply_faults(tmp_path, docs, [{}, {"flag": value}, {}])
        with pytest.raises(ParseError, match="^line 2: sample 's00001': valid_depth must be "
                                             f"0.0 or 1.0, got {shown} at step 5$"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("T", 15.5, "T must be a JSON integer, got 15.5"),
        ("T", "15", "T must be a JSON integer, got '15'"),
        ("T", True, "T must be a JSON integer, got True"),
        ("T", 15.0, "T must be a JSON integer, got 15.0"),
        ("T", 0, "T must be at least 1, got 0"),
        ("T", -2, "T must be at least 1, got -2"),
        ("w", 16.4, "intrinsics w and h must be integral, got w=16.4, h=16"),
        ("h", 15.5, "intrinsics w and h must be integral, got w=16, h=15.5"),
        ("h", True, "intrinsics w and h must be integral, got w=16, h=True"),
    ])
    def test_sizes_must_be_integral(self, tmp_path, field, value, message):
        docs = self._three_samples(tmp_path)
        (docs[1] if field == "T" else docs[1]["intrinsics"])[field] = value
        write_lines(tmp_path, docs)
        with pytest.raises(ParseError, match=f"^line 2: sample 's00001': {re.escape(message)}$"):
            read_dataset(tmp_path)

    def test_zero_T_on_the_last_line_refused(self, tmp_path):
        # a T of 0 would make an empty record, so the sidecar's size alone
        # cannot refuse it
        docs = self._three_samples(tmp_path)
        last = docs[2]["T"] * (STEP_VALUES + 16 * 16)
        (tmp_path / "data.f64").write_bytes((tmp_path / "data.f64").read_bytes()[: -last * 8])
        docs[2]["T"] = 0
        write_lines(tmp_path, docs)
        with pytest.raises(ParseError, match="^line 3: sample 's00002': T must be at least 1, "
                                             "got 0$"):
            read_dataset(tmp_path)

    def test_integral_float_sizes_read(self, tmp_path):
        # the writer's float sides (16.0) are whole numbers, so they read
        samples, manifest = gen_dataset(2, 3, GenOptions(intrinsics=dataclasses.replace(
            DESK_INTRINSICS, width=16.0, height=12.0), split_counts=(2, 0, 0, 0)))
        write_dataset(samples, manifest, tmp_path)
        assert '"w":16.0,"h":12.0' in (tmp_path / "data.jsonl").read_text()
        got, _ = read_dataset(tmp_path)
        assert [s.frames.shape[1:] for s in got] == [(12, 16), (12, 16)]
        assert_same_samples(got, reference_read_dataset(tmp_path)[0])


class TestSeedMixing:
    def test_mix_is_index_sensitive(self):
        seeds = {dg.mix_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_mix_is_master_sensitive(self):
        assert dg.mix_seed(1, 0) != dg.mix_seed(2, 0)

    def test_subset_regeneration_matches(self):
        # generating sample i alone must equal sample i from the full run
        samples, _ = gen_dataset(8, master_seed=11)
        i = 5
        scene = dg.SCENES_SEEN[i % len(dg.SCENES_SEEN)]
        spec = dg.sample_spec(GenOptions(), dg.mix_seed(11, i), scene)
        solo = gen_sample(spec, f"s{i:05d}")
        np.testing.assert_array_equal(solo.frames, samples[i].frames)
        np.testing.assert_array_equal(solo.points_local, samples[i].points_local)
