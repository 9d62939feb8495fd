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


def reference_sample(doc, line_no, frames_file, frames_at, frames_size):
    """One line's sample, read and checked on its own: its chain built and
    its points lifted before the next line is read."""
    if not isinstance(doc, dict):
        raise ParseError(line_no, "not a JSON object")
    if doc.get("format", 1) != dg.FORMAT:
        raise ValueError(f"wire format {doc.get('format', 1)!r}, not {dg.FORMAT}; "
                         "re-run `reachcast gen` to write the dataset again")
    for key in ("id", "scene", "T", "intrinsics", "poses", "points_local", "valid_depth",
                "frames_at"):
        if key not in doc:
            raise ParseError(line_no, f"missing key {key!r}")
    t = doc["T"]
    if type(t) is not int:
        raise ValueError(f"T must be a JSON integer, got {t!r}")
    intr = CameraIntrinsics.from_dict(doc["intrinsics"])
    if not all(type(x) in (int, float) and float(x).is_integer()
               for x in (intr.width, intr.height)):
        raise ValueError(f"intrinsics w and h must be integral, got w={intr.width!r}, "
                         f"h={intr.height!r}")
    chain = PoseChain.from_flat(doc["poses"])
    local = np.asarray(doc["points_local"], dtype=np.float64)
    flags = doc["valid_depth"]
    if not isinstance(flags, list) or not all(type(v) is bool for v in flags):
        raise ValueError("valid_depth must be a list of JSON booleans")
    valid = np.array(flags, dtype=bool)
    if local.shape != (t, 3) or len(chain) != t or valid.shape != (t,):
        raise ParseError(line_no, f"inconsistent lengths for sample {doc['id']!r}")
    if doc["frames_at"] != frames_at:
        raise ValueError(f"frames_at is {doc['frames_at']!r}, but the frames before "
                         f"this sample end at {frames_at}")
    frames = np.empty((t, int(intr.height), int(intr.width)), dtype="<f8")
    missing = frames_at * 8 + frames.nbytes - frames_size
    if missing > 0:
        raise ValueError(f"frames file {frames_file.name} ends {missing} bytes "
                         "before this sample's frames do")
    frames_file.readinto(frames)
    return dg.TrajectorySample(
        id=doc["id"], scene=doc["scene"], frames=frames, points_local=local,
        points_global=chain.local_to_global(local, np.arange(1, t + 1)), poses=chain,
        intrinsics=intr, valid_depth=valid)


def reference_read_dataset(path):
    """``read_dataset`` a sample at a time, in file order."""
    manifest = dg.read_manifest(path)
    data_path = Path(path) / "data.jsonl"
    frames_path = data_path.with_suffix(".frames.f64")
    samples, frames_at, last_line = [], 0, 0
    with open(data_path) as f, open(frames_path, "rb") as frames_file:
        frames_size = os.fstat(frames_file.fileno()).st_size
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"invalid JSON: {e}") from e
            try:
                sample = reference_sample(doc, line_no, frames_file, frames_at, frames_size)
            except ParseError:
                raise
            except (ValueError, TypeError, KeyError) as e:
                raise ParseError(line_no, f"sample {doc.get('id')!r}: {e}") from e
            samples.append(sample)
            frames_at += sample.frames.size
            last_line = line_no
    extra = frames_size - frames_at * 8
    if extra:
        sid = samples[-1].id if samples else None
        raise ParseError(max(last_line, 1), f"sample {sid!r}: frames file {frames_path} has "
                                            f"{extra} bytes after the last sample's frames")
    return samples, manifest


def assert_same_samples(got, want):
    """Field for field and byte for byte."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.scene, a.intrinsics, a.horizon) == (b.id, b.scene, b.intrinsics,
                                                             b.horizon)
        for x, y in ((a.frames, b.frames), (a.points_local, b.points_local),
                     (a.points_global, b.points_global), (a.valid_depth, b.valid_depth),
                     (a.poses.cumulative, b.poses.cumulative),
                     (np.array([p.matrix for p in a.poses.poses]),
                      np.array([p.matrix for p in b.poses.poses]))):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()
        assert a.frames.flags.owndata and not a.poses.cumulative.flags.writeable


def read_error(reader, path):
    """The ParseError ``reader`` raises on the dataset at ``path``."""
    with pytest.raises(ParseError) as err:
        reader(path)
    return err.value


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
            again = PoseChain.from_flat(chain.to_flat())
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
        for name in ("data.jsonl", "data.frames.f64", "manifest.json"):
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

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6),
           dropout=st.sampled_from([0.0, 0.3, 0.9]),
           intrinsics=st.sampled_from([DESK_INTRINSICS, WIDE_INTRINSICS]))
    def test_round_trip_property(self, tmp_path_factory, seed, n, dropout, intrinsics):
        # every stored field reads back exactly, depth-dropout sentinels included
        samples, manifest = gen_dataset(n, seed, GenOptions(t_min=11, t_max=14,
                                                            depth_dropout=dropout,
                                                            intrinsics=intrinsics,
                                                            split_counts=(n, 0, 0, 0)))
        out = tmp_path_factory.mktemp("wire")
        write_dataset(samples, manifest, out)
        loaded, manifest2 = read_dataset(out)
        assert manifest2 == manifest
        assert [s.id for s in loaded] == [s.id for s in samples]
        for a, b in zip(samples, loaded):
            assert a.scene == b.scene and a.intrinsics == b.intrinsics
            np.testing.assert_array_equal(a.points_local, b.points_local)
            np.testing.assert_array_equal(a.valid_depth, b.valid_depth)
            np.testing.assert_array_equal(a.frames, b.frames)
            assert b.frames.shape == a.frames.shape and b.frames.flags.owndata
            assert len(a.poses) == len(b.poses)
            for pa, pb in zip(a.poses.poses, b.poses.poses):
                np.testing.assert_array_equal(pa.matrix, pb.matrix)
            ok = b.valid_depth
            np.testing.assert_allclose(b.points_global[ok], a.points_global[ok], rtol=0,
                                       atol=1e-9)

    def test_empty_file(self, tmp_path):
        # no samples still make all three files, and they read back
        manifest = gen_dataset(4, master_seed=0)[1]
        write_dataset([], manifest, tmp_path)
        assert (tmp_path / "data.jsonl").read_bytes() == b""
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
        del doc["poses"]
        lines[0] = json.dumps(doc)
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            read_dataset(tmp_path)


    @staticmethod
    def _corrupt(doc, case, frames_path):
        if case == "15-value pose":
            doc["poses"][1] = doc["poses"][1][:15]
        elif case == "15-value poses":
            doc["poses"] = [row[:15] for row in doc["poses"]]
        elif case == "non-rigid pose":
            doc["poses"][2][0] = 1.5
        elif case == "bad bottom row":
            doc["poses"][2][12] = 0.5
        elif case == "nan rotation":
            doc["poses"][2][1] = float("nan")
        elif case == "inf translation":
            doc["poses"][2][3] = float("inf")
        elif case == "2-wide point":
            doc["points_local"][4] = doc["points_local"][4][:2]
        elif case == "short frame row":  # the frames file ends inside frame 5
            pixels = int(doc["intrinsics"]["h"]) * int(doc["intrinsics"]["w"])
            end = (doc["frames_at"] + 6 * pixels - 1) * 8
            frames_path.write_bytes(frames_path.read_bytes()[:end])
        elif case == "null T":
            doc["T"] = None

    @pytest.mark.parametrize("case", [
        "15-value pose", "15-value poses", "non-rigid pose", "bad bottom row",
        "nan rotation", "inf translation", "2-wide point", "short frame row", "null T",
    ])
    def test_malformed_sample_reports_line_and_id(self, tmp_path, case):
        samples, manifest = gen_dataset(3, master_seed=2, options=GenOptions(split_counts=(1, 1, 1, 0)))
        write_dataset(samples, manifest, tmp_path)
        lines = (tmp_path / "data.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        self._corrupt(doc, case, tmp_path / "data.frames.f64")
        lines[1] = json.dumps(doc)
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 2: sample 's00001'") as err:
            read_dataset(tmp_path)
        assert err.value.line_no == 2
        if case in ("non-rigid pose", "bad bottom row", "nan rotation", "inf translation"):
            assert "pose at step 3 " in str(err.value)

    @staticmethod
    def _three_samples(path):
        """Write three samples to ``path``; returns their decoded lines."""
        samples, manifest = gen_dataset(3, master_seed=2, options=GenOptions(split_counts=(1, 1, 1, 0)))
        write_dataset(samples, manifest, path)
        return [json.loads(line) for line in (path / "data.jsonl").read_text().splitlines()]

    def test_missing_frames_file_is_named(self, tmp_path):
        self._three_samples(tmp_path)
        (tmp_path / "data.frames.f64").unlink()
        with pytest.raises(FileNotFoundError, match="data.frames.f64"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("keep, line", [
        pytest.param(lambda total, starts: total - 8, 3, id="one value short"),
        pytest.param(lambda total, starts: total - 1, 3, id="one byte short"),
        pytest.param(lambda total, starts: starts[1] + 8, 2, id="ends in line 2"),
        pytest.param(lambda total, starts: 0, 1, id="empty"),
    ])
    def test_short_frames_file_names_the_first_sample_it_breaks(self, tmp_path, keep, line):
        docs = self._three_samples(tmp_path)
        frames = tmp_path / "data.frames.f64"
        data = frames.read_bytes()
        frames.write_bytes(data[: keep(len(data), [d["frames_at"] * 8 for d in docs])])
        with pytest.raises(ParseError, match=f"^line {line}: sample 's0000{line - 1}': "
                                             "frames file .* ends") as err:
            read_dataset(tmp_path)
        assert err.value.line_no == line

    @pytest.mark.parametrize("extra", [8, 3])
    def test_trailing_frames_bytes_name_the_last_sample(self, tmp_path, extra):
        self._three_samples(tmp_path)
        with open(tmp_path / "data.frames.f64", "ab") as f:
            f.write(b"\0" * extra)
        with pytest.raises(ParseError, match=f"^line 3: sample 's00002': frames file .* has "
                                             f"{extra} bytes after the last sample's frames"):
            read_dataset(tmp_path)

    def test_lines_out_of_frames_order_refused(self, tmp_path):
        self._three_samples(tmp_path)
        lines = (tmp_path / "data.jsonl").read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 1: sample 's00001': frames_at is"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("case", ["format 1", "format 3"])
    def test_other_wire_formats_refused(self, tmp_path, case):
        docs = self._three_samples(tmp_path)
        samples = read_dataset(tmp_path)[0]
        doc = docs[1]
        if case == "format 1":  # the old line: frames inline, no format or frames_at
            del doc["format"], doc["frames_at"]
            doc["frames"] = samples[1].frames.reshape(samples[1].horizon, -1).tolist()
        else:
            doc["format"] = 3
        lines = [json.dumps(d) for d in docs]
        (tmp_path / "data.jsonl").write_text("\n".join(lines) + "\n")
        version = case.split()[1]
        with pytest.raises(ParseError, match=f"^line 2: sample 's00001': wire format {version}, "
                                             "not 2; re-run `reachcast gen`"):
            read_dataset(tmp_path)

    def test_frames_that_disagree_with_the_intrinsics_are_not_written(self, tmp_path):
        samples, manifest = gen_dataset(2, master_seed=2, options=GenOptions(split_counts=(1, 0, 1, 0)))
        bad = dataclasses.replace(samples[1], frames=samples[1].frames[:, :8, :])
        with pytest.raises(ValueError, match=r"sample s00001: frames of shape \(\d+, 8, 16\)"):
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

    @pytest.mark.parametrize("case", [
        "15-value pose", "15-value poses", "non-rigid pose", "bad bottom row",
        "nan rotation", "inf translation", "2-wide point", "short frame row", "null T",
    ])
    def test_malformed_sample_keeps_its_message(self, tmp_path, case):
        docs = self._three_samples(tmp_path)
        self._corrupt(docs[1], case, tmp_path / "data.frames.f64")
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        got = read_error(read_dataset, tmp_path)
        want = read_error(reference_read_dataset, tmp_path)
        assert (got.line_no, str(got)) == (want.line_no, str(want))

    def test_pose_message_is_pinned(self, tmp_path):
        docs = self._three_samples(tmp_path)
        self._corrupt(docs[1], "non-rigid pose", None)
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        assert str(read_error(read_dataset, tmp_path)) == (
            "line 2: sample 's00001': pose at step 3 rotation block is not orthonormal "
            "within 1e-06")

    @pytest.mark.parametrize("edit, line, message", [
        pytest.param(lambda lines: (lines[1].update(bad=True), lines[2].update(json=True)), 2,
                     "pose at step 3", id="bad pose before bad JSON"),
        pytest.param(lambda lines: (lines[2].update(bad=True), lines[1].update(json=True)), 2,
                     "invalid JSON", id="bad JSON before bad pose"),
        pytest.param(lambda lines: (lines[0].update(bad=True), lines[2].update(bad=True)), 1,
                     "pose at step 3", id="first of two bad poses"),
        pytest.param(lambda lines: lines[1].update(bad=True, point=True), 2, "pose at step 3",
                     id="bad pose before a bad point on its line"),
        pytest.param(lambda lines: lines[1].update(shape=True, point=True), 2,
                     "poses must be rows of 16", id="bad pose shape before a bad point"),
        pytest.param(lambda lines: lines[2].update(bad=True, short=True), 3, "pose at step 3",
                     id="bad pose before its line's short frames"),
        pytest.param(lambda lines: (lines[2].update(bad=True), lines[1].update(short=True)), 2,
                     "frames file .* ends", id="short frames before a later bad pose"),
        pytest.param(lambda lines: lines[2].update(bad=True, trailing=True), 3,
                     "pose at step 3", id="bad pose before trailing frames"),
        pytest.param(lambda lines: (lines[0].update(bad=True), lines[2].update(T=1.5)), 1,
                     "pose at step 3", id="bad pose before a bad T"),
    ])
    def test_first_error_in_file_order_wins(self, tmp_path, edit, line, message):
        docs = self._three_samples(tmp_path)
        frames = tmp_path / "data.frames.f64"
        faults = [{} for _ in docs]
        edit(faults)
        texts = []
        for doc, fault in zip(docs, faults):
            if fault.get("bad"):
                doc["poses"][2][0] = 1.5
            if fault.get("shape"):
                doc["poses"] = [row[:15] for row in doc["poses"]]
            if fault.get("point"):
                doc["points_local"][4] = doc["points_local"][4][:2]
            if "T" in fault:
                doc["T"] = fault["T"]
            if fault.get("short"):
                frames.write_bytes(frames.read_bytes()[: (doc["frames_at"] + 5) * 8])
            if fault.get("trailing"):
                frames.write_bytes(frames.read_bytes() + b"\0" * 8)
            texts.append(json.dumps(doc)[:-9] if fault.get("json") else json.dumps(doc))
        (tmp_path / "data.jsonl").write_text("".join(t + "\n" for t in texts))
        got = read_error(read_dataset, tmp_path)
        want = read_error(reference_read_dataset, tmp_path)
        assert (got.line_no, str(got)) == (want.line_no, str(want))
        assert got.line_no == line
        assert re.match(f"line {line}: (sample 's0000{line - 1}': )?{message}", str(got))

    @pytest.mark.parametrize("flags", [
        pytest.param(lambda n: ["false"] * (n - 1) + ["true"], id="strings"),
        pytest.param(lambda n: [0.5] * n, id="fractions"),
        pytest.param(lambda n: [1] * n, id="ones"),
        pytest.param(lambda n: [True] * (n - 1) + [None], id="null"),
        pytest.param(lambda n: "true" * n, id="string"),
    ])
    def test_valid_depth_must_be_booleans(self, tmp_path, flags):
        docs = self._three_samples(tmp_path)
        docs[1]["valid_depth"] = flags(docs[1]["T"])
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        with pytest.raises(ParseError, match="^line 2: sample 's00001': valid_depth must be "
                                             "a list of JSON booleans$"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("T", 15.5, "T must be a JSON integer, got 15.5"),
        ("T", "15", "T must be a JSON integer, got '15'"),
        ("T", True, "T must be a JSON integer, got True"),
        ("T", 15.0, "T must be a JSON integer, got 15.0"),
        ("w", 16.4, "intrinsics w and h must be integral, got w=16.4, h=16"),
        ("h", 15.5, "intrinsics w and h must be integral, got w=16, h=15.5"),
        ("h", True, "intrinsics w and h must be integral, got w=16, h=True"),
    ])
    def test_sizes_must_be_integral(self, tmp_path, field, value, message):
        docs = self._three_samples(tmp_path)
        (docs[1] if field == "T" else docs[1]["intrinsics"])[field] = value
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        with pytest.raises(ParseError, match=f"^line 2: sample 's00001': {re.escape(message)}$"):
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
