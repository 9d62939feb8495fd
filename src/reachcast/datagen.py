"""Synthetic egocentric-reach scenario generator and the dataset wire format.

Each sample is one desk-scale reach: a minimum-jerk hand path in the world
frame (the first camera frame), arced sideways by up to ``BOW_SCALE`` of
its length, a camera pose chain drifting by ``ROT_AMPLITUDE`` radians and
``TRANS_AMPLITUDE`` meters per step, per-step local camera coordinates,
and low-resolution grayscale frames with a Gaussian blob of std
``BLOB_SIGMA`` pixels rendered where the hand projects, plus Gaussian
noise of std ``PIXEL_NOISE``. Starts and targets are drawn within
``START_JITTER`` and ``TARGET_JITTER`` meters of their centers. These are
fixed for every dataset; ``GenOptions`` holds what a dataset may set.
Scenes name target zones; the seen/unseen split never shares a scene tag.

Wire format 2 (``FORMAT``): a dataset is a directory that holds all three
of ``data.jsonl``, its frames file and ``manifest.json``; the reader
refuses a dataset that lacks any of them.

- ``data.jsonl`` has one JSON object per sample, with every field but the
  pixels: {format, id, scene, T, intrinsics:{fx,fy,ox,oy,w,h},
  poses:[[16 doubles]...], points_local:[[x,y,z]...], valid_depth:[bool...],
  frames_at}. ``format`` is 2 and ``frames_at`` is the element (not byte)
  offset of the sample's first pixel in the frames file. ``T`` is a JSON
  integer, ``w`` and ``h`` are integral (16 or 16.0), and every
  ``valid_depth`` entry is a JSON boolean; anything else is a ParseError.
- The frames file sits beside the data file, named from its path
  (``data.jsonl`` -> ``data.frames.f64``). It is raw little-endian float64
  with no header: the samples in line order, each one's frames in C order
  as (T, H, W), with H and W the intrinsics' h and w. A short file, or
  values after the last sample's, is a ParseError.
- The manifest is {n, seed, splits:{train,val,test_seen,test_unseen},
  norm:{min:[3],max:[3]}}.

The reader takes format 2 only. A format-1 line (frames inline as a
``frames`` list, no ``format`` key) is a ParseError that says to re-run
``reachcast gen``. Global points are not serialized; readers recompute them
through the pose chain. Missing depth is stored as a zero sentinel with its
validity flag cleared.

``read_dataset`` reads in two passes: the lines in file order (decode,
checks, frames), then every pose chain in one ``PoseChain.stack`` and every
global point in one product. The error it raises is still the first in
file order: a bad pose wins over any later line's error, and over a later
check of its own line.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (CameraIntrinsics, PoseChain, PoseError, poses_from_flat, project,
                       to_global)

DESK_INTRINSICS = CameraIntrinsics(fx=16.0, fy=16.0, ox=8.0, oy=8.0, width=16, height=16)

START_CENTER = np.array([0.0, 0.06, 0.30])
TARGET_ZONES = {
    "desk_left": (-0.14, 0.05, 0.45),
    "desk_right": (0.14, 0.05, 0.45),
    "shelf_low": (-0.05, 0.10, 0.55),
    "shelf_high": (0.05, -0.08, 0.55),
    "drawer": (0.0, 0.12, 0.40),
    "keyboard": (0.0, 0.08, 0.35),
    "lamp": (0.12, -0.06, 0.50),
    "monitor": (-0.10, -0.04, 0.52),
}
SCENES_SEEN = ("desk_left", "desk_right", "shelf_low", "shelf_high", "drawer", "keyboard")
SCENES_UNSEEN = ("lamp", "monitor")

NORM_MARGIN = 0.05  # keep normalized targets inside the open tanh range
BLOB_SIGMA = 1.2  # pixels
PIXEL_NOISE = 0.05
ROT_AMPLITUDE = 0.004    # radians per step
TRANS_AMPLITUDE = 0.003  # meters per step
BOW_SCALE = 0.3  # peak arc as a fraction of the reach length
START_JITTER = 0.03
TARGET_JITTER = 0.04


class ParseError(ValueError):
    """Malformed dataset line or manifest; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def splitmix64(x):
    """The splitmix64 finalizer; mixes a master seed with an index."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def mix_seed(master_seed, index):
    return splitmix64((int(master_seed) << 20) ^ int(index))


@dataclass(frozen=True)
class GenOptions:
    """Dataset-level generation knobs (per-sample specs derive from these)."""

    t_min: int = 12
    t_max: int = 16
    depth_dropout: float = 0.0
    intrinsics: CameraIntrinsics = DESK_INTRINSICS
    split_counts: tuple | None = None  # (train, val, test_seen, test_unseen)

    def __post_init__(self):
        if not 2 <= self.t_min <= self.t_max:
            raise ValueError(f"need 2 <= t_min <= t_max, got t_min={self.t_min}, "
                             f"t_max={self.t_max}")
        if not 0.0 <= self.depth_dropout <= 1.0:
            raise ValueError("depth_dropout must be a probability")
        counts = self.split_counts
        if counts is not None and (len(counts) != 4 or min(counts) < 0):
            raise ValueError(f"split counts {tuple(counts)} are not four counts >= 0 "
                             "(train, val, test_seen, test_unseen)")

    def resolve_splits(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.split_counts is not None:
            counts = tuple(int(c) for c in self.split_counts)
            if sum(counts) != n:
                raise ValueError(f"split counts {counts} do not sum to n={n}")
            return counts
        n_unseen = max(n // 10, 1)
        n_val = max(n // 10, 1)
        n_seen_test = max(n // 10, 1)
        n_train = n - n_unseen - n_val - n_seen_test
        if n_train < 1:
            raise ValueError(f"n={n} too small to split")
        return n_train, n_val, n_seen_test, n_unseen


@dataclass(frozen=True)
class SceneSpec:
    """One reach clip's own draws, plus the dataset options it renders with."""

    scene: str
    start: np.ndarray
    target: np.ndarray
    duration: int
    opts: GenOptions
    bow: float = 0.0                 # peak lateral arc displacement (m)
    bow_dir: np.ndarray | None = None  # unit vector orthogonal to the reach
    seed: int = 0

    def __post_init__(self):
        if self.duration < 2:
            raise ValueError("duration must be >= 2")


@dataclass
class TrajectorySample:
    """One clip: frames, local/global points, poses, validity flags."""

    id: str
    scene: str
    frames: np.ndarray        # (T, H, W) grayscale in [0, 1]
    points_local: np.ndarray  # (T, 3) meters; invalid depth stored as z = 0
    points_global: np.ndarray  # (T, 3) meters in the first camera frame
    poses: PoseChain
    intrinsics: CameraIntrinsics
    valid_depth: np.ndarray   # (T,) bool
    horizon: int = field(init=False)

    def __post_init__(self):
        self.horizon = len(self.points_local)
        if len(self.frames) != self.horizon or len(self.valid_depth) != self.horizon:
            raise ValueError("frame/point/validity lengths differ")


def reach_path(start, target, steps):
    """Positions from start to target over `steps` points of minimum jerk."""
    if steps < 2:
        raise ValueError("need at least 2 steps")
    s0 = np.asarray(start, dtype=np.float64)
    s1 = np.asarray(target, dtype=np.float64)
    tau = np.arange(steps, dtype=np.float64)[:, None] / (steps - 1)
    tau = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    return s0 + (s1 - s0) * tau


def _smooth_noise(rng, steps):
    raw = rng.standard_normal((steps, 3))
    kernel = np.ones(5) / 5
    # "same" keeps max(steps, 5) rows; only the first `steps` are steps
    smooth = [np.convolve(raw[:, i], kernel, mode="same")[:steps] for i in range(3)]
    return np.stack(smooth, axis=1)


def _small_rotations(omega):
    """Nearest rotations to I + [w]x, one per row w of the (K, 3) omega.

    det(I + [w]x) = 1 + |w|^2 > 0, so each U V^T is a proper rotation.
    """
    wx, wy, wz = omega.T
    one = np.ones_like(wx)
    r = np.stack([
        np.stack([one, -wz, wy], axis=-1),
        np.stack([wz, one, -wx], axis=-1),
        np.stack([-wy, wx, one], axis=-1),
    ], axis=-2)
    u, _, vt = np.linalg.svd(r)
    return u @ vt


def gen_camera_path(steps, rng):
    """Per-step camera motion: identity first pose, then smooth small
    rotations/translations, orthonormalized per step."""
    rots = _smooth_noise(rng, steps) * ROT_AMPLITUDE
    trans = _smooth_noise(rng, steps) * TRANS_AMPLITUDE
    poses = np.tile(np.eye(4), (steps, 1, 1))
    poses[1:, :3, :3] = _small_rotations(rots[1:])
    poses[1:, :3, 3] = trans[1:]
    return PoseChain(poses)


def render_frame(points_local, intrinsics, rng):
    """(T, H, W) grayscale frames of the (T, 3) local hand points: a
    Gaussian blob of std ``BLOB_SIGMA`` pixels at each projected point,
    plus noise of std ``PIXEL_NOISE``, drawn from ``rng`` frame by frame."""
    h, w = int(intrinsics.height), int(intrinsics.width)
    uv = project(points_local, intrinsics)[:, :, None, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    rows = np.arange(h, dtype=np.float64)[:, None]
    blob = np.exp(-((cols - uv[:, 0]) ** 2 + (rows - uv[:, 1]) ** 2) / (2 * BLOB_SIGMA**2))
    frames = blob + PIXEL_NOISE * rng.standard_normal(blob.shape)
    return np.round(np.clip(frames, 0.0, 1.0), 6)


def gen_sample(spec, sample_id):
    """Synthesize one TrajectorySample from its spec (self-seeded)."""
    rng = np.random.default_rng([spec.seed, 1])  # distinct stream from sample_spec's
    steps, opts = spec.duration, spec.opts
    world = reach_path(spec.start, spec.target, steps)
    if spec.bow_dir is not None:
        # arc the reach sideways, peaking late (obstacle-clearing shape); the
        # progress-shaping keeps endpoint velocities at zero
        span = np.linalg.norm(spec.target - spec.start)
        progress = np.linalg.norm(world - spec.start, axis=1) / (span if span else 1.0)
        arc = np.sin(np.pi * np.clip(progress, 0, 1) ** 1.5)
        world = world + spec.bow * arc[:, None] * spec.bow_dir
    chain = gen_camera_path(steps, rng)

    local = chain.global_to_local(world, np.arange(1, steps + 1))
    if np.any(local[:, 2] <= 0):
        raise ValueError(f"sample {sample_id}: hand behind camera; check scene geometry")
    frames = render_frame(local, opts.intrinsics, rng)

    valid = np.ones(steps, dtype=bool)
    if opts.depth_dropout > 0:
        drop = rng.random(steps) < opts.depth_dropout
        allowed = max(steps - 10, 0)  # keep the repair fit feasible
        if drop.sum() > allowed:
            on = np.flatnonzero(drop)
            drop[:] = False
            drop[on[:allowed]] = True
        valid = ~drop
    stored_local = local.copy()
    stored_local[~valid, 2] = 0.0

    return TrajectorySample(
        id=sample_id, scene=spec.scene, frames=frames,
        points_local=stored_local, points_global=world,
        poses=chain, intrinsics=opts.intrinsics, valid_depth=valid,
    )


def _scene_arc_basis(scene):
    """Scene-characteristic arc: a fixed direction hint and relative size.

    Reaches into the same target zone clear the same clutter, so their
    lateral arcs share a direction; per-sample jitter stays small.
    """
    rng = np.random.default_rng(np.array([zlib.crc32(scene.encode()), 0xA5C]))
    hint = rng.standard_normal(3)
    return hint / np.linalg.norm(hint), rng.uniform(0.6, 1.0)


def sample_spec(opts, seed, scene):
    """Draw one sample's SceneSpec from its own seed (start, target, length, arc)."""
    rng = np.random.default_rng(seed)
    duration = int(rng.integers(opts.t_min, opts.t_max + 1))
    start = START_CENTER + rng.uniform(-START_JITTER, START_JITTER, 3)
    target = np.asarray(TARGET_ZONES[scene]) + rng.uniform(-TARGET_JITTER, TARGET_JITTER, 3)
    reach = target - start
    span = np.linalg.norm(reach)
    hint, amp = _scene_arc_basis(scene)
    hint = hint + 0.15 * rng.standard_normal(3)  # per-sample wobble
    raw = np.cross(reach, np.cross(hint, reach))  # project into the plane normal to the reach
    norm = np.linalg.norm(raw)
    bow, bow_dir = 0.0, None
    if norm > 1e-9:  # so span > 0 too
        bow_dir = raw / norm
        bow = BOW_SCALE * span * amp * rng.uniform(0.85, 1.15)
    return SceneSpec(scene=scene, start=start, target=target, duration=duration,
                     bow=bow, bow_dir=bow_dir, seed=seed, opts=opts)


def gen_dataset(n, master_seed, options=None):
    """Generate n samples plus the split/normalization manifest.

    Per-sample seeds mix the master seed with the sample index, so any
    subset of samples regenerates identically regardless of order.
    """
    opts = options or GenOptions()
    n_train, n_val, n_seen_test, n_unseen = opts.resolve_splits(n)
    n_seen = n_train + n_val + n_seen_test

    samples = []
    for i in range(n):
        if i < n_seen:
            scene = SCENES_SEEN[i % len(SCENES_SEEN)]
        else:
            scene = SCENES_UNSEEN[(i - n_seen) % len(SCENES_UNSEEN)]
        spec = sample_spec(opts, mix_seed(master_seed, i), scene)
        samples.append(gen_sample(spec, f"s{i:05d}"))

    ids = [s.id for s in samples]
    all_global = np.concatenate([s.points_global for s in samples])
    span = all_global.max(axis=0) - all_global.min(axis=0)
    lo = all_global.min(axis=0) - NORM_MARGIN * span
    hi = all_global.max(axis=0) + NORM_MARGIN * span
    manifest = {
        "n": n,
        "seed": int(master_seed),
        "splits": {
            "train": ids[:n_train],
            "val": ids[n_train : n_train + n_val],
            "test_seen": ids[n_train + n_val : n_seen],
            "test_unseen": ids[n_seen:],
        },
        "norm": {"min": lo.tolist(), "max": hi.tolist()},
    }
    return samples, manifest


# ---------------------------------------------------------------------------
# wire format


FORMAT = 2
FRAMES_DTYPE = np.dtype("<f8")


def _frames_path(data_path):
    """The frames file beside a data file: data.jsonl -> data.frames.f64."""
    return data_path.with_suffix(".frames.f64")


def _sample_to_json(s, frames_at):
    return {
        "format": FORMAT,
        "id": s.id,
        "scene": s.scene,
        "T": int(s.horizon),
        "intrinsics": s.intrinsics.to_dict(),
        "poses": s.poses.to_flat(),
        "points_local": s.points_local.tolist(),
        "valid_depth": [bool(v) for v in s.valid_depth],
        "frames_at": frames_at,
    }


def _whole(x):
    """Whether ``x`` is a JSON number with an integral value (16 or 16.0)."""
    return type(x) in (int, float) and float(x).is_integer()


def _line_fields(doc, line_no, frames_file, frames_at, frames_size, pending):
    """Pass 1 of ``read_dataset`` for one decoded line: every check but the
    rigidity of its poses, and the read of its frames, which start at
    element ``frames_at`` of the open frames file of ``frames_size`` bytes.

    The line's (T, 4, 4) poses go onto ``pending`` with its line number and
    id as soon as their shape is checked, so a later failure on this line
    still lets a bad pose win, as it would have in file order. Returns the
    sample's fields other than its chain and global points.
    """
    if not isinstance(doc, dict):
        raise ParseError(line_no, "not a JSON object")
    if doc.get("format", 1) != FORMAT:
        raise ValueError(f"wire format {doc.get('format', 1)!r}, not {FORMAT}; "
                         "re-run `reachcast gen` to write the dataset again")
    required = ("id", "scene", "T", "intrinsics", "poses", "points_local",
                "valid_depth", "frames_at")
    for key in required:
        if key not in doc:
            raise ParseError(line_no, f"missing key {key!r}")
    t = doc["T"]
    if type(t) is not int:
        raise ValueError(f"T must be a JSON integer, got {t!r}")
    intr = CameraIntrinsics.from_dict(doc["intrinsics"])
    if not (_whole(intr.width) and _whole(intr.height)):
        raise ValueError(f"intrinsics w and h must be integral, got w={intr.width!r}, "
                         f"h={intr.height!r}")
    poses = poses_from_flat(doc["poses"])
    pending.append((line_no, doc["id"], poses))
    local = np.asarray(doc["points_local"], dtype=np.float64)
    flags = doc["valid_depth"]
    if not isinstance(flags, list) or any(type(v) is not bool for v in flags):
        raise ValueError("valid_depth must be a list of JSON booleans")
    valid = np.array(flags, dtype=bool)
    if local.shape != (t, 3) or len(poses) != t or valid.shape != (t,):
        raise ParseError(line_no, f"inconsistent lengths for sample {doc['id']!r}")
    if doc["frames_at"] != frames_at:
        raise ValueError(f"frames_at is {doc['frames_at']!r}, but the frames before "
                         f"this sample end at {frames_at}")
    frames = np.empty((t, int(intr.height), int(intr.width)), dtype=FRAMES_DTYPE)
    missing = frames_at * FRAMES_DTYPE.itemsize + frames.nbytes - frames_size
    if missing > 0:
        raise ValueError(f"frames file {frames_file.name} ends {missing} bytes "
                         "before this sample's frames do")
    frames_file.readinto(frames)
    return dict(id=doc["id"], scene=doc["scene"], frames=frames, points_local=local,
                intrinsics=intr, valid_depth=valid)


def _chains(pending):
    """Pass 2's pose chains of the ``pending`` (line_no, id, poses) entries,
    in one ``PoseChain.stack``; the first bad pose in file order raises the
    ParseError of its line."""
    try:
        return PoseChain.stack([poses for _, _, poses in pending])
    except PoseError as e:
        line_no, sid, _ = pending[e.chain]
        raise ParseError(line_no, f"sample {sid!r}: {e}") from e


def write_dataset(samples, manifest, out_dir):
    """Write data.jsonl, its frames file and manifest.json; byte-stable for
    fixed inputs. Returns the paths of data.jsonl and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.jsonl"
    frames_at = 0
    with open(data_path, "w") as f, open(_frames_path(data_path), "wb") as frames_file:
        for s in samples:
            frames = np.ascontiguousarray(s.frames, dtype=FRAMES_DTYPE)
            shape = (s.horizon, int(s.intrinsics.height), int(s.intrinsics.width))
            if frames.shape != shape:
                raise ValueError(f"sample {s.id}: frames of shape {frames.shape} are not "
                                 f"(T, h, w) = {shape}")
            f.write(json.dumps(_sample_to_json(s, frames_at), separators=(",", ":")))
            f.write("\n")
            frames_file.write(frames.data)
            frames_at += frames.size
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return data_path, out / "manifest.json"


def read_manifest(path):
    """The manifest of the dataset directory ``path``; one that is not a
    JSON object raises ParseError naming it."""
    with open(Path(path) / "manifest.json") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(e.lineno, f"{f.name} is not valid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(1, f"{f.name} is not a JSON object")
    return doc


def read_dataset(path):
    """Read the dataset directory ``path``; returns (samples, manifest).

    Every sample is read before this returns, into its own frames array, so
    a dataset can be rewritten in place from what it returns. It reads in
    two passes. Pass 1 goes through the lines in file order: it decodes
    each, checks everything but the rigidity of its poses, and reads its
    frames. Pass 2 builds every pose chain with one ``PoseChain.stack`` and
    recomputes every sample's global points from its stored local points
    in one product. Malformed lines, and a frames file that does not hold
    exactly the lines' frames, raise ParseError with a line number, and the
    error raised is the first in file order: when pass 1 fails on a line,
    the poses of the lines before it, and of that line if their shape was
    read, are checked first, and a bad pose among them wins. A missing
    manifest, data file or frames file raises FileNotFoundError, the
    manifest's before any sample is read.
    """
    manifest = read_manifest(path)
    data_path = Path(path) / "data.jsonl"
    frames_path = _frames_path(data_path)
    fields, pending = [], []
    frames_at = last_line = 0
    with open(data_path) as f, open(frames_path, "rb") as frames_file:
        frames_size = os.fstat(frames_file.fileno()).st_size
        try:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(line_no, f"invalid JSON: {e}") from e
                try:
                    sample = _line_fields(doc, line_no, frames_file, frames_at, frames_size,
                                          pending)
                except ParseError:
                    raise
                except (ValueError, TypeError, KeyError) as e:
                    raise ParseError(line_no, f"sample {doc.get('id')!r}: {e}") from e
                fields.append(sample)
                frames_at += sample["frames"].size
                last_line = line_no
        except ParseError:
            _chains(pending)
            raise
    chains = _chains(pending)
    extra = frames_size - frames_at * FRAMES_DTYPE.itemsize
    if extra:
        sid = fields[-1]["id"] if fields else None
        raise ParseError(max(last_line, 1), f"sample {sid!r}: frames file {frames_path} has "
                                            f"{extra} bytes after the last sample's frames")
    if not fields:
        return [], manifest
    local = np.concatenate([s["points_local"] for s in fields])
    world = to_global(local, np.concatenate([c.cumulative[1:] for c in chains]))
    ends = np.cumsum([len(c) for c in chains])
    return [TrajectorySample(**s, points_global=w, poses=c)
            for s, w, c in zip(fields, np.split(world, ends[:-1]), chains)], manifest


def split_samples(samples, manifest, split):
    wanted = set(manifest["splits"][split])
    return [s for s in samples if s.id in wanted]
