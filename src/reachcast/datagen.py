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

Sample i draws from two streams of its own, seeded from ``mix_seed(master
seed, i)``: the spec stream ``default_rng(seed)`` and the path stream
``default_rng([seed, 1])``. Each draws in a fixed order, one sample at a
time:

- spec: the duration T, the start jitter (3), the target jitter (3), the
  arc hint's wobble (3), then the bow's size factor, drawn only where the
  arc is defined (the hint is not parallel to the reach);
- path: the rotation noise (T, 3), the translation noise (T, 3), the frame
  noise (T, H, W), then the depth dropout (T), drawn only when
  ``depth_dropout`` > 0.

``gen_dataset`` runs the arithmetic between the draws in lock step over
all samples, in stages: the specs' vector math on (n, 3) arrays, the hand
paths, the camera paths (one stacked rotation fit and one
``PoseChain.stack``), the lowering of every point into its camera frame
(one ``to_local``) and its projection (one ``project``). Then each sample
renders its frames into an array of its own and draws its dropout. Every
value is formed by the operation that would form it for the sample alone,
so a sample's bytes do not depend on the dataset around it.

Wire format 3 (``FORMAT``): a dataset is a directory that holds all three
of ``data.jsonl``, its sidecar ``data.f64`` and ``manifest.json``; the
reader refuses a dataset that lacks any of them.

- ``data.jsonl`` has one JSON object per sample, its header:
  {format, id, scene, T, intrinsics:{fx,fy,ox,oy,w,h}, at}. ``format`` is
  3, ``T`` is a JSON integer of at least 1, ``w`` and ``h`` are integral
  (16 or 16.0), and ``at`` is the JSON integer element (not byte) offset of
  the sample's record in the sidecar, where the records before it end.
  Anything else is a ParseError.
- The sidecar sits beside the data file, named from its path
  (``data.jsonl`` -> ``data.f64``). It is raw little-endian float64 with no
  header: one record per sample, in line order. A record is the sample's
  poses (T, 4, 4), its ``points_local`` (T, 3), its ``valid_depth`` (T,)
  stored as exactly 0.0 or 1.0, and its frames (T, H, W), each in C order,
  with H and W the intrinsics' h and w. A sidecar that ends inside a
  record, values after the last record, or a flag of any other value
  is a ParseError.
- The manifest is {n, seed, splits:{train,val,test_seen,test_unseen},
  norm:{min:[3],max:[3]}}.

The reader takes format 3 only. A line of format 1 (no ``format`` key,
frames inline) or format 2 (poses, points and flags inline, frames in
``data.frames.f64``) is a ParseError that says to re-run ``reachcast gen``.
The lines are checked before the sidecar is opened, so an older dataset,
which has no ``data.f64``, gets that message and not a missing file. Every
float64 keeps its bits through a write and a read. Global points are not
serialized; readers recompute them through the pose chain. Missing depth is
stored as a zero sentinel with its validity flag cleared.

``read_dataset`` reads in two passes: the lines in file order (decode and
checks), then each record into an array of its own, every pose chain in
one ``PoseChain.stack`` and every global point in one product. The error
it raises is still the first in file order: a bad pose or flag wins over
any later sample's error.
"""

from __future__ import annotations

import bisect
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, PoseChain, PoseError, project, to_global, to_local

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


SEED_BITS, INDEX_BITS = 44, 20  # the 64 bits mix_seed packs a seed and an index into


def mix_seed(master_seed, index):
    """Sample ``index``'s seed under ``master_seed``: splitmix64 of the pair
    packed as ``(master_seed << INDEX_BITS) ^ index``. A seed in [0,
    2**SEED_BITS) and an index in [0, 2**INDEX_BITS) fill disjoint bits, so
    distinct pairs pack differently; anything else is a ValueError."""
    if not (0 <= master_seed < 2**SEED_BITS and 0 <= index < 2**INDEX_BITS):
        raise ValueError(f"master seed {master_seed} and sample index {index} are not in "
                         f"[0, 2**{SEED_BITS}) and [0, 2**{INDEX_BITS})")
    return splitmix64((int(master_seed) << INDEX_BITS) ^ int(index))


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


def min_jerk(steps):
    """Progress from 0 to 1 over ``steps`` points of minimum jerk, as a
    (steps, 1) column; a reach from s0 to s1 is ``s0 + (s1 - s0) * min_jerk``."""
    if steps < 2:
        raise ValueError("need at least 2 steps")
    tau = np.arange(steps, dtype=np.float64)[:, None] / (steps - 1)
    return 10 * tau**3 - 15 * tau**4 + 6 * tau**5


def _smooth_noise(rng, out):
    """Fill the (T, 3) ``out`` with one (T, 3) draw of ``rng``, each column
    smoothed by a 5-step moving average."""
    raw = rng.standard_normal(out.shape)
    kernel = np.ones(5) / 5
    for i in range(3):
        # "same" keeps max(T, 5) values; only the first T are steps
        out[:, i] = np.convolve(raw[:, i], kernel, mode="same")[: len(out)]


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


def _norms(x):
    """The Euclidean norm of each row of the (n, 3) ``x``. Each is the dot
    product ``np.linalg.norm`` takes of a lone vector, one (1,3) @ (3,1)
    product per row, so its bits do not depend on the rows beside it."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def render_frame(uv, intrinsics, rng):
    """(T, H, W) grayscale frames of one sample whose hand projects to the
    (T, 2) pixel coordinates ``uv``: a Gaussian blob of std ``BLOB_SIGMA``
    pixels at each point, plus noise of std ``PIXEL_NOISE`` from one
    (T, H, W) draw of ``rng``, clipped to [0, 1] and rounded to 6 decimals.
    The frames are formed in place in one array of their own."""
    h, w = int(intrinsics.height), int(intrinsics.width)
    uv = uv[:, :, None, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    rows = np.arange(h, dtype=np.float64)[:, None]
    frames = np.add((cols - uv[:, 0]) ** 2, (rows - uv[:, 1]) ** 2, out=np.empty((len(uv), h, w)))
    np.negative(frames, out=frames)
    frames /= 2 * BLOB_SIGMA**2
    np.exp(frames, out=frames)
    noise = rng.standard_normal(frames.shape)
    noise *= PIXEL_NOISE
    frames += noise
    np.clip(frames, 0.0, 1.0, out=frames)
    return np.round(frames, 6, out=frames)


def _scene_arc_basis(scene):
    """Scene-characteristic arc: a fixed direction hint and relative size.

    Reaches into the same target zone clear the same clutter, so their
    lateral arcs share a direction; per-sample jitter stays small.
    """
    rng = np.random.default_rng(np.array([zlib.crc32(scene.encode()), 0xA5C]))
    hint = rng.standard_normal(3)
    return hint / np.linalg.norm(hint), rng.uniform(0.6, 1.0)


def gen_dataset(n, master_seed, options=None):
    """Generate n samples plus the split/normalization manifest.

    Sample i's seed mixes the master seed with i, and its scene follows
    from i and the splits. Its two streams draw in the fixed order of the
    module docstring, a sample at a time; the arithmetic runs in lock step
    over all samples, each value formed as it would be for the sample
    alone. So a sample has the same bytes whatever dataset it is generated
    in. A hand point behind the camera raises the ValueError of the first
    such sample in index order, before any frame is rendered.
    """
    opts = options or GenOptions()
    n_train, n_val, n_seen_test, n_unseen = opts.resolve_splits(n)
    n_seen = n_train + n_val + n_seen_test
    scenes = [SCENES_SEEN[i % len(SCENES_SEEN)] if i < n_seen
              else SCENES_UNSEEN[(i - n_seen) % len(SCENES_UNSEEN)] for i in range(n)]
    seeds = [mix_seed(master_seed, i) for i in range(n)]

    # the spec: each stream's draws, then the vector math on (n, 3) arrays
    spec_rngs = [np.random.default_rng(seed) for seed in seeds]
    steps = np.empty(n, dtype=np.int64)
    draws = np.empty((3, n, 3))  # start jitter, target jitter, hint wobble
    for i, rng in enumerate(spec_rngs):
        steps[i] = rng.integers(opts.t_min, opts.t_max + 1)
        draws[0, i] = rng.uniform(-START_JITTER, START_JITTER, 3)
        draws[1, i] = rng.uniform(-TARGET_JITTER, TARGET_JITTER, 3)
        draws[2, i] = rng.standard_normal(3)
    start = START_CENTER + draws[0]
    target = np.array([TARGET_ZONES[s] for s in scenes]) + draws[1]
    reach = target - start
    span = _norms(reach)
    basis = {s: _scene_arc_basis(s) for s in dict.fromkeys(scenes)}
    hint = np.array([basis[s][0] for s in scenes]) + 0.15 * draws[2]
    raw = np.cross(reach, np.cross(hint, reach))  # into the plane normal to the reach
    norm = _norms(raw)
    arced = norm > 1e-9  # so span > 0 too
    bow_draw = [rng.uniform(0.85, 1.15) for rng, ok in zip(spec_rngs, arced) if ok]
    bow_dir = raw[arced] / norm[arced, None]
    bow = BOW_SCALE * span[arced] * np.array([basis[s][1] for s in scenes])[arced] * bow_draw

    # the hand path in the world frame, arced sideways, peaking late
    # (obstacle-clearing shape); the progress-shaping keeps endpoint
    # velocities at zero
    first = np.cumsum(steps) - steps  # each sample's first row
    own = [slice(a, a + t) for a, t in zip(first.tolist(), steps.tolist())]  # and its rows
    taus = {t: min_jerk(t) for t in np.unique(steps).tolist()}
    world = (np.repeat(start, steps, axis=0)
             + np.repeat(reach, steps, axis=0) * np.concatenate([taus[t] for t in steps.tolist()]))
    rows = np.repeat(arced, steps)
    arc_steps = steps[arced]
    progress = (np.linalg.norm(world[rows] - np.repeat(start[arced], arc_steps, axis=0), axis=1)
                / np.repeat(span[arced], arc_steps))
    arc = np.sin(np.pi * np.clip(progress, 0, 1) ** 1.5)
    world[rows] += ((np.repeat(bow, arc_steps) * arc)[:, None]
                    * np.repeat(bow_dir, arc_steps, axis=0))

    # the camera paths: identity first poses, then smooth small rotations
    # and translations, orthonormalized per step
    path_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]
    rots, trans = np.empty((2, len(world), 3))
    for rng, r in zip(path_rngs, own):
        _smooth_noise(rng, rots[r])
        _smooth_noise(rng, trans[r])
    later = np.arange(len(world)) != np.repeat(first, steps)  # every row but a sample's first
    poses = np.tile(np.eye(4), (len(world), 1, 1))
    poses[later, :3, :3] = _small_rotations(rots[later] * ROT_AMPLITUDE)
    poses[later, :3, 3] = trans[later] * TRANS_AMPLITUDE
    chains = PoseChain.stack([poses[r] for r in own])

    local = to_local(world, np.concatenate([c.cumulative[1:] for c in chains]))
    behind = np.flatnonzero(local[:, 2] <= 0)
    if len(behind):
        i = int(np.searchsorted(first, behind[0], side="right")) - 1
        raise ValueError(f"sample s{i:05d}: hand behind camera; check scene geometry")
    uv = project(local, opts.intrinsics)

    # the frames and the depth dropout, a sample at a time
    frames = [render_frame(uv[r], opts.intrinsics, rng) for rng, r in zip(path_rngs, own)]
    valid = np.ones(len(world), dtype=bool)
    if opts.depth_dropout > 0:
        for rng, r, t in zip(path_rngs, own, steps.tolist()):
            drop = np.flatnonzero(rng.random(t) < opts.depth_dropout)
            valid[r.start + drop[: max(t - 10, 0)]] = False  # keep the repair fit feasible
    local[~valid, 2] = 0.0

    samples = [TrajectorySample(id=f"s{i:05d}", scene=scene, frames=fr, points_local=local[r],
                                points_global=world[r], poses=chain, intrinsics=opts.intrinsics,
                                valid_depth=valid[r])
               for i, (scene, fr, r, chain) in enumerate(zip(scenes, frames, own, chains))]
    ids = [s.id for s in samples]
    lo, hi = world.min(axis=0), world.max(axis=0)
    margin = NORM_MARGIN * (hi - lo)
    manifest = {
        "n": n,
        "seed": int(master_seed),
        "splits": {
            "train": ids[:n_train],
            "val": ids[n_train : n_train + n_val],
            "test_seen": ids[n_train + n_val : n_seen],
            "test_unseen": ids[n_seen:],
        },
        "norm": {"min": (lo - margin).tolist(), "max": (hi + margin).tolist()},
    }
    return samples, manifest


# ---------------------------------------------------------------------------
# wire format


FORMAT = 3
WIRE_DTYPE = np.dtype("<f8")
# a record's values per step before its frames: a pose, a local point, a flag
_STEP_VALUES = 16 + 3 + 1


def _sidecar_path(data_path):
    """The sidecar beside a data file: data.jsonl -> data.f64."""
    return data_path.with_suffix(".f64")


def _record(s):
    """The pieces of sample ``s``'s sidecar record, in their order, each a
    C-contiguous WIRE_DTYPE array; a piece whose shape does not follow from
    the sample's T and intrinsics is a ValueError."""
    t, h, w = s.horizon, int(s.intrinsics.height), int(s.intrinsics.width)
    pieces = (("poses", s.poses.matrices, "(T, 4, 4)", (t, 4, 4)),
              ("points_local", s.points_local, "(T, 3)", (t, 3)),
              ("valid_depth", np.asarray(s.valid_depth, dtype=bool), "(T,)", (t,)),
              ("frames", s.frames, "(T, h, w)", (t, h, w)))
    record = []
    for name, x, label, shape in pieces:
        x = np.ascontiguousarray(x, dtype=WIRE_DTYPE)
        if x.shape != shape:
            raise ValueError(f"sample {s.id}: {name} of shape {x.shape} are not "
                             f"{label} = {shape}")
        record.append(x)
    return record


def _whole(x):
    """Whether ``x`` is a JSON number with an integral value (16 or 16.0)."""
    return type(x) in (int, float) and float(x).is_integer()


def _head(doc, line_no, at):
    """The checks of one decoded line, whose record should start at element
    ``at`` of the sidecar; returns its (id, scene, T, intrinsics)."""
    if not isinstance(doc, dict):
        raise ParseError(line_no, "not a JSON object")
    if doc.get("format", 1) != FORMAT:
        raise ValueError(f"wire format {doc.get('format', 1)!r}, not {FORMAT}; "
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
    if not (_whole(intr.width) and _whole(intr.height)):
        raise ValueError(f"intrinsics w and h must be integral, got w={intr.width!r}, "
                         f"h={intr.height!r}")
    if type(doc["at"]) is not int or doc["at"] != at:
        raise ValueError(f"at is {doc['at']!r}, but the records before this sample end at {at}")
    return doc["id"], doc["scene"], t, intr


class _Head(NamedTuple):
    """A checked line: its sample's record is sidecar elements [at, end)."""

    line_no: int
    id: str
    scene: str
    t: int
    intrinsics: CameraIntrinsics
    at: int
    end: int


def _heads(data_path):
    """Pass 1 of ``read_dataset``: each line of ``data_path`` decoded and
    checked, in file order, up to the first that fails. Returns the
    ``_Head`` of each line before it, and the ParseError it raised, or
    None."""
    heads, at = [], 0
    with open(data_path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                return heads, ParseError(line_no, f"invalid JSON: {e}")
            try:
                sid, scene, t, intr = _head(doc, line_no, at)
            except ParseError as e:
                return heads, e
            except (ValueError, TypeError, KeyError) as e:
                return heads, ParseError(line_no, f"sample {doc.get('id')!r}: {e}")
            end = at + t * (_STEP_VALUES + int(intr.height) * int(intr.width))
            heads.append(_Head(line_no, sid, scene, t, intr, at, end))
            at = end
    return heads, None


def write_dataset(samples, manifest, out_dir):
    """Write data.jsonl, its sidecar data.f64 and manifest.json; byte-stable
    for fixed inputs. Returns the paths of data.jsonl and manifest.json.

    Each line and each piece of each record goes out with its own write,
    so the writer holds no more than the samples do.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.jsonl"
    at = 0
    with open(data_path, "w") as f, open(_sidecar_path(data_path), "wb") as sidecar:
        for s in samples:
            record = _record(s)
            f.write(json.dumps({"format": FORMAT, "id": s.id, "scene": s.scene,
                                "T": int(s.horizon), "intrinsics": s.intrinsics.to_dict(),
                                "at": at}, separators=(",", ":")))
            f.write("\n")
            for piece in record:
                sidecar.write(piece.data)
                at += piece.size
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

    Pass 1 decodes and checks the lines in file order; it does not open
    the sidecar, so a line of another wire format is refused before a
    missing ``data.f64`` is noticed. Then each sample's record is read into
    an array of its own, not a memory map, so a dataset can be rewritten in
    place from what this returns, and a sample that is kept holds no other
    sample's record. Its local points and frames are read-only views of
    that array; its flags and global points are read-only arrays of their
    own. Pass 2 builds every pose chain with one ``PoseChain.stack``, checks
    every flag at once, and lifts every local point to the world frame with
    one ``to_global``.

    Malformed lines, and a sidecar that does not hold exactly the lines'
    records, raise ParseError with a line number. The error raised is the
    first in file order: a sample's line checks come before its record, a
    record that the sidecar cuts short is refused before its contents are
    checked, and its poses are checked before its flags. So a bad pose or
    flag in an earlier record wins over a later line's error. A missing
    manifest, data file or sidecar raises FileNotFoundError, the
    manifest's before any line is read.
    """
    manifest = read_manifest(path)
    data_path = Path(path) / "data.jsonl"
    heads, failure = _heads(data_path)
    if failure is not None and not heads:
        raise failure
    sidecar_path = _sidecar_path(data_path)
    poses, local, flags, frames = [], [], [], []
    with open(sidecar_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        whole = bisect.bisect_right([h.end for h in heads], size // WIRE_DTYPE.itemsize)
        if whole < len(heads):
            h = heads[whole]
            failure = ParseError(h.line_no, f"sample {h.id!r}: sidecar {sidecar_path} ends "
                                            f"{h.end * WIRE_DTYPE.itemsize - size} bytes "
                                            "before this sample's record does")
            heads = heads[:whole]
        for h in heads:
            t = h.t
            record = np.empty(h.end - h.at, dtype=WIRE_DTYPE)
            f.readinto(record)
            record.setflags(write=False)
            poses.append(record[: 16 * t].reshape(t, 4, 4))
            local.append(record[16 * t : 19 * t].reshape(t, 3))
            flags.append(record[19 * t : 20 * t])
            frames.append(record[20 * t :].reshape(t, int(h.intrinsics.height),
                                                   int(h.intrinsics.width)))
    all_flags = np.concatenate(flags) if heads else np.empty(0)
    bad = np.flatnonzero((all_flags != 0.0) & (all_flags != 1.0))
    steps = np.cumsum([h.t for h in heads])
    bad_sample = int(np.searchsorted(steps, bad[0], side="right")) if len(bad) else len(heads)
    try:
        chains = PoseChain.stack(poses[: bad_sample + 1])
    except PoseError as e:
        h = heads[e.chain]
        raise ParseError(h.line_no, f"sample {h.id!r}: {e}") from e
    if len(bad):
        h = heads[bad_sample]
        step = int(bad[0] - (steps[bad_sample] - h.t)) + 1
        raise ParseError(h.line_no, f"sample {h.id!r}: valid_depth must be 0.0 or 1.0, got "
                                    f"{float(all_flags[bad[0]])!r} at step {step}")
    if failure is not None:
        raise failure
    extra = size - (heads[-1].end if heads else 0) * WIRE_DTYPE.itemsize
    if extra:
        line_no, sid = (heads[-1].line_no, heads[-1].id) if heads else (1, None)
        raise ParseError(line_no, f"sample {sid!r}: sidecar {sidecar_path} has {extra} bytes "
                                  "after the last sample's record")
    if not heads:
        return [], manifest
    valid = all_flags == 1.0
    world = to_global(np.concatenate(local), np.concatenate([c.cumulative[1:] for c in chains]))
    valid.setflags(write=False)
    world.setflags(write=False)
    cuts = steps[:-1]
    return [TrajectorySample(id=h.id, scene=h.scene, frames=fr, points_local=loc,
                             points_global=w, poses=c, intrinsics=h.intrinsics, valid_depth=v)
            for h, fr, loc, w, c, v in zip(heads, frames, local, np.split(world, cuts), chains,
                                           np.split(valid, cuts))], manifest


def split_samples(samples, manifest, split):
    wanted = set(manifest["splits"][split])
    return [s for s in samples if s.id in wanted]
