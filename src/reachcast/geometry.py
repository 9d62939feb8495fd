"""Pinhole projection and camera pose chains.

Conventions: a pose ``M_t`` is a 4x4 row-major homogeneous transform
mapping frame-t camera coordinates toward the frame-(t-1) system, so the
cumulative product ``M_1 ... M_t`` carries frame-t local coordinates into
the first camera frame, which serves as the world frame. All types are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BehindCameraError(ValueError):
    """Projection requested for a point with non-positive depth."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    ox: float
    oy: float
    width: float
    height: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame extents must be positive, got ({self.width}, {self.height})")

    def to_dict(self):
        return {"fx": self.fx, "fy": self.fy, "ox": self.ox, "oy": self.oy,
                "w": self.width, "h": self.height}

    @classmethod
    def from_dict(cls, d):
        return cls(d["fx"], d["fy"], d["ox"], d["oy"], d["w"], d["h"])


def project(p, intrinsics):
    """Project local 3D points (meters) to pixel coordinates.

    Accepts shape (3,) or (..., 3); raises BehindCameraError if any
    depth is <= 0.
    """
    p = np.asarray(p, dtype=np.float64)
    z = p[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError(f"point behind camera: min z = {np.min(z)}")
    u = intrinsics.fx * p[..., 0] / z + intrinsics.ox
    v = intrinsics.fy * p[..., 1] / z + intrinsics.oy
    return np.stack([u, v], axis=-1)


def normalize_pixel(uv, intrinsics):
    """Map pixel coordinates to unit-square coordinates (u/W, v/H)."""
    uv = np.asarray(uv, dtype=np.float64)
    return np.stack([uv[..., 0] / intrinsics.width, uv[..., 1] / intrinsics.height], axis=-1)


def to_local(p, products):
    """Lower world points into local frames: ``p[..., i, :]`` through the
    cumulative pose product ``products[i]`` (see ``PoseChain``), which maps
    that frame's local coordinates to the world frame. Each point is one
    (1,3) @ (3,3) product, so a stack of any points and products, or a
    leading axis of points sharing the products, is bit-identical to a loop
    over them."""
    p = np.asarray(p, dtype=np.float64) - products[..., :3, 3]
    return (p[..., None, :] @ products[..., :3, :3])[..., 0, :]


_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])


def _checked_poses(m, tol=1e-6):
    """Validate a (T, 4, 4) stack of rigid transforms and make it read-only.

    Each pose must be finite, have the bottom row [0, 0, 0, 1] and an
    orthonormal rotation block, both within ``tol``. The error names the
    first failing 1-based step.
    """
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"poses must be a stack of 4x4 matrices, got shape {m.shape}")
    r = m[:, :3, :3]
    finite = np.isfinite(m).all(axis=(1, 2))
    with np.errstate(invalid="ignore", over="ignore"):
        bottom = (np.abs(m[:, 3] - _BOTTOM_ROW) <= tol).all(axis=1)
        ortho = (np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)) <= tol).all(axis=(1, 2))
    bad = np.flatnonzero(~(finite & bottom & ortho))
    if len(bad):
        i = bad[0]
        if not finite[i]:
            reason = "has a non-finite entry"
        elif not bottom[i]:
            reason = f"bottom row must be [0,0,0,1], got {m[i, 3]}"
        else:
            reason = f"rotation block is not orthonormal within {tol:g}"
        raise ValueError(f"pose at step {i + 1} {reason}")
    m.setflags(write=False)
    return m


class Pose:
    """A rigid camera-to-previous-frame transform."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(1, 4, 4)
        object.__setattr__(self, "matrix", _checked_poses(m)[0])

    @classmethod
    def _of_checked(cls, matrix):
        """Wrap a (4, 4) row of an already checked, read-only stack."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "matrix", matrix)
        return pose

    @classmethod
    def identity(cls):
        return cls(np.eye(4))


class PoseChain:
    """Ordered per-frame poses M_1..M_T with cached cumulative products.

    The poses are one read-only (T, 4, 4) array, validated as a whole;
    each ``poses[i].matrix`` is a view of its row. The products form one
    read-only (T+1, 4, 4) array ``cumulative``: [0] is the identity,
    [t] = [t-1] @ M_t, and [t] maps frame-t local coordinates to the world
    (first camera) frame.

    Lifting and lowering take a 1-based step ``t``: one step for all
    points, or an array of steps, one per point (``p[i]`` at ``t[i]``).
    Each point is one (1,3) @ (3,3) product either way, so a whole
    trajectory at once is bit-identical to a loop over its steps.
    """

    __slots__ = ("_poses", "_matrices", "_cumulative")

    def __init__(self, poses):
        """``poses``: Pose objects or 4x4 arrays, or one (T, 4, 4) array."""
        m = _checked_poses(np.array([p.matrix if isinstance(p, Pose) else p for p in poses],
                                    dtype=np.float64))
        self._matrices = m
        self._poses = None
        cum = np.empty((len(m) + 1, 4, 4))
        cum[0] = np.eye(4)
        for t in range(1, len(m) + 1):
            cum[t] = cum[t - 1] @ m[t - 1]
        cum.setflags(write=False)
        self._cumulative = cum

    @property
    def cumulative(self):
        """The (T+1, 4, 4) cumulative products; [t] lifts frame t to the world."""
        return self._cumulative

    @property
    def poses(self):
        """The poses as a tuple of ``Pose`` objects, built on first use."""
        if self._poses is None:
            self._poses = tuple(Pose._of_checked(row) for row in self._matrices)
        return self._poses

    def __len__(self):
        return len(self._matrices)

    def _products(self, t):
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > len(self)):
            raise IndexError(f"step {t} outside chain of length {len(self)}")
        return self._cumulative[t]

    def local_to_global(self, p, t):
        """Carry frame-t local points into the world frame."""
        m = self._products(t)
        p = np.asarray(p, dtype=np.float64)[..., None, :]
        return (p @ np.swapaxes(m[..., :3, :3], -1, -2))[..., 0, :] + m[..., :3, 3]

    def global_to_local(self, p, t):
        """Inverse of local_to_global at the same steps."""
        return to_local(p, self._products(t))

    def to_flat(self):
        """One list of 16 row-major doubles per pose, the serialized form."""
        return self._matrices.reshape(len(self), 16).tolist()

    @classmethod
    def from_flat(cls, rows):
        m = np.asarray(rows, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 16:
            raise ValueError(f"poses must be rows of 16 values, got shape {m.shape}")
        return cls(m.reshape(-1, 4, 4))
