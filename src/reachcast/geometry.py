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


def _check_pose(m, tol=1e-6):
    if m.shape != (4, 4):
        raise ValueError(f"pose must be 4x4, got {m.shape}")
    if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=tol):
        raise ValueError(f"pose bottom row must be [0,0,0,1], got {m[3]}")
    r = m[:3, :3]
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        raise ValueError("pose rotation block is not orthonormal within 1e-6")


class Pose:
    """A rigid camera-to-previous-frame transform."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(4, 4)
        _check_pose(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(4))

    @classmethod
    def from_rt(cls, rotation, translation):
        m = np.eye(4)
        m[:3, :3] = rotation
        m[:3, 3] = translation
        return cls(m)

    @classmethod
    def from_flat(cls, values):
        """16 row-major doubles, the serialized form."""
        return cls(np.asarray(values, dtype=np.float64).reshape(4, 4))

    def to_flat(self):
        return [float(v) for v in self.matrix.reshape(-1)]


class PoseChain:
    """Ordered per-frame poses M_1..M_T with cached cumulative products.

    The products form one (T+1, 4, 4) array: [0] is the identity,
    [t] = [t-1] @ M_t, and [t] maps frame-t local coordinates to the world
    (first camera) frame.

    Lifting and lowering take a 1-based step ``t``: one step for all
    points, or an array of steps, one per point (``p[i]`` at ``t[i]``).
    Each point is one (1,3) @ (3,3) product either way, so a whole
    trajectory at once is bit-identical to a loop over its steps.
    """

    __slots__ = ("poses", "_cumulative")

    def __init__(self, poses):
        self.poses = tuple(p if isinstance(p, Pose) else Pose(p) for p in poses)
        cum = np.empty((len(self.poses) + 1, 4, 4))
        cum[0] = np.eye(4)
        for t, p in enumerate(self.poses, start=1):
            cum[t] = cum[t - 1] @ p.matrix
        self._cumulative = cum

    def __len__(self):
        return len(self.poses)

    def _products(self, t):
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > len(self.poses)):
            raise IndexError(f"step {t} outside chain of length {len(self.poses)}")
        return self._cumulative[t]

    def local_to_global(self, p, t):
        """Carry frame-t local points into the world frame."""
        m = self._products(t)
        p = np.asarray(p, dtype=np.float64)[..., None, :]
        return (p @ np.swapaxes(m[..., :3, :3], -1, -2))[..., 0, :] + m[..., :3, 3]

    def global_to_local(self, p, t):
        """Inverse of local_to_global at the same steps."""
        m = self._products(t)
        p = np.asarray(p, dtype=np.float64) - m[..., :3, 3]
        return (p[..., None, :] @ m[..., :3, :3])[..., 0, :]

    def to_flat(self):
        return [p.to_flat() for p in self.poses]

    @classmethod
    def from_flat(cls, rows):
        return cls([Pose.from_flat(row) for row in rows])
