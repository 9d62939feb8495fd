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


def to_global(p, products):
    """Lift local points into the world frame, the inverse of ``to_local``:
    ``p[..., i, :]`` through ``products[i]``, one (1,3) @ (3,3) product per
    point, so any stack of points and products is bit-identical to a loop
    over them."""
    p = np.asarray(p, dtype=np.float64)[..., None, :]
    return (p @ np.swapaxes(products[..., :3, :3], -1, -2))[..., 0, :] + products[..., :3, 3]


_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])


class PoseError(ValueError):
    """A pose that is not a rigid transform. ``chain`` is the 0-based index,
    among the stacks checked together (see ``PoseChain.stack``), of the
    chain that holds it."""

    def __init__(self, message, chain=0):
        super().__init__(message)
        self.chain = chain


def _checked_poses(m, tol=1e-6, starts=(0,)):
    """Validate a (T, 4, 4) stack of rigid transforms and make it read-only.

    Each pose must be finite, have the bottom row [0, 0, 0, 1] and an
    orthonormal rotation block, both within ``tol``. The stack may be the
    concatenation of several chains whose first rows are the ascending
    ``starts``; the PoseError names the first failing pose by its chain
    and its 1-based step in that chain.
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
        i = int(bad[0])
        if not finite[i]:
            reason = "has a non-finite entry"
        elif not bottom[i]:
            reason = f"bottom row must be [0,0,0,1], got {m[i, 3]}"
        else:
            reason = f"rotation block is not orthonormal within {tol:g}"
        chain = int(np.searchsorted(starts, i, side="right")) - 1
        raise PoseError(f"pose at step {i - int(starts[chain]) + 1} {reason}", chain)
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

    The poses are one read-only (T, 4, 4) array ``matrices``, validated as
    a whole; each ``poses[i].matrix`` is a view of its row. The products
    form one read-only (T+1, 4, 4) array ``cumulative``: [0] is the
    identity, [t] = [t-1] @ M_t, and [t] maps frame-t local coordinates to
    the world (first camera) frame.

    ``stack`` builds many chains at once: one check of all their poses, and
    step t's products of every chain at least t long as one stacked
    product, in lock step over t. Each product is the same 4x4 BLAS product
    a chain built alone forms, so the bytes do not depend on the company a
    chain is built in. ``PoseChain(poses)`` is its one-chain case.

    Lifting and lowering take a 1-based step ``t``: one step for all
    points, or an array of steps, one per point (``p[i]`` at ``t[i]``).
    Each point is one (1,3) @ (3,3) product either way, so a whole
    trajectory at once is bit-identical to a loop over its steps.
    """

    __slots__ = ("_poses", "_matrices", "_cumulative")

    def __init__(self, poses):
        """``poses``: Pose objects or 4x4 arrays, or one (T, 4, 4) array."""
        if not isinstance(poses, np.ndarray):
            poses = [p.matrix if isinstance(p, Pose) else p for p in poses]
        m = np.array(poses, dtype=np.float64)
        ((self._matrices, self._cumulative),) = _chain_arrays(m, [len(m)])
        self._poses = None

    @classmethod
    def stack(cls, stacks):
        """One chain per (T_i, 4, 4) array of the list ``stacks``, built in
        one pass (see the class docstring). A pose that fails the check
        raises a PoseError naming its chain's index and its step there."""
        stacks = [np.asarray(m, dtype=np.float64) for m in stacks]
        for i, m in enumerate(stacks):
            if m.ndim != 3 or m.shape[1:] != (4, 4):
                raise PoseError(f"poses must be a stack of 4x4 matrices, got shape {m.shape}", i)
        if not stacks:
            return []
        chains = []
        for matrices, cumulative in _chain_arrays(np.concatenate(stacks),
                                                  [len(m) for m in stacks]):
            chain = object.__new__(cls)
            chain._matrices, chain._cumulative, chain._poses = matrices, cumulative, None
            chains.append(chain)
        return chains

    @property
    def matrices(self):
        """The read-only (T, 4, 4) poses M_1..M_T."""
        return self._matrices

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
        return to_global(p, self._products(t))

    def global_to_local(self, p, t):
        """Inverse of local_to_global at the same steps."""
        return to_local(p, self._products(t))


def _chain_arrays(flat, lengths):
    """Check the concatenated poses ``flat`` of chains of ``lengths`` and
    return each chain's (matrices, cumulative) pair of read-only views.

    The products of all chains are one (k, T_max+1, 4, 4) array, filled in
    lock step: the chains sorted by length, longest first, step t is one
    stacked matmul over the chains at least t long. A lone chain takes a
    2-D ``np.dot`` per step instead; both form each product with the same
    4x4 BLAS call, so the bytes are the same.
    """
    starts = np.cumsum(lengths) - lengths
    _checked_poses(flat, starts=starts)
    if len(lengths) == 1:
        cum = np.empty((len(flat) + 1, 4, 4))
        cum[0] = np.eye(4)
        rows = list(cum)
        for a, m, out in zip(rows, flat, rows[1:]):
            np.dot(a, m, out=out)
        cum.setflags(write=False)
        return [(flat, cum)]
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    t_max = int(lengths[order[0]])
    # row r of `padded` is chain order[r]'s poses, its last pose repeated past its end
    padded = flat[starts[order, None] + np.minimum(np.arange(t_max), lengths[order, None] - 1)]
    cum = np.empty((len(lengths), t_max + 1, 4, 4))
    cum[:, 0] = np.eye(4)
    live = np.searchsorted(-lengths[order], -np.arange(1, t_max + 1), side="right")
    for t, n in enumerate(live.tolist(), start=1):
        np.matmul(cum[:n, t - 1], padded[:n, t - 1], out=cum[:n, t])
    cum.setflags(write=False)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return [(flat[a : a + n], cum[r, : n + 1])
            for a, n, r in zip(starts.tolist(), lengths.tolist(), rank.tolist())]
