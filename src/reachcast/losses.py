"""Training losses: one uncertainty-aware location loss, and velocity.

The location loss (``drau_batch``) has the heteroscedastic form
exp(-a) * r + a, where r is the squared (or Huber) location residual and
a the predicted log-variance. It serves every coordinate mode: in 2d mode
it is this one term over (x, y); in 3D modes the uncertainty is split, one
scalar for the image-plane coordinates and one for depth, and the depth
term is weighted by per-step stability weights that the loss derives from
the ground-truth depths. A velocity head is supervised by first-order
differences and by warping accumulated velocities against predicted
positions.

Every loss is batched: it consumes autodiff tensors shaped (N, T, ...) plus
numpy target/mask constants, and a single trajectory is the N=1 case. The
targets must have the model's compute dtype; masks and weights are built
in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

RESIDUAL_KINDS = ("squared", "huber")


@dataclass(frozen=True)
class LossConfig:
    residual_kind: str = "huber"
    huber_delta: float = 1e-5
    gamma: float = 0.1
    velocity_weight: float = 1.0
    location_weight: float = 1.0

    def __post_init__(self):
        if self.residual_kind not in RESIDUAL_KINDS:
            raise ValueError(f"residual_kind must be one of {RESIDUAL_KINDS}")
        if self.huber_delta <= 0:
            raise ValueError("huber_delta must be > 0")
        if min(self.gamma, self.velocity_weight, self.location_weight) < 0:
            raise ValueError("loss weights must be >= 0")


def residual_lastdim(diff, kind, delta):
    """Reduce a (..., d) difference tensor to a (..., 1) residual."""
    if kind == "squared":
        per = ad.mul(diff, diff)
    elif kind == "huber":
        per = ad.huber(diff, delta)
    else:
        raise ValueError(f"residual kind must be one of {RESIDUAL_KINDS}")
    return ad.reduce_sum(per, axis=-1, keepdims=True)


def attenuated(alpha, resid):
    """exp(-alpha) * resid + alpha, elementwise."""
    return ad.add(ad.mul(ad.neg_exp(alpha), resid), alpha)


def depth_stability_weights(depths, valid):
    """Per-step simplex weights favoring stable ground-truth depth.

    weights = softmax(-|z_t - z_{t-1}|) over the horizon, with the first
    difference defined as zero. depths is (N, T); the (N, T) valid mask
    restricts the softmax support (padded steps get weight 0).
    """
    z = np.asarray(depths, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    dz = np.abs(np.diff(z, axis=1, prepend=z[:, :1]))
    logits = np.where(valid, -dz, -np.inf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def drau_batch(mean, alpha, beta, targets, valid, cfg):
    """The location loss, averaged over valid steps and batch.

    mean (N,T,d) and alpha/beta (N,T,1) are graph tensors; targets (N,T,d)
    and valid (N,T) are numpy constants. In 3D (d=3) the depth term is
    weighted by the depth stability of the targets; in 2d mode (d=2) beta
    is None and the loss is the single attenuated term over (x, y).
    """
    n, t, d = mean.shape
    dtype = mean.data.dtype
    if d != (2 if beta is None else 3):
        raise ValueError(f"a {d}-wide mean with beta {'None' if beta is None else 'given'}: "
                         "beta is given with 3D means and None with 2d ones")
    diff = ad.sub(mean, ad.constant(targets))
    if beta is None:
        per_step = attenuated(alpha, residual_lastdim(diff, cfg.residual_kind, cfg.huber_delta))
    else:
        s_xy = residual_lastdim(ad.slice_axis(diff, 2, 0, 2), cfg.residual_kind, cfg.huber_delta)
        s_z = residual_lastdim(ad.slice_axis(diff, 2, 2, 3), cfg.residual_kind, cfg.huber_delta)
        w = depth_stability_weights(targets[..., 2], valid).astype(dtype).reshape(n, t, 1)
        per_step = ad.add(attenuated(alpha, s_xy), ad.mul(ad.constant(w), attenuated(beta, s_z)))
    vmask = valid.reshape(n, t, 1).astype(dtype)
    per_sample = ad.reduce_sum(ad.mul(per_step, ad.constant(vmask)), axis=1)  # (N,1)
    inv_count = ad.constant(1.0 / np.maximum(vmask.sum(axis=1), 1.0))
    return ad.mean(ad.mul(per_sample, inv_count))


def velocity_batch(vel, mean, targets, first_future, valid, gamma):
    """Velocity supervision plus warped-position constraint, batch-averaged.

    vel/mean are graph tensors (N,T,d); targets (N,T,d) numpy. first_future
    (N,) gives the 0-based index of the first forecast step (== C), valid
    (N,T) masks real steps. Per-sample terms are the plain sums of the
    per-step squared norms; only the batch dimension is averaged.
    """
    n, t, d = vel.shape
    dtype = vel.data.dtype
    steps = np.arange(t)
    vmask = valid.astype(dtype).reshape(n, t, 1)
    fut = ((steps[None, :] >= first_future[:, None]) & valid).astype(dtype).reshape(n, t, 1)

    prev = np.concatenate([np.zeros((n, 1, d), dtype=dtype), targets[:, :-1]], axis=1)
    gt_diff = ad.constant((targets - prev) * vmask)
    verr = ad.sub(gt_diff, ad.mul(vel, ad.constant(np.broadcast_to(vmask, (n, t, d)).copy())))
    term1 = ad.reduce_sum(ad.mul(verr, verr), axis=(1, 2))  # (N,)

    # p_C + cumulative future velocities, via a lower-triangular matmul
    lower = np.tril(np.ones((t, t), dtype=dtype))
    fut_d = np.broadcast_to(fut, (n, t, d)).copy()
    cums = ad.matmul(ad.constant(lower), ad.mul(vel, ad.constant(fut_d)))
    anchor_idx = np.clip(first_future - 1, 0, t - 1)
    anchor = targets[np.arange(n), anchor_idx]  # p_C per sample
    anchor = np.where((first_future > 0)[:, None], anchor, 0.0)
    warp = ad.add(cums, ad.constant(np.broadcast_to(anchor[:, None, :], (n, t, d)).copy()))
    werr = ad.mul(ad.sub(warp, mean), ad.constant(fut_d))
    term2 = ad.reduce_sum(ad.mul(werr, werr), axis=(1, 2))

    return ad.mean(ad.add(term1, ad.scale(term2, gamma)))


def total_batch(out, targets, first_future, valid, cfg):
    """Weighted sum of the location and velocity objectives over the
    outputs of ``model.forward_batch``; returns (total, location, velocity)."""
    loc = drau_batch(out["mean"], out["alpha"], out["beta"], targets, valid, cfg)
    velo = velocity_batch(out["velocity"], out["mean"], targets, first_future, valid, cfg.gamma)
    total = ad.add(ad.scale(loc, cfg.location_weight), ad.scale(velo, cfg.velocity_weight))
    return total, loc, velo
