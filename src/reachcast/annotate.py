"""Depth repair of trajectory annotations.

Depth repair fits z(t) = a1*t^3 + a2*t^2 + a3*t + a4 + a5*sin(a6*t) to the
valid depth samples of a track and fills the invalid ones from the fitted
curve. The model is linear in a1..a5 given a6, so the single nonlinear
parameter is found by a coarse log-grid scan followed by golden-section
refinement. The grid's exact (damped) linear solves run as one stacked
solve per track; each refinement candidate and the final fit get their own.
Time is normalized to [0, 1] before fitting to keep the cubic terms
conditioned. The refinement is scipy's bounded ``minimize_scalar``; scipy
loads on the first fit, so only ``repair`` needs it and every other
command starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_VALID_POINTS = 10
GRID_SIZE = 200
RIDGE = 1e-9


class InsufficientDataError(ValueError):
    """Fewer valid depth samples than the fitting minimum."""


@dataclass(frozen=True)
class DepthCurve:
    """Fitted depth model over normalized time tau = (t - t_lo) / (t_hi - t_lo)."""

    coeffs: tuple  # a1..a6
    t_lo: float
    t_hi: float
    rmse: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.coeffs[5] < 0 or not np.all(np.isfinite(self.coeffs)):
            raise ValueError(f"bad depth-curve coefficients: {self.coeffs}")

    def evaluate(self, times):
        a1, a2, a3, a4, a5, a6 = self.coeffs
        span = self.t_hi - self.t_lo
        tau = (np.asarray(times, dtype=np.float64) - self.t_lo) / (span if span else 1.0)
        return a1 * tau**3 + a2 * tau**2 + a3 * tau + a4 + a5 * np.sin(a6 * tau)


def _linear_solve(tau, z, a6):
    """Damped least squares for a1..a5 at fixed a6; returns (coeffs, sse).

    ``a6`` is one frequency, or an array of them solved as one stack: the
    results then carry a6's shape in front (coeffs (..., 5), sse (...)).
    Each stacked solve runs the same BLAS and LAPACK calls as a solve on
    its own, so its coefficients and SSE are bit-identical to one.
    """
    a6 = np.asarray(a6, dtype=np.float64)
    b = np.empty(a6.shape + (len(tau), 5))
    b[..., 0] = tau**3
    b[..., 1] = tau**2
    b[..., 2] = tau
    b[..., 3] = 1.0
    b[..., 4] = np.sin(a6[..., None] * tau)
    bt = np.swapaxes(b, -1, -2)
    gram = bt @ b + RIDGE * np.eye(5)
    coef = np.linalg.solve(gram, (bt @ z)[..., None])
    resid = z - (b @ coef)[..., 0]
    return coef[..., 0], (resid[..., None, :] @ resid[..., None])[..., 0, 0]


def fit_depth_model(times, depths, valid):
    """Fit the cubic-plus-sine depth curve to the valid samples of a track.

    Needs at least MIN_VALID_POINTS valid samples. The sine frequency is
    scanned over a log grid up to pi times the sample rate and refined by
    golden-section search before the final linear solve.
    """
    times = np.asarray(times, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid < MIN_VALID_POINTS:
        raise InsufficientDataError(
            f"depth fit needs >= {MIN_VALID_POINTS} valid points, got {n_valid}"
        )
    t_lo, t_hi = float(times.min()), float(times.max())
    span = t_hi - t_lo
    tau = (times[valid] - t_lo) / (span if span else 1.0)
    z = depths[valid]

    rate = max(len(times) - 1, 4)
    grid = np.geomspace(1e-3, np.pi * rate, GRID_SIZE)
    sses = _linear_solve(tau, z, grid)[1]
    best = int(np.argmin(sses))

    # the grid increases strictly, so the clamped neighbours bracket a range
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_SIZE - 1)]
    from scipy import optimize  # loaded here: only repair fits, and scipy is slow to import

    res = optimize.minimize_scalar(
        lambda a6: _linear_solve(tau, z, a6)[1], bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    a6 = float(res.x) if res.fun <= sses[best] else float(grid[best])

    coef, sse = _linear_solve(tau, z, a6)
    rmse = float(np.sqrt(sse / n_valid))
    return DepthCurve(coeffs=(*(float(c) for c in coef), a6), t_lo=t_lo, t_hi=t_hi, rmse=rmse)


@dataclass
class RepairRow:
    """One line of the repair report CSV."""

    track_id: str
    n_valid: int
    n_repaired: int
    rmse: float | None  # None when the track was skipped

    def as_csv(self):
        rmse = "" if self.rmse is None else f"{self.rmse:.9g}"
        return f"{self.track_id},{self.n_valid},{self.n_repaired},{rmse}"


def repair_sample_depths(sample):
    """Repair one dataset sample's local depths in place of a copy.

    Treats points_local[:, 2] with the validity flags as the raw depth
    track. Returns (new local points, new validity, report row).
    """
    depths = sample.points_local[:, 2]
    valid = np.asarray(sample.valid_depth, dtype=bool)
    n_valid = int(valid.sum())
    n_invalid = int((~valid).sum())
    if n_invalid == 0:
        return sample.points_local.copy(), valid.copy(), RepairRow(sample.id, n_valid, 0, 0.0)
    times = np.arange(len(depths), dtype=np.float64)
    curve = fit_depth_model(times, depths, valid)
    points = sample.points_local.copy()
    points[~valid, 2] = curve.evaluate(times[~valid])
    return points, np.ones_like(valid), RepairRow(sample.id, n_valid, n_invalid, curve.rmse)
