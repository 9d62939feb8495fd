"""Depth repair of trajectory annotations.

Depth repair fits z(t) = a1*t^3 + a2*t^2 + a3*t + a4 + a5*sin(a6*t) to the
valid depth samples of a track and fills the invalid ones from the fitted
curve. The model is linear in a1..a5 given a6, so the single nonlinear
parameter is found by a coarse log-grid scan followed by Brent's bounded
minimisation (``_bounded_min``: golden-section steps, replaced by
parabolic ones where they are acceptable) between the best grid point's
neighbours. Each track's design matrix is built once, and every solve
fills only its sine column. The grid's exact (damped) linear solves run
as one stacked solve per track; each refinement candidate and the final
fit get their own. Time is normalized to [0, 1] before fitting to keep
the cubic terms conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIN_VALID_POINTS = 10
GRID_SIZE = 200
RIDGE = 1e-9
RIDGE_EYE = RIDGE * np.eye(5)
XATOL = 1e-10  # the refinement's absolute tolerance on a6
MAX_EVALS = 500  # objective evaluations per refinement, at most

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


def _basis(tau):
    """The (n, 5) design matrix of normalized times ``tau``: its cubic
    columns tau^3, tau^2, tau, 1, and a sine column that ``_linear_solve``
    fills."""
    basis = np.empty((len(tau), 5))
    basis[:, 0] = tau**3
    basis[:, 1] = tau**2
    basis[:, 2] = tau
    basis[:, 3] = 1.0
    return basis


def _linear_solve(basis, z, a6):
    """Damped least squares for a1..a5 at fixed a6; returns (coeffs, sse).

    ``basis`` comes from ``_basis``; its sine column is overwritten. ``a6``
    is one frequency, or an array of them solved as one stack over copies
    of ``basis``: the results then carry a6's shape in front (coeffs
    (..., 5), sse (...)). Each stacked solve runs the same BLAS and LAPACK
    calls as a solve on its own, so its coefficients and SSE are
    bit-identical to one.
    """
    a6 = np.asarray(a6, dtype=np.float64)
    b = np.broadcast_to(basis, a6.shape + basis.shape).copy() if a6.ndim else basis
    b[..., 4] = np.sin(a6[..., None] * basis[:, 2])
    bt = np.swapaxes(b, -1, -2)
    gram = bt @ b + RIDGE_EYE
    coef = np.linalg.solve(gram, (bt @ z)[..., None])
    resid = z - (b @ coef)[..., 0]
    return coef[..., 0], (resid[..., None, :] @ resid[..., None])[..., 0, 0]


def _bounded_min(f, a, b, xatol):
    """Brent's bounded minimisation of the scalar function ``f`` on
    [a, b] (Brent 1973, *Algorithms for Minimization without Derivatives*,
    ch. 5); returns (x, f(x)) at the best point found.

    x, w and v are the best, second-best and previous w. Each step is
    parabolic through them when that step falls inside the bracket and is
    less than half the step before last, and golden-section otherwise; no
    step is shorter than tol1. The search stops when the bracket lies
    within 2 tol1 of x, where tol1 = sqrt(eps) |x| + xatol / 3, or after
    ``MAX_EVALS`` evaluations. Its float operations, in their order, are
    those of scipy's ``minimize_scalar(method="bounded")``, so the
    evaluations and the result are its bits.
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    evals = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = (p + 0.0) / q
                u = x + d
                if u - a < tol2 or b - u < tol2:  # too close to an end: step tol1 inward
                    d = tol1 if xm - x >= 0 else -tol1
        if golden:
            e = a - x if x >= xm else b - x
            d = _GOLDEN * e
        u = x + (1.0 if d >= 0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= MAX_EVALS:
            break
    return x, fx


def fit_depth_model(times, depths, valid):
    """Fit the cubic-plus-sine depth curve to the valid samples of a track.

    Needs at least MIN_VALID_POINTS valid samples. The sine frequency is
    scanned over a log grid up to pi times the sample rate, and refined by
    ``_bounded_min`` between the best grid point's neighbours before the
    final linear solve; the refined frequency is kept only if it fits no
    worse than the grid's best.
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
    basis = _basis((times[valid] - t_lo) / (span if span else 1.0))
    z = depths[valid]

    rate = max(len(times) - 1, 4)
    grid = np.geomspace(1e-3, np.pi * rate, GRID_SIZE)
    sses = _linear_solve(basis, z, grid)[1]
    best = int(np.argmin(sses))

    # the grid increases strictly, so the clamped neighbours bracket a range
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_SIZE - 1)]
    x, fx = _bounded_min(lambda a6: _linear_solve(basis, z, a6)[1], lo, hi, XATOL)
    a6 = float(x) if fx <= sses[best] else float(grid[best])

    coef, sse = _linear_solve(basis, z, a6)
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
