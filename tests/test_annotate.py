import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachcast import annotate
from reachcast.annotate import (
    DepthCurve,
    InsufficientDataError,
    fit_depth_model,
    repair_sample_depths,
)

PLANTED = (0.001, -0.01, 0.05, 0.4, 0.02, 0.7)


def planted_track(n=30, noise=0.0, invalid_idx=(), seed=0):
    times = np.arange(n, dtype=float)
    curve = DepthCurve(coeffs=PLANTED, t_lo=0.0, t_hi=float(n - 1))
    z = curve.evaluate(times)
    if noise:
        z = z + np.random.default_rng(seed).normal(0, noise, size=n)
    valid = np.ones(n, dtype=bool)
    z_obs = z.copy()
    for i in invalid_idx:
        valid[i] = False
        z_obs[i] = 0.0
    return times, z_obs, valid, curve.evaluate(times)


def reference_linear_solve(basis, z, a6):
    """The per-candidate solve, its design matrix built afresh from the
    basis's tau column: a loop over a6 when it is an array."""
    if np.ndim(a6):
        out = [reference_linear_solve(basis, z, f) for f in a6]
        return np.array([c for c, _ in out]), np.array([e for _, e in out])
    tau = np.ascontiguousarray(basis[:, 2])
    b = np.stack([tau**3, tau**2, tau, np.ones_like(tau), np.sin(a6 * tau)], axis=1)
    gram = b.T @ b + annotate.RIDGE * np.eye(5)
    coef = np.linalg.solve(gram, b.T @ z)
    resid = z - b @ coef
    return coef, float(resid @ resid)


@st.composite
def random_tracks(draw):
    """A length-10..40 track of a random cubic-plus-sine curve with noise and dropout."""
    n = draw(st.integers(10, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = (*rng.normal(0, [0.05, 0.05, 0.05]), rng.uniform(0.2, 0.6),
              rng.normal(0, 0.03), rng.uniform(0, 3 * n))
    times = np.arange(n, dtype=np.float64)
    z = DepthCurve(coeffs, 0.0, n - 1.0).evaluate(times) + rng.normal(0, 0.003, n)
    valid = rng.random(n) >= draw(st.sampled_from([0.0, 0.2, 0.5]))
    valid[rng.permutation(n)[:annotate.MIN_VALID_POINTS]] = True
    z[~valid] = 0.0
    return times, z, valid


class TestStackedSolve:
    @settings(max_examples=60, deadline=None)
    @given(track=random_tracks())
    def test_matches_per_candidate_solves_bit_for_bit(self, track):
        times, z, valid = track
        basis = annotate._basis(times[valid] / times[-1])
        grid = np.geomspace(1e-3, np.pi * (len(times) - 1), annotate.GRID_SIZE)
        coef, sse = annotate._linear_solve(basis, z[valid], grid)
        ref_coef, ref_sse = reference_linear_solve(basis, z[valid], grid)
        np.testing.assert_array_equal(sse, ref_sse)
        np.testing.assert_array_equal(coef, ref_coef)
        for a6 in grid[[0, 77, -1]]:  # one frequency fills the basis's own sine column
            one = annotate._linear_solve(basis, z[valid], a6)
            ref = reference_linear_solve(basis, z[valid], a6)
            np.testing.assert_array_equal(one[0], ref[0])
            assert one[1] == ref[1]
        with mock.patch.object(annotate, "_linear_solve", reference_linear_solve):
            ref = fit_depth_model(times, z, valid)
        curve = fit_depth_model(times, z, valid)
        assert curve.coeffs == ref.coeffs and curve.rmse == ref.rmse


def _bits(x):
    return np.float64(x).tobytes()


class TestBoundedMin:
    """``_bounded_min`` against scipy's bounded ``minimize_scalar``, the
    method it reimplements: the same objective evaluations in the same
    order, so the same x and f(x), bit for bit."""

    @staticmethod
    def _assert_matches_scipy(f, lo, hi):
        from scipy import optimize  # the reference only: reachcast itself runs without scipy

        seen, ref_seen = [], []
        x, fx = annotate._bounded_min(lambda a: seen.append(a) or f(a), lo, hi, annotate.XATOL)
        res = optimize.minimize_scalar(lambda a: ref_seen.append(a) or f(a), bounds=(lo, hi),
                                       method="bounded", options={"xatol": annotate.XATOL})
        assert [_bits(a) for a in seen] == [_bits(a) for a in ref_seen]
        assert (_bits(x), _bits(fx)) == (_bits(res.x), _bits(res.fun))
        return seen

    @settings(max_examples=40, deadline=None)
    @given(track=random_tracks())
    def test_depth_fit_objective_and_bracket(self, track):
        # the bracket and objective as fit_depth_model builds them
        times, z, valid = track
        basis = annotate._basis(times[valid] / times[-1])
        grid = np.geomspace(1e-3, np.pi * (len(times) - 1), annotate.GRID_SIZE)
        best = int(np.argmin(annotate._linear_solve(basis, z[valid], grid)[1]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, annotate.GRID_SIZE - 1)]
        self._assert_matches_scipy(lambda a6: annotate._linear_solve(basis, z[valid], a6)[1],
                                   lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3),
           where=st.sampled_from(["inside", "below", "above"]), place=st.floats(0, 1),
           scale=st.floats(1e-3, 1e3))
    def test_quadratic_minimum_inside_and_at_each_edge(self, lo, width, where, place, scale):
        hi = lo + width
        c = {"inside": lo + place * width, "below": lo - place * width - 1.0,
             "above": hi + place * width + 1.0}[where]
        seen = self._assert_matches_scipy(lambda x: scale * (x - c) ** 2, lo, hi)
        assert lo <= min(seen) and max(seen) <= hi

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_flat_function(self, value):
        self._assert_matches_scipy(lambda x: value, 0.3, 7.0)

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0, 10), step=st.floats(1e-4, 1))
    @example(c=3.658475912380166, step=0.10961664172677729)  # ties f(w), with f(x) lower
    @example(c=2.6358525305973126, step=0.00039756488130836146)  # ties f(v) too
    def test_stepped_function_ties(self, c, step):
        # a staircase |x - c|: its values tie, so the bookkeeping of the
        # second-best and previous points on a tie must be scipy's too
        self._assert_matches_scipy(lambda x: step * math.floor(abs(x - c) / step), 0.0, 10.0)


class TestFitDepthModel:
    def test_constant_depth(self):
        times = np.arange(12, dtype=float)
        curve = fit_depth_model(times, np.full(12, 0.5), np.ones(12, dtype=bool))
        np.testing.assert_allclose(curve.evaluate(times), 0.5, atol=1e-6)

    def test_planted_curve_recovery(self):
        times, z, valid, truth = planted_track(30)
        curve = fit_depth_model(times, z, valid)
        assert np.max(np.abs(curve.evaluate(times) - truth)) < 1e-3

    def test_too_few_valid_points(self):
        times, z, valid, _ = planted_track(30)
        valid[8:] = False
        with pytest.raises(InsufficientDataError):
            fit_depth_model(times, z, valid)

    def test_objective_not_worse_than_planted(self):
        for seed in range(3):
            times, z, valid, _ = planted_track(30, noise=0.005, seed=seed)
            curve = fit_depth_model(times, z, valid)
            fit_sse = float(np.sum((z[valid] - curve.evaluate(times[valid])) ** 2))
            planted_sse = float(
                np.sum((z[valid] - DepthCurve(PLANTED, 0.0, 29.0).evaluate(times[valid])) ** 2)
            )
            assert fit_sse <= planted_sse + 1e-9


class TestRepairDepth:
    @staticmethod
    def _repair(z, valid):
        """Repaired depths of a sample whose local depth track is z."""
        valid = np.asarray(valid, bool)
        points = np.random.default_rng(0).uniform(-1, 1, (len(z), 3))
        points[:, 2] = z
        sample = SimpleNamespace(id="s0", points_local=points, valid_depth=valid)
        out, out_valid, row = repair_sample_depths(sample)
        np.testing.assert_array_equal(out[:, :2], points[:, :2])
        assert out_valid.all() and (row.n_valid, row.n_repaired) == (valid.sum(), (~valid).sum())
        return out[:, 2]

    def test_no_invalid_entries_is_identity(self):
        times, z, valid, _ = planted_track(20)
        repaired = self._repair(z, valid)
        np.testing.assert_array_equal(repaired, z)

    def test_constant_track_with_holes(self):
        z = np.full(15, 0.42)
        valid = np.ones(15, dtype=bool)
        for i in (3, 7, 11):
            z[i], valid[i] = 0.0, False
        repaired = self._repair(z, valid)
        np.testing.assert_allclose(repaired, 0.42, atol=1e-6)

    def test_never_modifies_valid_entries(self):
        rng = np.random.default_rng(5)
        times, z, valid, _ = planted_track(30, noise=0.01, invalid_idx=(2, 9, 17), seed=3)
        repaired = self._repair(z, valid)
        np.testing.assert_array_equal(repaired[valid], z[valid])

    def test_plant_corrupt_repair(self):
        n = 30
        rng = np.random.default_rng(8)
        invalid = rng.choice(n, size=6, replace=False)  # 20% corrupted
        times, z, valid, truth = planted_track(n, noise=0.005, invalid_idx=invalid, seed=8)
        repaired = self._repair(z, valid)
        assert np.max(np.abs(repaired[~valid] - truth[~valid])) < 2e-2

    def test_noiseless_repair_is_tight(self):
        times, z, valid, truth = planted_track(30, invalid_idx=(4, 12, 21))
        repaired = self._repair(z, valid)
        assert np.max(np.abs(repaired - truth)) < 1e-3


class TestDepthCurveValidation:
    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            DepthCurve(coeffs=(0, 0, 0, 0.5, 0.1, -1.0), t_lo=0, t_hi=1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DepthCurve(coeffs=(0, 0, 0, math.inf, 0, 1.0), t_lo=0, t_hi=1)
