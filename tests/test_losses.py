import math

import numpy as np
import pytest
from scipy import optimize

from reachcast import autodiff as ad
from reachcast.losses import (
    LossConfig,
    attenuated,
    depth_stability_weights,
    drau_batch,
    residual_lastdim,
    total_batch,
    velocity_batch,
)

SQ = LossConfig(residual_kind="squared")


def scalar(t):
    return float(np.asarray(t.data).reshape(()))


def one(x):
    """One trajectory, (T,) or (T, d), as an N=1 batch constant (1, T, d)."""
    x = np.asarray(x, dtype=np.float64)
    return ad.constant(x.reshape(1, len(x), -1))


def residual1(p, p_hat, kind="squared", delta=1e-5):
    """Residual of one coordinate vector: the N=1, T=1 case."""
    return residual_lastdim(ad.sub(one([p]), one([p_hat])), kind, delta)


def aleatoric1(alpha, p_hat, p, cfg):
    """Attenuated location loss of one prediction: the N=1, T=1 case."""
    return attenuated(one([alpha]), residual1(p, p_hat, cfg.residual_kind, cfg.huber_delta))


def weights1(depths):
    """depth_stability_weights of one trajectory: the N=1 case."""
    z = np.asarray(depths, dtype=np.float64)[None, :]
    return depth_stability_weights(z, np.ones(z.shape, bool))[0]


def drau1(p_hat, alpha, beta, p, cfg=SQ):
    """drau_batch over one trajectory with every step valid; beta None is 2d mode."""
    p = np.asarray(p, dtype=np.float64)
    t = len(p)
    return drau_batch(one(p_hat), one(alpha), None if beta is None else one(beta),
                      p.reshape(1, t, -1), np.ones((1, t), bool), cfg)


def velocity1(v_hat, p_hat, p, observed_count, gamma):
    """velocity_batch over one trajectory with every step valid."""
    p = np.asarray(p, dtype=np.float64)
    t = len(p)
    return velocity_batch(one(v_hat), one(p_hat), p.reshape(1, t, -1),
                          np.array([observed_count]), np.ones((1, t), bool), gamma)


class TestResidual:
    def test_zero_at_equality(self):
        p = np.array([0.1, 0.2, 0.3])
        assert scalar(residual1(p, p, "squared")) == 0.0
        assert scalar(residual1(p, p, "huber", 1e-5)) == 0.0

    def test_unit_squared(self):
        assert scalar(residual1([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], "squared")) == 1.0

    def test_huber_linear_branch(self):
        delta = 1e-5
        got = scalar(residual1([1.0], [0.0], "huber", delta))
        assert abs(got - delta * (1 - delta / 2)) < 1e-18

    def test_width_mismatch(self):
        with pytest.raises(ad.ShapeError):
            drau_batch(one(np.zeros((1, 3))), one([0.0]), one([0.0]), np.zeros((1, 1, 2)),
                       np.ones((1, 1), bool), SQ)


class TestAleatoricLoss:
    def test_zero_alpha_perfect_prediction(self):
        p = np.array([0.3, -0.1, 0.5])
        assert scalar(aleatoric1(0.0, p, p, SQ)) == 0.0

    def test_zero_alpha_unit_residual(self):
        got = scalar(aleatoric1(0.0, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], SQ))
        assert got == 1.0

    def test_minimizer_is_log_residual(self):
        for s in (0.1, 1.0, 10.0):
            res = optimize.minimize_scalar(
                lambda a: math.exp(-a) * s + a, bounds=(-30, 30), method="bounded",
                options={"xatol": 1e-12},
            )
            assert abs(res.x - math.log(s)) < 1e-6

    def test_stationary_point_beats_grid(self):
        for s in (0.1, 1.0, 10.0):
            star = aleatoric1(math.log(s), np.zeros(3), [math.sqrt(s), 0, 0], SQ)
            for a in np.linspace(-5, 5, 101):
                trial = aleatoric1(a, np.zeros(3), [math.sqrt(s), 0, 0], SQ)
                assert scalar(star) <= scalar(trial) + 1e-12


class TestDepthWeights:
    def test_constant_depth_uniform(self):
        w = weights1(np.full(7, 0.4))
        np.testing.assert_array_equal(w, np.full(7, 1.0 / 7))

    def test_two_step_forced_values(self):
        w = weights1([1.0, 1.2])
        # softmax of logits (0, -0.2), evaluated directly
        e = np.exp([0.0, -0.2])
        np.testing.assert_allclose(w, e / e.sum(), atol=1e-15)
        np.testing.assert_allclose(w, [0.5498, 0.4502], atol=1e-4)

    def test_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.uniform(0.2, 1.5, size=rng.integers(1, 40))
            w = weights1(z)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)

    def test_shift_invariance_of_differences(self):
        z = np.array([0.5, 0.52, 0.6, 0.61])
        base = weights1(z)
        # adding a constant to every |dz| shifts all logits equally
        dz = np.abs(np.diff(z, prepend=z[0]))
        shifted = np.exp(-(dz + 0.37))
        np.testing.assert_allclose(base, shifted / shifted.sum(), atol=1e-12)

    def test_palindrome_reversal(self):
        z = np.array([0.4, 0.5, 0.7, 0.5, 0.4])
        np.testing.assert_array_equal(weights1(z), weights1(z[::-1]))

    def test_masked_padding(self):
        z = np.array([[0.4, 0.5, 0.0, 0.0]])
        valid = np.array([[True, True, False, False]])
        w = depth_stability_weights(z, valid)
        assert w[0, 2] == 0.0 and w[0, 3] == 0.0
        assert abs(w.sum() - 1.0) <= 1e-12


class TestDrauLoss:
    def test_perfect_prediction_zero(self):
        p = np.array([[0.1, 0.2, 0.5], [0.2, 0.1, 0.6], [0.0, 0.0, 0.7]])
        got = drau1(p, np.zeros(3), np.zeros(3), p, cfg=SQ)
        assert scalar(got) == 0.0

    def test_matches_hand_composition(self):
        # the depth term is weighted by softmax(-|z_t - z_{t-1}|) of the
        # target depths, written out here rather than called
        rng = np.random.default_rng(3)
        t = 3
        p = rng.uniform(-0.5, 0.5, (t, 3))
        p_hat = p + rng.normal(0, 0.1, (t, 3))
        alpha = rng.normal(0, 0.5, t)
        beta = rng.normal(0, 0.5, t)
        e = [math.exp(-abs(p[i, 2] - p[max(i - 1, 0), 2])) for i in range(t)]
        w = [x / sum(e) for x in e]
        got = scalar(drau1(p_hat, alpha, beta, p, cfg=SQ))
        expected = 0.0
        for i in range(t):
            s_xy = float(np.sum((p[i, :2] - p_hat[i, :2]) ** 2))
            s_z = float((p[i, 2] - p_hat[i, 2]) ** 2)
            expected += (math.exp(-alpha[i]) * s_xy + alpha[i]
                         + w[i] * (math.exp(-beta[i]) * s_z + beta[i]))
        expected /= t
        assert abs(got - expected) < 1e-12

    def test_depth_weights_come_from_valid_steps(self):
        # a padded step's target depth is not part of the weights' softmax
        p = np.array([[[0.1, 0.2, 0.5], [0.2, 0.1, 0.6], [0.0, 0.0, 0.0]]])
        p_hat = ad.constant(p + np.array([0.0, 0.0, 0.3]))
        zeros = ad.constant(np.zeros((1, 3, 1)))
        valid = np.array([[True, True, False]])
        got = scalar(drau_batch(p_hat, zeros, zeros, p, valid, SQ))
        # the two valid steps' weights sum to 1: the mean of w_t * 0.3^2 is 0.09 / 2
        assert abs(got - 0.09 / 2) < 1e-15

    def test_2d_mode_rejected(self):
        with pytest.raises(ValueError):
            drau1(np.zeros((3, 2)), np.zeros(3), np.zeros(3), np.zeros((3, 2)), cfg=SQ)

    def test_3d_mean_without_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            drau1(np.zeros((3, 3)), np.zeros(3), None, np.zeros((3, 3)), cfg=SQ)

    def test_2d_matches_hand_composition(self):
        # 2d mode: exp(-alpha) r + alpha over (x, y), averaged over each
        # sample's valid steps and then over the batch
        rng = np.random.default_rng(23)
        n, t = 2, 4
        p = rng.uniform(-0.5, 0.5, (n, t, 2))
        p_hat = p + rng.normal(0, 0.1, (n, t, 2))
        alpha = rng.normal(0, 0.5, (n, t))
        valid = np.array([[True, True, True, True], [True, True, False, False]])
        got = scalar(drau_batch(ad.constant(p_hat), ad.constant(alpha[..., None]), None, p,
                                valid, SQ))
        per_sample = []
        for k in range(n):
            steps = [math.exp(-alpha[k, i]) * float(np.sum((p[k, i] - p_hat[k, i]) ** 2))
                     + alpha[k, i] for i in range(t) if valid[k, i]]
            per_sample.append(sum(steps) / len(steps))
        assert abs(got - sum(per_sample) / n) < 1e-12


class TestVelocityLoss:
    def test_exact_linear_trajectory(self):
        u = np.array([0.1, 0.0, 0.05])
        t = 6
        p = np.arange(1, t + 1)[:, None] * u
        v = np.tile(u, (t, 1))
        v[0] = p[0]  # first step covers the jump from the zero origin
        got = velocity1(v, p, p, observed_count=3, gamma=0.1)
        assert scalar(got) < 1e-24

    def test_static_points_zero_velocity(self):
        p = np.tile([0.2, -0.1, 0.4], (5, 1))
        got = velocity1(np.zeros((5, 3)), p, p, observed_count=2, gamma=0.0)
        assert abs(scalar(got) - float(np.sum(p[0] ** 2))) < 1e-12

    def test_gamma_zero_removes_warp_term(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(-0.5, 0.5, (5, 3))
        p_hat = rng.uniform(-0.5, 0.5, (5, 3))
        v = rng.uniform(-0.2, 0.2, (5, 3))
        g0 = scalar(velocity1(v, p_hat, p, 2, gamma=0.0))
        prev = np.vstack([np.zeros(3), p[:-1]])
        expected = float(np.sum((p - prev - v) ** 2))
        assert abs(g0 - expected) < 1e-12

    def test_nonnegative_and_zero_iff_terms_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = int(rng.integers(2, 8))
            p = rng.uniform(-1, 1, (t, 3))
            v = rng.uniform(-1, 1, (t, 3))
            ph = rng.uniform(-1, 1, (t, 3))
            val = scalar(velocity1(v, ph, p, 1, gamma=0.3))
            assert val >= 0.0

    def test_warp_term_value(self):
        # two future steps, hand-computed warp error
        p = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]])
        v = np.zeros((4, 3))
        v[0] = p[0]
        v[1:] = [0.1, 0, 0]
        p_hat = p.copy()
        p_hat[3] = [0.5, 0, 0]  # warp predicts 0.3, mean says 0.5
        got = scalar(velocity1(v, p_hat, p, observed_count=2, gamma=0.5))
        assert abs(got - 0.5 * 0.2**2) < 1e-12


class TestTotalLoss:
    @staticmethod
    def _batch(rng, n=2, t=4, d=3):
        mean = ad.Tensor(rng.uniform(-0.5, 0.5, (n, t, d)), requires_grad=True)
        alpha = ad.Tensor(rng.normal(0, 0.3, (n, t, 1)), requires_grad=True)
        beta = ad.Tensor(rng.normal(0, 0.3, (n, t, 1)), requires_grad=True)
        vel = ad.Tensor(rng.uniform(-0.2, 0.2, (n, t, d)), requires_grad=True)
        targets = rng.uniform(-0.5, 0.5, (n, t, d))
        valid = np.ones((n, t), dtype=bool)
        first_future = np.array([2, 3])
        out = {"mean": mean, "alpha": alpha, "beta": beta, "velocity": vel}
        return out, targets, first_future, valid

    def test_zero_when_parts_zero(self):
        p = np.array([[[0.1, 0.2, 0.5], [0.2, 0.3, 0.5]]])
        mean = ad.constant(p)
        alpha = ad.constant(np.zeros((1, 2, 1)))
        beta = ad.constant(np.zeros((1, 2, 1)))
        v = np.zeros((1, 2, 3))
        v[0, 0] = p[0, 0]
        v[0, 1] = p[0, 1] - p[0, 0]
        valid = np.ones((1, 2), bool)
        out = {"mean": mean, "alpha": alpha, "beta": beta, "velocity": ad.constant(v)}
        total, loc, velo = total_batch(out, p, np.array([1]), valid, SQ)
        assert scalar(total) < 1e-24

    def test_equals_weighted_parts(self):
        rng = np.random.default_rng(11)
        out, targets, ff, valid = self._batch(rng)
        cfg = LossConfig(residual_kind="squared", gamma=0.2, velocity_weight=0.7,
                         location_weight=1.3)
        total, loc, velo = total_batch(out, targets, ff, valid, cfg)
        assert abs(scalar(total) - (1.3 * scalar(loc) + 0.7 * scalar(velo))) < 1e-12

    def test_gradients_reach_all_heads(self):
        rng = np.random.default_rng(13)
        out, targets, ff, valid = self._batch(rng)
        with ad.Graph() as g:
            total, _, _ = total_batch(out, targets, ff, valid, SQ)
            g.backward(total)
        for t in out.values():
            assert t.grad is not None and np.any(t.grad != 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        out, targets, ff, valid = self._batch(rng)

        def build():
            total, _, _ = total_batch(out, targets, ff, valid, SQ)
            return total

        entries = ad.check_gradients(build, out, step=1e-5, tolerance=1e-4)
        assert all(e.passed for e in entries), entries

    def test_2d_mode_uses_planar_loss(self):
        # without beta, the location term is the 2d drau_batch and the
        # total weighs it with the velocity term as in 3D
        rng = np.random.default_rng(19)
        n, t = 2, 4
        out = {"mean": ad.constant(rng.uniform(-0.5, 0.5, (n, t, 2))),
               "alpha": ad.constant(rng.normal(0, 0.3, (n, t, 1))), "beta": None,
               "velocity": ad.constant(rng.uniform(-0.2, 0.2, (n, t, 2)))}
        targets = rng.uniform(-0.5, 0.5, (n, t, 2))
        valid = np.ones((n, t), bool)
        cfg = LossConfig(residual_kind="squared", velocity_weight=0.7, location_weight=1.3)
        total, loc, velo = total_batch(out, targets, np.array([2, 2]), valid, cfg)
        assert scalar(loc) == scalar(drau_batch(out["mean"], out["alpha"], None, targets,
                                                valid, cfg))
        assert abs(scalar(total) - (1.3 * scalar(loc) + 0.7 * scalar(velo))) < 1e-12
