"""Tests for the reverse-mode engine.

Finite-difference oracles are computed here, independently of the
engine's backward rules, by re-running the forward pass with perturbed
numpy inputs.
"""

import dataclasses
import math

import numpy as np
import pytest

from reachcast import autodiff as ad


def fd_grad(f, arrays, which, step=1e-6):
    """Central-difference gradient of scalar f(*arrays) w.r.t. arrays[which]."""
    x = arrays[which]
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(*arrays)
        flat[i] = orig - step
        fm = f(*arrays)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * step)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b)))


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_2x2_by_2x1(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[2.0], [4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a_np = rng.standard_normal((3, 3))
        b_np = rng.standard_normal((3, 3))
        a = ad.Tensor(a_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        with ad.Graph() as g:
            loss = ad.reduce_sum(ad.matmul(a, b))
            g.backward(loss)
        f = lambda x, y: float((x @ y).sum())
        assert rel_err(a.grad, fd_grad(f, [a_np, b_np], 0)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, [a_np, b_np], 1)) < 1e-6

    def test_batched_broadcast_grad(self):
        rng = np.random.default_rng(3)
        a_np = rng.standard_normal((4, 4))
        b_np = rng.standard_normal((2, 4, 3))
        a = ad.Tensor(a_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        with ad.Graph() as g:
            g.backward(ad.reduce_sum(ad.matmul(a, b)))
        f = lambda x, y: float((x @ y).sum())
        assert rel_err(a.grad, fd_grad(f, [a_np, b_np], 0)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, [a_np, b_np], 1)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_lastdim(ad.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)

    def test_masked_logit_absorbed(self):
        out = ad.softmax_lastdim(ad.Tensor([-1e9, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 1.0])

    def test_forced_exponentials(self):
        x = ad.Tensor([math.log(1), math.log(2), math.log(3)])
        np.testing.assert_allclose(ad.softmax_lastdim(x).data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((5, 7)) * 3
            s = ad.softmax_lastdim(ad.Tensor(x)).data
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
            s2 = ad.softmax_lastdim(ad.Tensor(x + 13.7)).data
            np.testing.assert_allclose(s, s2, atol=1e-12)


class TestLayerNorm:
    def test_constant_row(self):
        x = ad.Tensor([5.0, 5.0, 5.0])
        out = ad.layer_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-12)

    def test_already_standardized(self):
        x = ad.Tensor([1.0, -1.0])
        out = ad.layer_norm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
        expected = np.array([1.0, -1.0]) / np.sqrt(1.0 + ad.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x_np = rng.standard_normal(4)
        gn_np = rng.standard_normal(4)
        bs_np = rng.standard_normal(4)

        def f(xv, gv, bv):
            mu = xv.mean()
            var = ((xv - mu) ** 2).mean()
            return float((((xv - mu) / np.sqrt(var + 1e-5)) * gv + bv).sum() ** 2)

        x = ad.Tensor(x_np, requires_grad=True)
        gn = ad.Tensor(gn_np, requires_grad=True)
        bs = ad.Tensor(bs_np, requires_grad=True)
        with ad.Graph() as g:
            y = ad.reduce_sum(ad.layer_norm(x, gn, bs))
            g.backward(ad.mul(y, y))
        assert rel_err(x.grad, fd_grad(f, [x_np, gn_np, bs_np], 0)) < 1e-5
        assert rel_err(gn.grad, fd_grad(f, [x_np, gn_np, bs_np], 1)) < 1e-5
        assert rel_err(bs.grad, fd_grad(f, [x_np, gn_np, bs_np], 2)) < 1e-5


class TestPointwise:
    def test_tanh_at_zero(self):
        assert float(ad.tanh(ad.Tensor(0.0)).data) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ad.pointwise(ad.Tensor(1.0), "sinh")


class TestConcat:
    def test_basic(self):
        out = ad.concat([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_empty_identity(self):
        out = ad.concat([ad.Tensor(np.zeros(0)), ad.Tensor([3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [3.0])

    def test_grad_splits_at_seam(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0], requires_grad=True)
        with ad.Graph() as g:
            g.backward(ad.reduce_sum(ad.concat([a, b], axis=0)))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones((3, 3)))], axis=0)

    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(2)
        a = ad.Tensor(rng.standard_normal((2, 3)))
        b = ad.Tensor(rng.standard_normal((2, 5)))
        cat = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(ad.slice_axis(cat, 1, 0, 3).data, a.data)
        np.testing.assert_array_equal(ad.slice_axis(cat, 1, 3, 8).data, b.data)


class TestBackward:
    def test_sum_of_squares(self):
        x_np = np.array([1.0, -2.0, 3.0])
        x = ad.Tensor(x_np, requires_grad=True)
        with ad.Graph() as g:
            g.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x_np, atol=1e-14)

    def test_constant_only_loss_leaves_params_untouched(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        c = ad.Tensor(np.ones(1), requires_grad=True)
        with ad.Graph() as g:
            g.backward(ad.reduce_sum(c))
        np.testing.assert_array_equal(w.grad_or_zeros(), np.zeros(3))
        np.testing.assert_array_equal(c.grad, [1.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        with ad.Graph() as g:
            y = ad.mul(x, x)
            with pytest.raises(ad.GraphError):
                g.backward(y)

    def test_two_passes_bit_identical(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        grads = []
        for _ in range(2):
            x.grad = w.grad = None
            with ad.Graph() as g:
                h = ad.tanh(ad.matmul(x, w))
                g.backward(ad.reduce_sum(ad.mul(h, h)))
            grads.append((x.grad, w.grad))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_no_finite_breakage_on_finite_inputs(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.standard_normal((8, 8)) * 5, requires_grad=True)
        with ad.Graph() as g:
            y = ad.softmax_lastdim(x)
            z = ad.layer_norm(y, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
            loss = ad.reduce_sum(ad.tanh(z))
            g.backward(loss)
        assert np.isfinite(loss.data).all()
        assert np.isfinite(x.grad).all()


class TestPrimitiveGradients:
    """Every primitive against central differences, 10 seeds each."""

    CASES = {
        "add": lambda a, b: ad.add(a, b),
        "sub": lambda a, b: ad.sub(a, b),
        "mul": lambda a, b: ad.mul(a, b),
        "matmul": lambda a, b: ad.matmul(a, b),
        "concat": lambda a, b: ad.concat([a, b], axis=1),
    }
    UNARY = {
        "tanh": ad.tanh,
        "neg-exp": ad.neg_exp,
        "softmax": ad.softmax_lastdim,
        "reshape": lambda x: ad.reshape(x, (2, 8)),
        "transpose": lambda x: ad.transpose(x, (1, 0)),
        "slice": lambda x: ad.slice_axis(x, 1, 1, 3),
        "huber": lambda x: ad.huber(x, 0.5),
        "mean": ad.mean,
    }

    @staticmethod
    def _weights(rng, shape):
        # bounded away from zero so gradients stay well above FD noise
        w = rng.standard_normal(shape)
        return np.sign(w) * (np.abs(w) + 0.5)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_binary_ops(self, name):
        op = self.CASES[name]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a_np = rng.standard_normal((4, 4))
            b_np = rng.standard_normal((4, 4))
            a = ad.Tensor(a_np, requires_grad=True)
            b = ad.Tensor(b_np, requires_grad=True)
            w = None

            def f(x, y):
                return float((op(ad.Tensor(x), ad.Tensor(y)).data * w).sum())

            w = self._weights(rng, op(ad.Tensor(a_np), ad.Tensor(b_np)).data.shape)
            with ad.Graph() as g:
                g.backward(ad.reduce_sum(ad.mul(op(a, b), ad.constant(w))))
            np.testing.assert_allclose(a.grad, fd_grad(f, [a_np, b_np], 0, step=1e-5),
                                       rtol=1e-5, atol=2e-9, err_msg=f"{name} seed {seed}")
            np.testing.assert_allclose(b.grad, fd_grad(f, [a_np, b_np], 1, step=1e-5),
                                       rtol=1e-5, atol=2e-9, err_msg=f"{name} seed {seed}")

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary_ops(self, name):
        op = self.UNARY[name]
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x_np = rng.standard_normal((4, 4))
            if name == "huber":
                # keep probes away from 0 and from the kink at |x| = delta
                x_np = np.where(np.abs(x_np) < 0.05, 0.2, x_np)
                x_np = np.where(np.abs(np.abs(x_np) - 0.5) < 0.05, 0.2, x_np)
            w = self._weights(rng, op(ad.Tensor(x_np)).data.shape)
            x = ad.Tensor(x_np, requires_grad=True)
            with ad.Graph() as g:
                g.backward(ad.reduce_sum(ad.mul(op(x), ad.constant(w))))

            def f(v):
                return float((op(ad.Tensor(v)).data * w).sum())

            np.testing.assert_allclose(x.grad, fd_grad(f, [x_np], 0, step=1e-5),
                                       rtol=1e-5, atol=2e-9, err_msg=f"{name} seed {seed}")

    def test_layer_norm_and_bias_ops(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            x_np = rng.standard_normal((3, 6))
            g_np = rng.standard_normal(6)
            b_np = rng.standard_normal(6)
            w = self._weights(rng, (3, 6))

            def f(xv, gv, bv):
                o = ad.add_bias(ad.layer_norm(ad.Tensor(xv), ad.Tensor(gv), ad.Tensor(bv)), ad.Tensor(bv)).data
                return float((o * w).sum())

            x = ad.Tensor(x_np, requires_grad=True)
            gn = ad.Tensor(g_np, requires_grad=True)
            bs = ad.Tensor(b_np, requires_grad=True)
            with ad.Graph() as t:
                out = ad.add_bias(ad.layer_norm(x, gn, bs), bs)
                t.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
            for i, t_ in enumerate([x, gn, bs]):
                np.testing.assert_allclose(t_.grad, fd_grad(f, [x_np, g_np, b_np], i, step=1e-5),
                                           rtol=1e-5, atol=2e-9)

    def test_conv_and_border_ops(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            x_np = rng.standard_normal((2, 1, 6, 6))
            k_np = rng.standard_normal((2, 1, 3, 3))
            p_np = rng.standard_normal((1, 8 * 8 - 6 * 6))

            def f(xv, kv, pv):
                o = ad.conv2d(ad.embed_border(ad.Tensor(xv), ad.Tensor(pv), 1), ad.Tensor(kv), 2).data
                return float((o * w).sum())

            w = self._weights(rng, ad.conv2d(ad.embed_border(ad.Tensor(x_np), ad.Tensor(p_np), 1),
                                             ad.Tensor(k_np), 2).data.shape)
            x = ad.Tensor(x_np, requires_grad=True)
            k = ad.Tensor(k_np, requires_grad=True)
            p = ad.Tensor(p_np, requires_grad=True)
            with ad.Graph() as g:
                out = ad.conv2d(ad.embed_border(x, p, 1), k, stride=2)
                g.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
            for i, t_ in enumerate([x, k, p]):
                np.testing.assert_allclose(t_.grad, fd_grad(f, [x_np, k_np, p_np], i, step=1e-5),
                                           rtol=1e-5, atol=2e-9)


class TestPackedRows:
    """split_heads / merge_heads / scatter_rows over packed rows: row r of the
    (R, D) input lands in cell rows[r] of a sample-major (n, t) grid."""

    N, T, HEADS, D = 3, 4, 2, 6
    ROWS = np.array([0, 1, 2, 4, 8, 9, 10, 11])  # counts 3, 1, 4 of t = 4
    DROPPED = ([0, 1, 1, 1], [3, 1, 2, 3])  # (sample, step) cells no row fills

    def _x(self, rows, seed=0):
        return np.random.default_rng(seed).standard_normal((len(rows), self.D))

    def test_all_rows_bit_equal_to_grid_layout(self):
        n, t, h, d = self.N, self.T, self.HEADS, self.D
        rows = np.arange(n * t)
        x = self._x(rows)
        split = ad.split_heads(ad.constant(x), h, rows, n, t).data
        np.testing.assert_array_equal(split, x.reshape(n, t, h, d // h).transpose(0, 2, 1, 3))
        np.testing.assert_array_equal(ad.merge_heads(ad.constant(split), rows).data, x)
        np.testing.assert_array_equal(ad.scatter_rows(ad.constant(x), rows, n, t).data,
                                      x.reshape(n, t, d))

    def test_dropped_cells_are_zero_and_rows_round_trip(self):
        n, t, h = self.N, self.T, self.HEADS
        x = self._x(self.ROWS, seed=1)
        split = ad.split_heads(ad.constant(x), h, self.ROWS, n, t).data
        grid = ad.scatter_rows(ad.constant(x), self.ROWS, n, t).data
        samples, steps = self.DROPPED
        np.testing.assert_array_equal(split[samples, :, steps], 0.0)
        np.testing.assert_array_equal(grid[samples, steps], 0.0)
        np.testing.assert_array_equal(grid.reshape(n * t, -1)[self.ROWS], x)
        np.testing.assert_array_equal(ad.merge_heads(ad.constant(split), self.ROWS).data, x)

    def test_gradients(self):
        n, t, h = self.N, self.T, self.HEADS
        rng = np.random.default_rng(2)
        x = ad.Tensor(self._x(self.ROWS, seed=3), requires_grad=True)
        mix = ad.constant(rng.standard_normal((n, h, t, t)))
        w = ad.constant(rng.standard_normal((n, t, self.D)))

        def build():
            # attention-like mixing across the grid, so dropped cells are read
            heads = ad.matmul(mix, ad.split_heads(x, h, self.ROWS, n, t))
            back = ad.merge_heads(ad.tanh(heads), self.ROWS)
            return ad.reduce_sum(ad.mul(ad.scatter_rows(back, self.ROWS, n, t), w))

        entries = ad.check_gradients(build, {"x": x}, step=1e-6, tolerance=1e-6)
        assert all(e.passed for e in entries), entries

    def test_scatter_passes_back_only_its_rows(self):
        n, t = self.N, self.T
        x = ad.Tensor(self._x(self.ROWS), requires_grad=True)
        w = np.random.default_rng(4).standard_normal((n, t, self.D))
        with ad.Graph() as g:
            g.backward(ad.reduce_sum(ad.mul(ad.scatter_rows(x, self.ROWS, n, t), ad.constant(w))))
        np.testing.assert_array_equal(x.grad, w.reshape(n * t, -1)[self.ROWS])


class TestCheckGradients:
    def test_matmul_chain_passes(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def build():
            return ad.reduce_sum(ad.tanh(ad.matmul(a, b)))

        entries = ad.check_gradients(build, {"a": a, "b": b}, step=1e-6, tolerance=1e-6)
        # one entry per input, in input order, every coordinate probed
        assert [(e.name, e.n_checked, e.passed) for e in entries] == [("a", 9, True),
                                                                      ("b", 9, True)]

    def test_constant_function_passes(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        c = ad.Tensor([2.0])

        def build():
            return ad.reduce_sum(ad.mul(c, c))

        assert ad.check_gradients(build, {"x": x}, tolerance=1e-6)[0].passed

    def test_corrupted_backward_rule_fails(self):
        x = ad.Tensor(np.ones(3) * 0.7, requires_grad=True)

        def bad_square(t):
            def bwd(g):
                ad._accum(t, g * 3.0 * t.data)  # wrong: should be 2*t

            return ad._record(t.data * t.data, (t,), bwd)

        def build():
            return ad.reduce_sum(bad_square(x))

        assert not ad.check_gradients(build, {"x": x}, tolerance=1e-6)[0].passed

    def test_report_lines_format(self):
        # one frozen entry per input, holding every field a gradcheck report line prints
        x = ad.Tensor(np.ones(2), requires_grad=True)
        (entry,) = ad.check_gradients(lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x})
        assert (entry.name, entry.n_checked, entry.passed) == ("x", 2, True)
        assert isinstance(entry.max_rel_err, float) and 0.0 <= entry.max_rel_err < 1e-5
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.passed = False

    @pytest.mark.parametrize("kw", [dict(step=0.0), dict(step=-1e-4),
                                    dict(max_checks_per_tensor=0),
                                    dict(max_checks_per_tensor=-1)])
    def test_refuses_a_check_that_checks_nothing(self, kw):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            ad.check_gradients(lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x}, **kw)

    def test_subsampling_is_deterministic(self):
        x = ad.Tensor(np.linspace(0.1, 1.0, 50), requires_grad=True)
        build = lambda: ad.reduce_sum(ad.mul(x, x))
        r1 = ad.check_gradients(build, {"x": x}, max_checks_per_tensor=5, seed=9)
        r2 = ad.check_gradients(build, {"x": x}, max_checks_per_tensor=5, seed=9)
        assert r1 == r2
        assert r1[0].n_checked == 5


class TestCustom:
    @staticmethod
    def _mul(a, b):
        return ad.custom(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))

    def test_matches_mul(self):
        rng = np.random.default_rng(4)
        a_np, b_np, w = (rng.standard_normal((3, 4)) for _ in range(3))
        grads = []
        for op in (ad.mul, self._mul):
            a = ad.Tensor(a_np, requires_grad=True)
            b = ad.Tensor(b_np, requires_grad=True)
            with ad.Graph() as g:
                out = op(a, b)
                g.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
            assert len(g) == 3
            grads.append((out.data, a.grad, b.grad))
        for ref, got in zip(*grads):
            np.testing.assert_array_equal(got, ref)

    def test_none_and_constant_inputs_skipped(self):
        a = ad.Tensor(np.ones(3), requires_grad=True)
        b = ad.constant(np.ones(3))
        c = ad.Tensor(np.ones(3), requires_grad=True)
        seen = []

        def backward(g):
            seen.append(g.copy())
            # b needs no gradient, so even a malformed entry for it is ignored
            return g * 2.0, np.full(7, np.nan), None

        with ad.Graph() as g:
            out = ad.custom(2.0 * a.data + b.data + c.data, (a, b, c), backward)
            g.backward(ad.reduce_sum(out))
        assert len(seen) == 1
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        assert b.grad is None and c.grad is None

    def test_gradient_count_and_shape_checked(self):
        a = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Graph() as g:
            out = ad.custom(a.data.copy(), (a,), lambda grad: (grad, grad))
            with pytest.raises(ad.GraphError):
                g.backward(ad.reduce_sum(out))
        with ad.Graph() as g:
            out = ad.custom(a.data.copy(), (a,), lambda grad: (grad[:2],))
            with pytest.raises(ad.ShapeError):
                g.backward(ad.reduce_sum(out))

    def test_first_gradient_handed_over_then_accumulated(self):
        # the input's first gradient is the backward's own array, not a
        # copy; a second use of the same input adds into it
        a = ad.Tensor(np.ones(3), requires_grad=True)
        handed = []

        def use(s):
            def backward(g):
                handed.append(g * s)
                return (handed[-1],)

            return ad.custom(a.data * s, (a,), backward)

        with ad.Graph() as g:
            g.backward(ad.reduce_sum(ad.add(use(2.0), use(3.0))))
        first, second = handed  # the tape replays the second use first
        assert a.grad is first
        np.testing.assert_array_equal(a.grad, [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(second, [2.0, 2.0, 2.0])

    def test_not_recorded_without_tape(self):
        a = ad.Tensor(np.ones(3), requires_grad=True)
        assert not ad.is_recording((a,))
        out = ad.custom(a.data * 3.0, (a,), lambda g: (g * 3.0,))
        assert not out.requires_grad
        with ad.Graph():
            assert ad.is_recording((a,))
            assert not ad.is_recording((ad.constant(1.0),))


class TestDtypes:
    """One dtype per graph: float32 stays float32 through every op and its
    gradients, and mixing dtypes fails instead of promoting."""

    ROWS = np.array([0, 1, 2, 3, 5])  # packed cells of a (2, 3) grid; cell 4 is empty
    CASES = {
        **{name: (op, ((4, 4), (4, 4))) for name, op in TestPrimitiveGradients.CASES.items()},
        **{name: (op, ((4, 4),)) for name, op in TestPrimitiveGradients.UNARY.items()},
        "affine": (ad.affine, ((3, 4), (4, 2), (2,))),
        "scale+reduce_sum": (lambda x: ad.reduce_sum(ad.scale(x, 0.5), axis=0), ((3, 4),)),
        "layer_norm+add_bias": (lambda x, g, b: ad.add_bias(ad.layer_norm(x, g, b), b),
                                ((3, 6), (6,), (6,))),
        "conv2d+embed_border": (lambda x, k, p: ad.conv2d(ad.embed_border(x, p, 1), k, 2),
                                ((2, 1, 6, 6), (2, 1, 3, 3), (1, 28))),
        "split+merge_heads": (lambda x: ad.merge_heads(
            ad.split_heads(x, 2, TestDtypes.ROWS, 2, 3), TestDtypes.ROWS), ((5, 4),)),
        "scatter_rows": (lambda x: ad.scatter_rows(x, TestDtypes.ROWS, 2, 3), ((5, 4),)),
    }

    def test_float32_kept_and_other_dtypes_become_float64(self):
        assert ad.Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        for data in (np.ones(2, np.float16), np.arange(2), [1, 2], 1.0):
            assert ad.Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_op_keeps_float32(self, name):
        op, shapes = self.CASES[name]
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(s) for s in shapes]
        results = {}
        for dtype in (np.float32, np.float64):
            inputs = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            with ad.Graph() as g:
                out = op(*inputs)
                w = ad.constant(np.linspace(-1, 1, out.data.size).reshape(out.shape).astype(dtype))
                g.backward(ad.reduce_sum(ad.mul(out, w)))
            assert out.data.dtype == dtype
            assert all(t.grad.dtype == dtype for t in inputs)
            results[dtype] = [out.data] + [t.grad for t in inputs]
        for got, ref in zip(results[np.float32], results[np.float64]):
            np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_mixed_inputs_raise(self):
        a = ad.Tensor(np.ones(3, np.float32))
        with pytest.raises(ad.DTypeError):
            ad.add(a, ad.Tensor(np.ones(3)))
        with pytest.raises(ad.DTypeError):
            ad.affine(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2), np.float32)),
                      ad.Tensor(np.ones(2, np.float32)))

    def test_custom_output_and_gradient_dtypes_checked(self):
        a = ad.Tensor(np.ones(3, np.float32), requires_grad=True)
        with pytest.raises(ad.DTypeError):
            ad.custom(a.data.astype(np.float64), (a,), lambda g: (g,))
        with ad.Graph() as g:
            out = ad.custom(a.data.copy(), (a,), lambda grad: (grad.astype(np.float64),))
            with pytest.raises(ad.DTypeError):
                g.backward(ad.reduce_sum(out))

    def test_check_gradients_refuses_float32_inputs_by_name(self):
        x = ad.Tensor(np.ones(2, np.float32), requires_grad=True)
        with pytest.raises(ad.DTypeError, match="'x'"):
            ad.check_gradients(lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x})
