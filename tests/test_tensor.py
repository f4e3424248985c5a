"""Autodiff core: analytic oracles plus finite-difference gradient checks."""

import numpy as np
import pytest

from patchmil import tensor as T
from patchmil.errors import ContractViolation, NumericError


@pytest.fixture(autouse=True)
def float64_mode():
    with T.default_dtype(np.float64):
        yield


def rng():
    return np.random.default_rng(1234)


class TestAnalyticOracles:
    def test_sum_of_squares(self):
        x = T.parameter([1.0, 2.0, 3.0])
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_softmax_sum_is_constant(self):
        x = T.parameter(rng().normal(size=5))
        T.softmax(x, axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros(5), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = T.Tensor(rng().normal(size=(6, 9)))
        y = T.softmax(x, axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), np.ones(6), atol=1e-6)

    def test_l2_normalize_345(self):
        y = T.l2_normalize(T.Tensor([3.0, 4.0]), axis=0)
        np.testing.assert_allclose(y.data, [0.6, 0.8])

    def test_l2_normalize_zero_raises(self):
        with pytest.raises(NumericError):
            T.l2_normalize(T.Tensor([0.0, 0.0]), axis=0)

    def test_concat_channel_axis(self):
        a = T.Tensor(np.zeros((4, 4, 3)))
        b = T.Tensor(np.zeros((4, 4, 5)))
        assert T.concat([a, b], axis=2).shape == (4, 4, 8)

    def test_concat_mismatch_raises(self):
        a = T.Tensor(np.zeros((4, 4, 3)))
        b = T.Tensor(np.zeros((5, 4, 5)))
        with pytest.raises(ContractViolation):
            T.concat([a, b], axis=2)

    def test_gap_of_constant_map(self):
        m = T.Tensor(np.full((2, 2, 6), 7.0))
        np.testing.assert_allclose(m.mean(axis=(0, 1)).data, np.full(6, 7.0))

    def test_backward_requires_scalar(self):
        x = T.parameter(np.ones((2, 2)))
        with pytest.raises(ContractViolation):
            (x * x).backward()

    def test_unreached_leaf_gets_zero_grad(self):
        x = T.parameter([1.0, 2.0])
        y = T.parameter([3.0])
        grads = T.forward_backward((x * x).sum(), [x, y])
        np.testing.assert_allclose(grads[id(y)], [0.0])
        np.testing.assert_allclose(grads[id(x)], [2.0, 4.0])


class TestFiniteDifferenceOracle:
    def test_sum_gradient_all_ones(self):
        g = T.finite_difference_gradient(lambda v: v.sum(), rng().normal(size=7), 1e-3)
        np.testing.assert_allclose(g, np.ones(7), atol=1e-9)

    def test_square_at_three(self):
        g = T.finite_difference_gradient(lambda v: v[0] ** 2, np.array([3.0]), 1e-4)
        np.testing.assert_allclose(g, [6.0], atol=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ContractViolation):
            T.finite_difference_gradient(lambda v: v.sum(), np.ones(2), 0.0)

    def test_nan_propagates(self):
        with pytest.raises(NumericError):
            T.finite_difference_gradient(lambda v: float("nan"), np.ones(2), 1e-3)


def _check(f, x, tol=1e-6, step=1e-4):
    err = T.check_gradient(f, x, step=step)
    assert err < tol, f"max relative error {err}"


class TestGradientChecks:
    """Every differentiable kernel vs central finite differences (64-bit)."""

    def test_elementwise_chain(self):
        x = rng().normal(size=(3, 4))
        _check(lambda t: ((t * t - t * 0.5 + 2.0) * T.sigmoid(t)).sum(), x)

    def test_div(self):
        x = rng().normal(size=(5,)) + 3.0
        _check(lambda t: (t / (t + 1.0)).sum(), x)

    def test_pow(self):
        x = np.abs(rng().normal(size=6)) + 0.5
        _check(lambda t: (t**1.7).sum(), x)

    def test_exp_log_sqrt(self):
        x = np.abs(rng().normal(size=(2, 3))) + 0.5
        _check(lambda t: (T.log(t) + T.sqrt(t) + T.exp(-t)).sum(), x)

    def test_relu(self):
        x = rng().normal(size=12) + 0.05  # keep clear of the kink
        _check(lambda t: (T.relu(t) * 2.0).sum(), x)

    def test_gelu_tanh(self):
        x = rng().normal(size=8)
        _check(lambda t: (T.gelu(t) + T.tanh(t)).sum(), x)

    def test_matmul_2d(self):
        x = rng().normal(size=(3, 4))
        b = np.asarray(rng().normal(size=(4, 5)))
        _check(lambda t: (t @ T.Tensor(b)).sum(), x)
        _check(lambda t: (T.Tensor(x) @ t * 0.3).sum(), b)

    def test_matmul_batched(self):
        x = rng().normal(size=(2, 3, 4))
        w = rng().normal(size=(2, 4, 3))
        _check(lambda t: (t @ T.Tensor(w)).sum(), x)
        _check(lambda t: ((T.Tensor(x) @ t) ** 2).sum(), w)

    def test_matmul_vector(self):
        v = rng().normal(size=4)
        m = rng().normal(size=(4, 4))
        _check(lambda t: (t @ T.Tensor(m) @ T.Tensor(v)).sum(), v)

    def test_reductions(self):
        x = rng().normal(size=(3, 4, 2))
        _check(lambda t: (t.mean(axis=(0, 2)) ** 2).sum(), x)
        _check(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x)

    def test_max_reduction(self):
        x = rng().normal(size=(4, 5))
        _check(lambda t: (T.reduce_max(t, axis=1) ** 2).sum(), x)

    def test_softmax(self):
        x = rng().normal(size=(3, 6))
        w = np.asarray(rng().normal(size=6))
        _check(lambda t: (T.softmax(t, axis=1) @ T.Tensor(w)).sum(), x)

    def test_l2_normalize(self):
        x = rng().normal(size=(2, 5))
        w = np.asarray(rng().normal(size=5))
        _check(lambda t: (T.l2_normalize(t, axis=1) @ T.Tensor(w)).sum(), x)

    def test_concat_take(self):
        x = rng().normal(size=(3, 4))
        _check(lambda t: (T.concat([t, t * 2.0], axis=1)[:, 2:6] ** 2).sum(), x)

    def test_take_roll_slices(self):
        from patchmil.backbone import _roll

        x = rng().normal(size=(2, 5, 3))
        w = np.asarray(rng().normal(size=(2, 5, 3)))
        _check(lambda t: ((_roll(t, 2, axis=1) * T.Tensor(w)) ** 2).sum(), x)

    def test_take_advanced_index_with_repeats(self):
        x = rng().normal(size=(3, 4))
        _check(lambda t: (t[[0, 2, 0], [1, 3, 1]] ** 2).sum(), x)
        _check(lambda t: (t[np.arange(3), np.arange(3)] ** 2).sum(), x)

    def test_take_basic_index_backward_equals_add_at(self):
        x = rng().normal(size=(3, 4, 5))
        indices = [
            1, -1, np.int64(2), slice(None, None, -2), None, Ellipsis,
            (slice(None), slice(-2, None)), (Ellipsis, 3), (0, None, slice(1, 4)),
            (np.array([0, 0, 2]),), np.array([True, False, True]),
        ]
        for idx in indices:
            leaf = T.parameter(x)
            g = rng().normal(size=x[idx].shape)
            (T.take(leaf, idx) * T.Tensor(g)).sum().backward()
            expected = np.zeros_like(x)
            np.add.at(expected, idx, g)
            assert leaf.grad.tobytes() == expected.tobytes(), idx

    def test_transpose_reshape(self):
        x = rng().normal(size=(2, 3, 4))
        _check(lambda t: (T.transpose(t, (2, 0, 1)).reshape(4, 6) ** 2).sum(), x)

    def test_unfold(self):
        x = rng().normal(size=(1, 5, 5, 2))
        _check(lambda t: (T.unfold(t, 3, stride=2, pad=1) ** 2).sum(), x)

    def test_conv2d(self):
        x = rng().normal(size=(2, 6, 6, 3))
        w = rng().normal(size=(3, 3, 3, 4)) * 0.5
        b = np.asarray(rng().normal(size=4))
        _check(lambda t: (T.conv2d(t, T.Tensor(w), T.Tensor(b), stride=2, pad=1) ** 2).sum(), x)
        _check(lambda t: (T.conv2d(T.Tensor(x), t, T.Tensor(b), stride=2, pad=1) ** 2).sum(), w)

    def test_conv2d_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            T.conv2d(T.Tensor(np.zeros((1, 4, 4, 2))), T.Tensor(np.zeros((3, 3, 3, 4))))

    def test_pad2d(self):
        x = rng().normal(size=(1, 3, 3, 2))
        _check(lambda t: (T.pad2d(t, 1) ** 2).sum(), x)


class TestDeterminism:
    def test_forward_bit_identical(self):
        r = np.random.default_rng(0)
        x = r.normal(size=(4, 4))
        w = r.normal(size=(4, 4))

        def run():
            return (T.softmax(T.Tensor(x) @ T.Tensor(w), axis=1)).data.tobytes()

        assert run() == run()

    def test_precision_switch(self):
        with T.default_dtype(np.float32):
            assert T.Tensor([1.0]).data.dtype == np.float32
        assert T.Tensor([1.0]).data.dtype == np.float64  # fixture default


class TestAdam:
    """The shared optimizer's first step against its closed form."""

    LR, WD, EPS = 0.1, 0.01, 1e-8

    def make(self):
        gen = rng()
        params = {"w": T.parameter(gen.normal(size=(3, 4))), "b": T.parameter(gen.normal(size=4))}
        grads = {"w": gen.normal(size=(3, 4)), "b": gen.normal(size=4)}
        for key, p in params.items():
            p.grad = grads[key].copy()
        return params, grads

    def test_first_step_closed_form(self):
        params, grads = self.make()
        before = {k: p.data.copy() for k, p in params.items()}
        T.Adam(params, eps=self.EPS, weight_decay=self.WD).step(self.LR)
        for key, p in params.items():
            # at t = 1 bias correction gives m_hat = g' and sqrt(v_hat) = |g'|
            g = grads[key] + self.WD * before[key]
            expected = before[key] - self.LR * g / (np.abs(g) + self.EPS)
            np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=1e-15)
            assert p.grad is None

    def test_returns_norm_of_raw_gradient(self):
        params, grads = self.make()
        norm = T.Adam(params, weight_decay=self.WD).step(self.LR)
        raw = np.sqrt(sum((g * g).sum() for g in grads.values()))
        assert norm == pytest.approx(raw, rel=1e-12)

    def test_missing_grad_is_zero_gradient(self):
        still = T.parameter([1.0, -2.0])
        assert T.Adam({"p": still}, weight_decay=0.0).step(self.LR) == 0.0
        np.testing.assert_array_equal(still.data, [1.0, -2.0])
        # with decay, wd * p is the whole gradient
        decayed = T.parameter([1.0, -2.0])
        assert T.Adam({"p": decayed}, eps=self.EPS, weight_decay=self.WD).step(self.LR) == 0.0
        g = self.WD * np.array([1.0, -2.0])
        expected = np.array([1.0, -2.0]) - self.LR * g / (np.abs(g) + self.EPS)
        np.testing.assert_allclose(decayed.data, expected, rtol=1e-12)
