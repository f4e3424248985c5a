"""Autodiff core: analytic oracles plus finite-difference gradient checks."""

import math

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

    @pytest.mark.parametrize("a,b", [((4,), (4, 5)), ((3, 4), (4,)), ((4,), (4,))])
    def test_matmul_vector_operand_raises(self, a, b):
        with pytest.raises(ContractViolation, match=">=2-d operands"):
            T.Tensor(np.ones(a)) @ T.Tensor(np.ones(b))

    def test_gap_of_constant_map(self):
        m = T.Tensor(np.full((2, 2, 6), 7.0))
        np.testing.assert_allclose(m.mean(axis=(0, 1)).data, np.full(6, 7.0))

    def test_backward_requires_scalar(self):
        x = T.parameter(np.ones((2, 2)))
        with pytest.raises(ContractViolation):
            (x * x).backward()

    def test_unreached_leaf_gets_no_grad(self):
        x = T.parameter([1.0, 2.0])
        y = T.parameter([3.0])
        (x * x).sum().backward()
        assert y.grad is None
        np.testing.assert_allclose(x.grad, [2.0, 4.0])


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

    def test_matmul_broadcast_operand(self):
        x = rng().normal(size=(2, 3, 4))
        w = rng().normal(size=(4, 5))
        _check(lambda t: ((t @ T.Tensor(w)) ** 2).sum(), x)
        _check(lambda t: ((T.Tensor(x) @ t) ** 2).sum(), w)

    def test_reductions(self):
        x = rng().normal(size=(3, 4, 2))
        _check(lambda t: (t.mean(axis=(0, 2)) ** 2).sum(), x)
        _check(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x)

    def test_max_reduction(self):
        x = rng().normal(size=(4, 5))
        _check(lambda t: (T.reduce_max(t, axis=1) ** 2).sum(), x)

    def test_softmax(self):
        x = rng().normal(size=(3, 6))
        w = np.asarray(rng().normal(size=(6, 1)))
        _check(lambda t: (T.softmax(t, axis=1) @ T.Tensor(w)).sum(), x)

    def test_l2_normalize(self):
        x = rng().normal(size=(2, 5))
        w = np.asarray(rng().normal(size=(5, 1)))
        _check(lambda t: (T.l2_normalize(t, axis=1) @ T.Tensor(w)).sum(), x)

    def test_concat_take(self):
        x = rng().normal(size=(3, 4))
        _check(lambda t: (T.concat([t, t * 2.0], axis=1)[:, 2:6] ** 2).sum(), x)

    def test_take_roll_slices(self):
        x = rng().normal(size=(2, 5, 3))
        w = np.asarray(rng().normal(size=(2, 5, 3)))
        _check(lambda t: ((reference_roll(t, 2, axis=1) * T.Tensor(w)) ** 2).sum(), x)

    @pytest.mark.parametrize("shift,axis", [(2, 1), (-3, 2), ((-2, 1), (1, 2))])
    def test_roll(self, shift, axis):
        x = rng().normal(size=(2, 5, 4, 3))
        w = np.asarray(rng().normal(size=(2, 5, 4, 3)))
        _check(lambda t: ((T.roll(t, shift, axis) * T.Tensor(w)) ** 2).sum(), x)

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


# one graph per op: (function of the leaves, leaf shapes); inputs are kept
# where every op is defined and smooth
FLOAT32_OPS = {
    "add": (lambda a, b: a + b, [(3, 4), (4,)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 1)]),
    "mul": (lambda a, b: a * b, [(3, 4), (4,)]),
    "div": (lambda a, b: a / (b * b + 1.0), [(3, 4), (3, 4)]),
    "power": (lambda a: (a * a + 1.0) ** 1.5, [(5,)]),
    "exp": (T.exp, [(5,)]),
    "log": (lambda a: T.log(a * a + 1.0), [(5,)]),
    "sqrt": (lambda a: T.sqrt(a * a + 1.0), [(5,)]),
    "relu": (T.relu, [(5,)]),
    "gelu": (T.gelu, [(5,)]),
    "tanh": (T.tanh, [(5,)]),
    "sigmoid": (T.sigmoid, [(5,)]),
    "reduce_sum": (lambda a: T.reduce_sum(a, axis=1), [(3, 4)]),
    "reduce_mean": (lambda a: T.reduce_mean(a, axis=0), [(3, 4)]),
    "reduce_max": (lambda a: T.reduce_max(a, axis=1), [(3, 4)]),
    "softmax": (lambda a: T.softmax(a, axis=1), [(3, 4)]),
    "l2_normalize": (lambda a: T.l2_normalize(a, axis=1), [(3, 4)]),
    "reshape": (lambda a: T.reshape(a, (12,)), [(3, 4)]),
    "transpose": (lambda a: T.transpose(a, (1, 0)), [(3, 4)]),
    "swapaxes": (lambda a: T.swapaxes(a, 0, 1), [(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(3, 4), (2, 4)]),
    "take": (lambda a: a[[0, 2], 1:3], [(3, 4)]),
    "pad2d": (lambda a: T.pad2d(a, 1), [(1, 3, 3, 2)]),
    "matmul": (lambda a, b: a @ b, [(3, 4), (4, 5)]),
    "unfold": (lambda a: T.unfold(a, 3, stride=1, pad=1), [(1, 4, 4, 2)]),
    "conv2d": (lambda a, w, b: T.conv2d(a, w, b, pad=1), [(1, 4, 4, 2), (3, 3, 2, 3), (3,)]),
}


@pytest.mark.parametrize("op", sorted(FLOAT32_OPS))
def test_float32_build_gives_float32_leaf_gradients(op):
    fn, shapes = FLOAT32_OPS[op]
    with T.default_dtype(np.float32):
        leaves = [T.parameter(rng().normal(size=shape)) for shape in shapes]
        out = fn(*leaves)
        weights = T.Tensor(rng().normal(size=out.shape))
        (out * weights).sum().backward()
    for leaf in leaves:
        assert leaf.data.dtype == np.float32
        assert leaf.grad.dtype == np.float32, op


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


class ReferenceAdam:
    """Adam as a loop over parameters: the reference for the flat-buffer update."""

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-4):
        self.params = params
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.t += 1
        sq = 0.0
        for key, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            sq += float((g * g).sum())
            g = g + self.weight_decay * p.data
            m = self.m[key] = self.b1 * self.m[key] + (1 - self.b1) * g
            v = self.v[key] = self.b2 * self.v[key] + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1**self.t)
            vhat = v / (1 - self.b2**self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None
        return math.sqrt(sq)


class TestAdam:
    """The shared optimizer against its closed form and its per-parameter loop."""

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
        T.Adam(params, weight_decay=self.WD).step(self.LR)
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
        assert T.Adam({"p": decayed}, weight_decay=self.WD).step(self.LR) == 0.0
        g = self.WD * np.array([1.0, -2.0])
        expected = np.array([1.0, -2.0]) - self.LR * g / (np.abs(g) + self.EPS)
        np.testing.assert_allclose(decayed.data, expected, rtol=1e-12)

    def test_flat_update_equals_per_parameter_loop(self):
        shapes = {"w": (3, 4), "b": (4,), "still": (2, 2), "s": (5,)}
        gen = rng()
        init = {k: gen.normal(size=shape) for k, shape in shapes.items()}
        with T.default_dtype(np.float32):
            params = {k: T.parameter(v) for k, v in init.items()}
            ref_params = {k: T.parameter(v) for k, v in init.items()}
        opt = T.Adam(params, weight_decay=self.WD)
        ref = ReferenceAdam(ref_params, weight_decay=self.WD)
        for step in range(5):
            for key, shape in shapes.items():
                if key != "still":  # its grad stays None
                    g = (gen.normal(size=shape) * 10.0 ** (step - 2)).astype(np.float32)
                    params[key].grad, ref_params[key].grad = g.copy(), g.copy()
            if step == 3:  # a write through .data, as train_epochs restores its best epoch
                params["w"].data[...] = init["w"]
                ref_params["w"].data[...] = init["w"]
            lr = self.LR / (step + 1)
            assert opt.step(lr) == ref.step(lr)
            for key in shapes:
                assert params[key].data.dtype == np.float32
                assert params[key].data.tobytes() == ref_params[key].data.tobytes(), (step, key)
                assert opt.m[key].tobytes() == ref.m[key].tobytes(), (step, key)
                assert opt.v[key].tobytes() == ref.v[key].tobytes(), (step, key)
                assert params[key].grad is None

    def test_mixed_dtypes_refused(self):
        with T.default_dtype(np.float32):
            narrow = T.parameter([1.0])
        with pytest.raises(ContractViolation, match="one dtype, got float32, float64"):
            T.Adam({"narrow": narrow, "wide": T.parameter([1.0])})

    def test_replaced_data_refused(self):
        p = T.parameter([1.0, 2.0])
        opt = T.Adam({"p": p})
        p.data = np.array([3.0, 4.0])
        with pytest.raises(ContractViolation, match="replaced"):
            opt.step(self.LR)


class TestLeanTape:
    def test_nan_reaching_a_parameter_names_its_op(self):
        x = T.parameter([0.0, 1.0])
        # sqrt's backward gives inf at 0; mul's inf * 0 is the NaN
        loss = (T.sqrt(x * x) * 3.0).sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="NaN gradient produced in op 'mul'"):
                loss.backward()

    def test_nan_that_reaches_no_parameter_is_not_reported(self):
        x = T.parameter(rng().normal(size=(1, 2, 2, 1)))
        w = np.ones((1, 4, 4, 1))
        w[0, 0, 0, 0] = np.nan  # weights the zero padding only
        loss = (T.pad2d(x, 1) * T.Tensor(w)).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.ones((1, 2, 2, 1)))

    def test_constant_operand_is_no_parent(self):
        p = T.parameter(np.ones((2, 3)))
        const = T.Tensor(np.ones((3, 4)))
        assert (p * 2.0)._parents == (p,)
        assert (2.0 - p)._parents == (p,)
        assert (p @ const)._parents == (p,)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_mul_equals_tensor_scalar_mul(self, dtype):
        x = rng().normal(size=(3, 5))
        up = rng().normal(size=(3, 5))
        with T.default_dtype(dtype):
            for scalar_first in (False, True):
                out, grads = [], []
                for scalar in (0.37, T.Tensor(0.37)):
                    p = T.parameter(x)
                    y = scalar * p if scalar_first else p * scalar
                    (y * T.Tensor(up)).sum().backward()
                    out.append(y.data)
                    grads.append(p.grad)
                assert out[0].dtype == out[1].dtype == dtype
                assert out[0].tobytes() == out[1].tobytes()
                assert grads[0].tobytes() == grads[1].tobytes()


def reference_roll(x, shift: int, axis: int):
    """The cyclic shift as two slices and a concat: the reference for T.roll."""
    shift = shift % x.shape[axis]
    if shift == 0:
        return x
    idx_a = [slice(None)] * x.ndim
    idx_b = [slice(None)] * x.ndim
    idx_a[axis] = slice(-shift, None)
    idx_b[axis] = slice(None, -shift)
    return T.concat([x[tuple(idx_a)], x[tuple(idx_b)]], axis=axis)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roll_equals_slice_concat_reference(dtype):
    x = rng().normal(size=(2, 8, 8, 3))
    up = rng().normal(size=(2, 8, 8, 3))
    up.reshape(-1)[::7] = -0.0  # the reference's backward turns these into +0.0
    with T.default_dtype(dtype):
        results = []
        for roll in (lambda t: T.roll(t, (-2, -2), axis=(1, 2)),
                     lambda t: reference_roll(reference_roll(t, -2, 1), -2, 2)):
            p = T.parameter(x)
            y = roll(p)
            (y * T.Tensor(up)).sum().backward()
            results.append((y.data, p.grad))
    (fwd, bwd), (ref_fwd, ref_bwd) = results
    assert fwd.dtype == ref_fwd.dtype == bwd.dtype == dtype
    assert fwd.tobytes() == ref_fwd.tobytes()
    assert bwd.tobytes() == ref_bwd.tobytes()


class TestNoGrad:
    def test_no_tape_inside(self):
        p = T.parameter(rng().normal(size=(2, 3)))
        with T.no_grad():
            y = T.softmax(T.gelu(p @ T.Tensor(np.ones((3, 4)))), axis=0).sum()
        assert y._parents == () and y._backward is None and not y.requires_grad

    def test_values_equal_taped_forward(self):
        p = T.parameter(rng().normal(size=(2, 5, 5, 3)))
        w = T.parameter(rng().normal(size=(3, 3, 3, 4)))

        def f():
            return T.softmax(T.gelu(T.conv2d(p, w, stride=2, pad=1)), axis=-2)

        taped = f()
        assert taped._backward is not None
        with T.no_grad():
            untaped = f()
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_flag_restored_after_exception(self):
        p = T.parameter(np.ones(3))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        assert (p * 2.0)._backward is not None

    def test_nested(self):
        p = T.parameter(np.ones(3))
        with T.no_grad():
            with T.no_grad():
                assert (p * 2.0)._backward is None
            assert (p * 2.0)._backward is None
        assert (p * 2.0)._backward is not None

    def test_backward_outside_unchanged(self):
        x = rng().normal(size=(3, 4))

        def grad():
            p = T.parameter(x)
            (T.softmax(p, axis=1) * T.Tensor(x)).sum().backward()
            return p.grad

        before = grad()
        with T.no_grad():
            T.softmax(T.parameter(x), axis=1)
        assert grad().tobytes() == before.tobytes()


# The formulas each kernel had before its rewrite; the kernels must give the same bytes.


def reference_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def reference_unfold(x, kernel, stride, pad):
    n, h, w, c = x.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    cols = np.empty((n, oh, ow, kernel, kernel, c), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, :, ki, kj, :] = x[
                :, ki : ki + oh * stride : stride, kj : kj + ow * stride : stride, :
            ]
    return cols.reshape(n, oh * ow, kernel * kernel * c)


def reference_gelu(x):
    from scipy.special import erf

    return x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestKernelsEqualReferences:
    @pytest.mark.parametrize("axis", [0, -2, -1])
    @pytest.mark.parametrize("length", [1, 4, 7, 16])
    def test_softmax(self, dtype, axis, length):
        shape = [3, 5, 2]
        shape[axis] = length
        x = rng().normal(size=shape) * 4.0
        x = np.round(x)  # many ties, including tied maxima
        x.reshape(-1)[::5] = 0.0
        x.reshape(-1)[1::5] = -0.0
        x = x.astype(dtype)
        with T.default_dtype(dtype):
            out = T.softmax(T.Tensor(x), axis=axis).data
        expected = reference_softmax(x, axis)
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel,stride,pad", [(3, 2, 1), (4, 4, 0), (3, 1, 0)])
    def test_unfold(self, dtype, kernel, stride, pad):
        x = rng().normal(size=(2, 9, 8, 3)).astype(dtype)
        with T.default_dtype(dtype):
            out = T.unfold(T.Tensor(x), kernel, stride=stride, pad=pad).data
        expected = reference_unfold(x, kernel, stride, pad)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_gelu(self, dtype):
        x = np.concatenate([rng().normal(size=500) * 3.0, [0.0, -0.0, 40.0, -40.0]]).astype(dtype)
        with T.default_dtype(dtype):
            out = T.gelu(T.Tensor(x)).data
        expected = reference_gelu(x)
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


def test_softmax_gradient_odd_non_last_axis():
    x = rng().normal(size=(3, 7, 2))
    w = np.asarray(rng().normal(size=(3, 7, 2)))
    _check(lambda t: (T.softmax(t, axis=1) * T.Tensor(w)).sum(), x)
