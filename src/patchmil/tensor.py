"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and, when it participates in a graph rooted at
tensors with ``requires_grad=True``, records enough information to run
backpropagation from a scalar output. The kernel set is deliberately small:
matmul, conv2d (unfold + matmul), elementwise arithmetic, ReLU/GELU/tanh/
sigmoid/exp/log/sqrt/pow, axis reductions, softmax, l2_normalize, concat,
transpose/reshape/slicing.

Precision is a build-wide switch (`set_default_dtype`); float32 is the
default, float64 is used by the gradient-check suite.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractViolation, NumericError

_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the build-wide scalar precision (np.float32 or np.float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ContractViolation(f"unsupported dtype {dtype}")
    _DEFAULT_DTYPE = dtype


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the build-wide precision (used by gradient checks)."""
    old = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


def _as_array(value, dtype=None) -> np.ndarray:
    return np.asarray(value, dtype=dtype or _DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense n-dimensional value, optionally tracked on the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _op="leaf"):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = _parents
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = _op

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, parents, op, backward) -> "Tensor":
        tracked = any(p.requires_grad or p._parents for p in parents)
        out = Tensor(data, _parents=tuple(parents) if tracked else (), _op=op)
        if tracked:
            out._backward = backward
        return out

    # -- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar, populating .grad on reachable leaves."""
        if self.size != 1:
            raise ContractViolation(
                f"backward requires a scalar output, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                if np.isnan(pg).any():
                    raise NumericError(f"NaN gradient produced in op '{node._op}'")
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data, requires_grad: bool = True) -> Tensor:
    return Tensor(_as_array(data), requires_grad=requires_grad)


class Adam:
    """Adam with bias correction and L2 weight decay; lr is passed per step.

    The conv stack conditions the gradient badly at this scale (bias terms
    receive most of the raw gradient), so per-parameter step normalization is
    what actually trains the encoder weights.
    """

    def __init__(self, params: dict, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-4):
        self.params = params
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> float:
        """Apply one update and clear the grads; returns the raw gradient norm.

        A leaf whose grad is None counts as a zero gradient.
        """
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


# ---------------------------------------------------------------------------
# elementwise kernels
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._make(data, (a, b), "add", backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._make(data, (a, b), "sub", backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._make(data, (a, b), "mul", backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor._make(data, (a, b), "div", backward)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    exponent = float(exponent)
    data = a.data**exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return Tensor._make(data, (a,), "pow", backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return Tensor._make(data, (a,), "exp", backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return Tensor._make(data, (a,), "log", backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return Tensor._make(data, (a,), "sqrt", backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def backward(g):
        return (g * mask,)

    return Tensor._make(data, (a,), "relu", backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

try:  # scipy's vectorized erf beats np.vectorize(math.erf) by a wide margin
    from scipy.special import erf as _erf
except ImportError:  # pragma: no cover
    _erf = np.vectorize(math.erf)


def gelu(a) -> Tensor:
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    data = a.data * cdf

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (cdf + a.data * pdf),)

    return Tensor._make(data, (a,), "gelu", backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data * data),)

    return Tensor._make(data, (a,), "tanh", backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # exp of a negative magnitude on both branches avoids overflow
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return (g * data * (1.0 - data),)

    return Tensor._make(data, (a,), "sigmoid", backward)


# ---------------------------------------------------------------------------
# reductions / normalizations
# ---------------------------------------------------------------------------


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axis = _norm_axis(axis, a.ndim)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(data, (a,), "sum", backward)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axis_n = _norm_axis(axis, a.ndim)
    if axis_n is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axis_n]))
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reduce_max(a, axis: int, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axis = axis % a.ndim
    data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        expanded = data if keepdims else np.expand_dims(data, axis)
        mask = a.data == expanded
        # split ties evenly so the gradient check stays honest
        mask = mask / mask.sum(axis=axis, keepdims=True)
        gexp = g if keepdims else np.expand_dims(g, axis)
        return (mask * gexp,)

    return Tensor._make(data, (a,), "max", backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return Tensor._make(data, (a,), "softmax", backward)


def l2_normalize(a, axis: int = -1, check_nonzero: bool = True) -> Tensor:
    """x / ||x||_2 along `axis`. Raises NumericError on a zero-norm slice."""
    a = as_tensor(a)
    sq = (a.data * a.data).sum(axis=axis, keepdims=True)
    if check_nonzero and np.any(sq == 0.0):
        raise NumericError("l2_normalize received a zero-norm input")
    return a * power(reduce_sum(a * a, axis=axis, keepdims=True), -0.5)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return Tensor._make(data, (a,), "reshape", backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    data = a.data.transpose(axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        return (g.transpose(inv),)

    return Tensor._make(data, (a,), "transpose", backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    axes = list(range(a.ndim))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return transpose(a, axes)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    base = list(tensors[0].shape)
    axis = axis % len(base)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis
        ):
            raise ContractViolation(
                f"concat shape mismatch: {tensors[0].shape} vs {t.shape} on axis {axis}"
            )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(data, tuple(tensors), "concat", backward)


def _is_basic_index(idx) -> bool:
    """True for an int, slice, None, Ellipsis or a tuple of these: no repeated positions."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is None or p is Ellipsis or isinstance(p, slice)
        or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
        for p in parts
    )


def take(a, idx) -> Tensor:
    """Numpy-style indexing/slicing with scatter-add backward.

    A basic index selects each position at most once, so its backward adds
    `g` in place; an advanced index may repeat positions and uses `np.add.at`.
    """
    a = as_tensor(a)
    data = a.data[idx]

    def backward(g):
        out = np.zeros_like(a.data)
        if _is_basic_index(idx):
            out[idx] += g
        else:
            np.add.at(out, idx, g)
        return (out,)

    return Tensor._make(data, (a,), "take", backward)


def pad2d(a, pad: int) -> Tensor:
    """Zero-pad the two spatial axes of an (N, H, W, C) tensor."""
    if pad == 0:
        return as_tensor(a)
    a = as_tensor(a)
    widths = ((0, 0), (pad, pad), (pad, pad), (0, 0))
    data = np.pad(a.data, widths)

    def backward(g):
        return (g[:, pad:-pad, pad:-pad, :],)

    return Tensor._make(data, (a,), "pad2d", backward)


# ---------------------------------------------------------------------------
# matmul / convolution
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ContractViolation(f"matmul needs >=1-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        g = np.asarray(g)
        a1, b1 = a.ndim == 1, b.ndim == 1
        a_mat = a.data[None, :] if a1 else a.data
        b_mat = b.data[:, None] if b1 else b.data
        g_mat = g
        if b1:
            g_mat = g_mat[..., None]
        if a1:
            g_mat = g_mat[..., None, :]
        ga = np.matmul(g_mat, np.swapaxes(b_mat, -1, -2))
        gb = np.matmul(np.swapaxes(a_mat, -1, -2), g_mat)
        if a1:
            ga = ga[..., 0, :]
        if b1:
            gb = gb[..., 0]
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._make(data, (a, b), "matmul", backward)


def unfold(a, kernel: int, stride: int = 1, pad: int = 0) -> Tensor:
    """im2col: (N, H, W, C) -> (N, oh*ow, kernel*kernel*C) patch matrix."""
    a = as_tensor(a)
    if a.ndim != 4:
        raise ContractViolation(f"unfold expects (N, H, W, C), got {a.shape}")
    n, h, w, c = a.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ContractViolation(
            f"unfold kernel {kernel} larger than padded input {hp}x{wp}"
        )
    x = np.pad(a.data, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else a.data
    cols = np.empty((n, oh, ow, kernel, kernel, c), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, :, ki, kj, :] = x[
                :, ki : ki + oh * stride : stride, kj : kj + ow * stride : stride, :
            ]
    data = cols.reshape(n, oh * ow, kernel * kernel * c)

    def backward(g):
        g = g.reshape(n, oh, ow, kernel, kernel, c)
        gx = np.zeros((n, hp, wp, c), dtype=g.dtype)
        for ki in range(kernel):
            for kj in range(kernel):
                gx[
                    :, ki : ki + oh * stride : stride, kj : kj + ow * stride : stride, :
                ] += g[:, :, :, ki, kj, :]
        if pad:
            gx = gx[:, pad:-pad, pad:-pad, :]
        return (gx,)

    return Tensor._make(data, (a,), "unfold", backward)


def conv2d(a, weight, bias=None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d convolution via unfold + matmul.

    a: (N, H, W, Cin); weight: (kernel, kernel, Cin, Cout); bias: (Cout,).
    """
    a, weight = as_tensor(a), as_tensor(weight)
    kernel, kernel2, cin, cout = weight.shape
    if kernel != kernel2 or a.shape[-1] != cin:
        raise ContractViolation(
            f"conv2d shape mismatch: input {a.shape}, weight {weight.shape}"
        )
    n, h, w, _ = a.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    cols = unfold(a, kernel, stride=stride, pad=pad)
    out = matmul(cols, reshape(weight, (kernel * kernel * cin, cout)))
    out = reshape(out, (n, oh, ow, cout))
    if bias is not None:
        out = out + as_tensor(bias)
    return out


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


def finite_difference_gradient(f, x, step: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function at x (numpy array)."""
    if step <= 0:
        raise ContractViolation("finite-difference step must be positive")
    x = np.array(x, dtype=np.float64)  # private copy; perturbed in place below
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(x.copy()))
        flat[i] = orig - step
        lo = float(f(x.copy()))
        flat[i] = orig
        if math.isnan(hi) or math.isnan(lo):
            raise NumericError("finite_difference_gradient: f returned NaN")
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradient(f, x: np.ndarray, step: float = 1e-3) -> float:
    """Compare autodiff and central differences for scalar f(Tensor)->Tensor.

    Returns the max relative error between the two gradients.
    """
    leaf = parameter(np.asarray(x))
    out = f(leaf)
    if out.size != 1:
        raise ContractViolation("check_gradient expects a scalar-valued f")
    out.backward()
    auto = leaf.grad

    def f_np(v):
        return f(Tensor(v)).item()

    numeric = finite_difference_gradient(f_np, np.asarray(x, dtype=np.float64), step)
    return max_relative_error(auto, numeric)


def forward_backward(output: Tensor, leaves: Iterable[Tensor]) -> dict:
    """Run backward from a scalar output; map each leaf to its gradient.

    Leaves not reached by the graph get zero gradients.
    """
    leaves = list(leaves)
    for leaf in leaves:
        leaf.grad = None
    output.backward()
    return {
        id(leaf): (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for leaf in leaves
    }
