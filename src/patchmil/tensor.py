"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (its value). When it is tracked, that is when it
requires grad or an op made it from a tracked operand, it also holds a tape
node: its parents' nodes, its backward closure and its op name. The tape is
made of nodes only, never of values: each backward closure keeps the arrays
or shapes its gradient reads (a product keeps its operands, exp its output,
a sum its input's shape), so a value that no backward reads is freed as soon
as the forward drops its Tensor. A leaf's node refers to its Tensor weakly,
so a parameter and its node form no reference cycle. The kernel set is
deliberately small: matmul (of operands with 2 or more dims), conv2d
(unfold + matmul), elementwise arithmetic, ReLU/GELU/tanh/sigmoid/exp/log/
sqrt/pow, axis reductions, softmax, l2_normalize, concat, roll,
transpose/reshape/slicing. A constant operand of a binary op is not a parent
of the op's tape node and gets no gradient.

`no_grad()` switches the tape off for forward-only passes, and
`no_grad_chunks` runs one such pass over fixed-size row chunks, so its working
set is one chunk's whatever the input's length. `Adam` (constant
betas, eps and weight decay) is the one optimizer of every training loop.
`check_gradient` compares a backward pass with central finite differences.

Precision is a build-wide setting: float32 by default, float64 inside
`with default_dtype(np.float64):`, as the gradient checks run.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from .errors import ContractViolation, NumericError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


@contextlib.contextmanager
def default_dtype(dtype):
    """Switch the build-wide precision (np.float32 or np.float64) inside the block."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ContractViolation(f"unsupported dtype {dtype}")
    old, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextlib.contextmanager
def no_grad():
    """Record no tape: every op output made inside is an untracked constant.

    For forward-only passes (embedding patches, scoring bags) whose params
    require grad; the values are the same as with the tape. The switch is
    process-wide, like the default dtype, not per thread.
    """
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


def no_grad_chunks(fn: Callable, size: int, *arrays) -> np.ndarray:
    """`fn` under `no_grad` over consecutive `size`-row slices of `arrays`, concatenated.

    `fn` takes one slice of each array and returns a numpy array, so only one
    chunk's activations are alive at a time. The slices are views: no input
    is copied. A lone last row joins the chunk before it: numpy multiplies a
    one-row matrix by gemv, whose bits differ from those of a gemm row.
    """
    n = len(arrays[0])
    bounds = list(range(0, n - 1, size)) or [0]
    with no_grad():
        return np.concatenate([fn(*(a[start:stop] for a in arrays))
                               for start, stop in zip(bounds, bounds[1:] + [n])])


def _as_array(value, dtype=None) -> np.ndarray:
    return np.asarray(value, dtype=dtype or _DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """One tape entry: the parents' nodes, the backward closure and the op name.

    `backward(g)` returns one gradient (or None) per parent; a parent that
    is off the tape (a constant input of concat) is None. A leaf's node has
    no parents and no backward, and `leaf` is a weak reference to its Tensor.
    """

    __slots__ = ("parents", "backward", "op", "leaf")

    def __init__(self, parents: tuple, backward, op: str, leaf=None):
        self.parents, self.backward, self.op, self.leaf = parents, backward, op, leaf


class Tensor:
    """A dense n-dimensional value, optionally tracked on the gradient tape."""

    __slots__ = ("data", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = (
            _Node((), None, "leaf", weakref.ref(self)) if requires_grad else None
        )

    # -- introspection -----------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        """True for a leaf whose gradient backward() accumulates into .grad."""
        return self._node is not None and self._node.leaf is not None

    @property
    def _backward(self) -> Callable[[np.ndarray], tuple] | None:
        """The backward closure of this Tensor's node; None off the tape and at a leaf."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

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

    def __repr__(self):
        op = "const" if self._node is None else self._node.op
        return f"Tensor(shape={self.shape}, op={op}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, parents, op, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(_on_tape(p) for p in parents):
            out._node = _Node(tuple(p._node for p in parents), backward, op)
        return out

    # -- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar, populating .grad on reachable leaves.

        A NaN is looked for once per leaf, in the gradient that reaches it;
        only then is the graph walked again, checking every edge, so that the
        NumericError names the op that made the NaN.
        """
        if self.size != 1:
            raise ContractViolation(
                f"backward requires a scalar output, got shape {self.shape}"
            )
        if self._node is None:
            return
        topo = self._topological_order()
        if not self._walk(topo, check_edges=False):
            self._walk(topo, check_edges=True)
            raise NumericError("NaN gradient reached a parameter")

    def _topological_order(self) -> list:
        """Every node reachable from this Tensor's, each after all of its parents."""
        topo: list[_Node] = []
        seen: set[int] = set()
        stack = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
        return topo

    def _walk(self, topo: list, check_edges: bool) -> bool:
        """Run the backward closures in reverse topological order.

        Without `check_edges`, accumulate into the leaves' .grad and return
        False at the first leaf whose gradient holds a NaN. With it, leave
        .grad alone and raise NumericError at the first edge that carries one.
        """
        grads: dict[int, np.ndarray] = {id(self._node): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.leaf is not None and not check_edges:
                if np.isnan(g).any():
                    return False
                leaf = node.leaf()  # None once the parameter is gone: its gradient has no reader
                if leaf is not None:
                    leaf.grad = g if leaf.grad is None else leaf.grad + g
            if node.backward is None:
                continue
            for parent, pg in zip(node.parents, node.backward(g)):
                if pg is None:
                    continue
                if check_edges and np.isnan(pg).any():
                    raise NumericError(f"NaN gradient produced in op '{node.op}'")
                if parent is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        return True

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
    """Adam (betas 0.9, 0.999, eps 1e-8), bias correction, coupled L2 decay 1e-4; lr per step.

    The conv stack conditions the gradient badly at this scale (bias terms
    receive most of the raw gradient), so per-parameter step normalization is
    what actually trains the encoder weights.

    The optimizer keeps every parameter in one flat buffer: construction
    copies each `p.data` into it and leaves `p.data` a view of its slice, so
    writes through `p.data[...]` reach the optimizer and a step writes the
    parameters. The moments `m` and `v` (dicts of views) and the gradient sit
    in flat buffers of the same layout, and a step updates them in place with
    one pass of vector ops, in the per-parameter formula's order of operations.
    """

    def __init__(self, params: dict):
        dtypes = sorted({p.data.dtype.name for p in params.values()})
        if len(dtypes) > 1:
            raise ContractViolation(f"Adam needs parameters of one dtype, got {', '.join(dtypes)}")
        self.params = params
        self.b1, self.b2, self.eps, self.weight_decay = 0.9, 0.999, 1e-8, 1e-4
        self.t = 0
        total = sum(p.size for p in params.values())
        dtype = dtypes[0] if dtypes else _DEFAULT_DTYPE
        self._theta, self._m, self._v, self._g, self._tmp = (
            np.zeros(total, dtype) for _ in range(5)
        )
        self.m, self.v, self._slots = {}, {}, []
        start = 0
        for key, p in params.items():
            shape, span = p.shape, slice(start, start + p.size)
            self._theta[span] = p.data.reshape(-1)
            p.data = self._theta[span].reshape(shape)
            self.m[key] = self._m[span].reshape(shape)
            self.v[key] = self._v[span].reshape(shape)
            self._slots.append((p, p.data, self._g[span].reshape(shape)))
            start = span.stop

    def step(self, lr: float) -> float:
        """Apply one update and clear the grads; returns the raw gradient norm.

        A leaf whose grad is None counts as a zero gradient.
        """
        self.t += 1
        sq = 0.0
        for p, data, grad in self._slots:
            if p.data is not data:
                raise ContractViolation("a parameter's data was replaced after Adam took it")
            if p.grad is None:
                grad[...] = 0.0
            else:
                sq += float((p.grad * p.grad).sum())
                grad[...] = p.grad
            p.grad = None
        theta, m, v, g, tmp = self._theta, self._m, self._v, self._g, self._tmp
        np.add(g, np.multiply(theta, self.weight_decay, out=tmp), out=g)  # g + wd * p
        np.multiply(m, self.b1, out=m)  # m <- b1 * m + (1 - b1) * g
        np.add(m, np.multiply(g, 1 - self.b1, out=tmp), out=m)
        np.multiply(v, self.b2, out=v)  # v <- b2 * v + ((1 - b2) * g) * g
        np.multiply(np.multiply(g, 1 - self.b2, out=tmp), g, out=tmp)
        np.add(v, tmp, out=v)
        denom = np.divide(v, 1 - self.b2**self.t, out=g)  # sqrt(v_hat) + eps; g is spent
        np.add(np.sqrt(denom, out=denom), self.eps, out=denom)
        step = np.divide(m, 1 - self.b1**self.t, out=tmp)  # (lr * m_hat) / denom
        np.divide(np.multiply(step, lr, out=step), denom, out=step)
        np.subtract(theta, step, out=theta)
        return math.sqrt(sq)


# ---------------------------------------------------------------------------
# elementwise kernels
# ---------------------------------------------------------------------------


def _on_tape(t: Tensor) -> bool:
    return t._node is not None


def _binary(data, a: Tensor, b: Tensor, op: str, grad_a, grad_b) -> Tensor:
    """Tape node of a binary op whose operand gradients are grad_a(g) and grad_b(g).

    grad_a and grad_b close over arrays and shapes, never over a and b. An
    operand off the tape (a Python number, an array, a constant Tensor)
    is no parent of the node, and its gradient is never computed.
    """
    if not _on_tape(b):
        return Tensor._make(data, (a,), op, lambda g: (grad_a(g),))
    if not _on_tape(a):
        return Tensor._make(data, (b,), op, lambda g: (grad_b(g),))
    return Tensor._make(data, (a, b), op, lambda g: (grad_a(g), grad_b(g)))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _binary(a.data + b.data, a, b, "add",
                   lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _binary(a.data - b.data, a, b, "sub",
                   lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return _binary(x * y, a, b, "mul",
                   lambda g: _unbroadcast(g * y, sa), lambda g: _unbroadcast(g * x, sb))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return _binary(x / y, a, b, "div",
                   lambda g: _unbroadcast(g / y, sa),
                   lambda g: _unbroadcast(-g * x / (y * y), sb))


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    exponent = float(exponent)
    x = a.data
    data = x**exponent

    def backward(g):
        return (g * exponent * x ** (exponent - 1.0),)

    return Tensor._make(data, (a,), "pow", backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return Tensor._make(data, (a,), "exp", backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    data = np.log(x)

    def backward(g):
        return (g / x,)

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


def gelu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    cdf = x * _INV_SQRT2  # 0.5 * (1 + erf(x / sqrt 2)), built in place
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

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
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

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
    shape = a.shape
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return Tensor._make(data, (a,), "sum", backward)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axis_n = _norm_axis(axis, a.ndim)
    count = a.size if axis_n is None else math.prod(a.shape[ax] for ax in axis_n)
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reduce_max(a, axis: int, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axis = axis % a.ndim
    x = a.data
    data = x.max(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        expanded = data if keepdims else np.expand_dims(data, axis)
        mask = (x == expanded).astype(x.dtype)
        # split ties evenly so the gradient check stays honest
        mask /= mask.sum(axis=axis, keepdims=True)
        gexp = g if keepdims else np.expand_dims(g, axis)
        return (mask * gexp,)

    return Tensor._make(data, (a,), "max", backward)


def _max_keepdims(x: np.ndarray, axis: int) -> np.ndarray:
    """x.max(axis, keepdims=True) by halving the axis with np.maximum.

    Max does not round, so the halving order gives the same values; numpy's
    reduction over a short strided axis is several times slower.
    """
    lead = (slice(None),) * (axis % x.ndim)
    n = x.shape[axis]
    while n > 1:
        half = (n + 1) // 2  # an odd middle element meets itself
        x = np.maximum(x[lead + (slice(0, half),)], x[lead + (slice(n - half, n),)])
        n = half
    return x


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    data = a.data - _max_keepdims(a.data, axis)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return Tensor._make(data, (a,), "softmax", backward)


def l2_normalize(a, axis: int = -1) -> Tensor:
    """x / ||x||_2 along `axis`. Raises NumericError on a zero-norm slice."""
    a = as_tensor(a)
    sq = reduce_sum(a * a, axis=axis, keepdims=True)
    if np.any(sq.data == 0.0):
        raise NumericError("l2_normalize received a zero-norm input")
    return a * power(sq, -0.5)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape_in = a.shape
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(shape_in),)

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


def roll(a, shift, axis) -> Tensor:
    """Cyclic shift, as np.roll: `shift` and `axis` are ints or tuples of ints."""
    a = as_tensor(a)
    data = np.roll(a.data, shift, axis=axis)
    back = tuple(-s for s in shift) if isinstance(shift, tuple) else -shift

    def backward(g):
        out = np.roll(g, back, axis=axis)
        out += 0.0  # -0.0 becomes +0.0, as in the zero-filled scatter of a slice's backward
        return (out,)

    return Tensor._make(data, (a,), "roll", backward)


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
    shape, dtype = a.shape, a.data.dtype
    data = a.data[idx]

    def backward(g):
        out = np.zeros(shape, dtype)
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
    """Batched matrix product of (..., n, k) and (..., k, m) operands, broadcast like numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractViolation(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return _binary(np.matmul(x, y), a, b, "matmul",
                   lambda g: _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), sa),
                   lambda g: _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), sb))


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
    # (n, oh, ow, c, kernel, kernel) view of every window, copied once as (.., ki, kj, c)
    windows = sliding_window_view(x, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    data = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n, oh * ow, kernel * kernel * c
    )

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

