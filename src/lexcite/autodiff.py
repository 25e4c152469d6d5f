"""Reverse-mode automatic differentiation on numpy arrays.

A small tape engine: every operation returns a :class:`Tensor` that remembers
its parents and how to push gradients back to them. All data is float64;
gradient checks against central finite differences are part of the test
suite, so the engine is deliberately free of any reduced-precision shortcuts.

Ops skip closure construction entirely when no input requires a gradient
(or inside :func:`no_grad`), which matters because finite-difference checks
re-run forward passes thousands of times.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    # -- backward pass --------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64)

        # Iterative topological sort (graphs can be deep: long recurrences).
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division unsupported; divide by a scalar")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    @property
    def T(self):
        return transpose(self, None)


class Parameter(Tensor):
    """A trainable leaf tensor."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _raw(data) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _tracked(data, parents, backward) -> Tensor:
    out = _raw(data)
    out.requires_grad = True
    out._parents = parents
    out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise binary -------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b._ensure_grad()
            b.grad += _unbroadcast(g, b.data.shape)

    return _tracked(data, tuple(p for p in (a, b) if p.requires_grad), backward)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b._ensure_grad()
            b.grad += _unbroadcast(-g, b.data.shape)

    return _tracked(data, tuple(p for p in (a, b) if p.requires_grad), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b._ensure_grad()
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _tracked(data, tuple(p for p in (a, b) if p.requires_grad), backward)


def neg(a):
    a = _as_tensor(a)
    if not (_grad_enabled and a.requires_grad):
        return _raw(-a.data)

    def backward(g):
        a._ensure_grad()
        a.grad -= g

    return _tracked(-a.data, (a,), backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands; reshape first")
    data = a.data @ b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += g @ b.data.T
        if b.requires_grad:
            b._ensure_grad()
            b.grad += a.data.T @ g

    return _tracked(data, tuple(p for p in (a, b) if p.requires_grad), backward)


# -- elementwise unary --------------------------------------------------------


def log(a):
    a = _as_tensor(a)
    data = np.log(a.data)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)

    def backward(g):
        a._ensure_grad()
        a.grad += g / a.data

    return _tracked(data, (a,), backward)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    if not (_grad_enabled and a.requires_grad):
        return _raw(out_data)

    def backward(g):
        a._ensure_grad()
        a.grad += g * (1.0 - out_data * out_data)

    return _tracked(out_data, (a,), backward)


def sigmoid(a):
    a = _as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    if not (_grad_enabled and a.requires_grad):
        return _raw(out_data)

    def backward(g):
        a._ensure_grad()
        a.grad += g * out_data * (1.0 - out_data)

    return _tracked(out_data, (a,), backward)


def relu(a):
    a = _as_tensor(a)
    keep = a.data > 0
    data = np.where(keep, a.data, 0.0)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)

    def backward(g):
        a._ensure_grad()
        a.grad += g * keep

    return _tracked(data, (a,), backward)


def leaky_relu(a, slope=0.01):
    a = _as_tensor(a)
    factor = np.where(a.data > 0, 1.0, slope)
    data = a.data * factor
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)

    def backward(g):
        a._ensure_grad()
        a.grad += g * factor

    return _tracked(data, (a,), backward)


def clip(a, lo, hi):
    """Clamp values; gradient passes only through unclamped entries."""
    a = _as_tensor(a)
    data = np.clip(a.data, lo, hi)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        a._ensure_grad()
        a.grad += g * inside

    return _tracked(data, (a,), backward)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)

    def backward(g):
        a._ensure_grad()
        if axis is None:
            a.grad += g
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a.grad += np.broadcast_to(g, a.data.shape)

    return _tracked(data, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- softmax ------------------------------------------------------------------


def masked_softmax(a, mask=None, axis=-1):
    """Softmax along `axis`; positions where `mask` is False get weight 0.

    Rows that are entirely masked produce all-zero weights (and receive no
    gradient), which is the empty-attention convention used throughout.
    """
    a = _as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        neg = np.where(mask, x, -np.inf)
    else:
        neg = x
    mx = neg.max(axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(neg - mx)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    p = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
    if not (_grad_enabled and a.requires_grad):
        return _raw(p)

    def backward(g):
        a._ensure_grad()
        gp = g * p
        a.grad += gp - p * gp.sum(axis=axis, keepdims=True)

    return _tracked(p, (a,), backward)


def softmax(a, axis=-1):
    return masked_softmax(a, mask=None, axis=axis)


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape):
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    orig = a.data.shape

    def backward(g):
        a._ensure_grad()
        a.grad += g.reshape(orig)

    return _tracked(data, (a,), backward)


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    data = a.data.transpose(axes)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    inv = np.argsort(axes)

    def backward(g):
        a._ensure_grad()
        a.grad += g.transpose(inv)

    return _tracked(data, (a,), backward)


def getitem(a, key):
    a = _as_tensor(a)
    data = a.data[key]
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)

    def backward(g):
        a._ensure_grad()
        np.add.at(a.grad, key, g)

    return _tracked(data, (a,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return _raw(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._ensure_grad()
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.grad += g[tuple(idx)]

    return _tracked(data, tuple(t for t in tensors if t.requires_grad), backward)


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return _raw(data)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._ensure_grad()
                t.grad += np.take(g, i, axis=axis)

    return _tracked(data, tuple(t for t in tensors if t.requires_grad), backward)


# -- gather / scatter ---------------------------------------------------------


def embedding(table, idx):
    """Row lookup: `table` is (V, E); `idx` any integer array -> (*idx, E)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    data = table.data[idx]
    if not (_grad_enabled and table.requires_grad):
        return _raw(data)

    def backward(g):
        table._ensure_grad()
        np.add.at(table.grad, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))

    return _tracked(data, (table,), backward)


def scatter_rows(values, idx, n_rows):
    """Place `values[i]` at row `idx[i]` of a zero tensor with `n_rows` rows.

    Indices must be unique; rows not mentioned stay zero.
    """
    values = _as_tensor(values)
    idx = np.asarray(idx)
    data = np.zeros((n_rows,) + values.data.shape[1:], dtype=np.float64)
    data[idx] = values.data
    if not (_grad_enabled and values.requires_grad):
        return _raw(data)

    def backward(g):
        values._ensure_grad()
        values.grad += g[idx]

    return _tracked(data, (values,), backward)
