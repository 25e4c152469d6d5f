"""Reverse-mode automatic differentiation on numpy arrays.

A small tape engine. Every operation returns a :class:`Tensor`. An op states
only its forward value and, for each input, a vector-Jacobian product (VJP)
that maps the output's gradient to that input's share; :func:`_tracked` is
the one constructor of such recorded nodes. There is one accumulation rule,
and :meth:`Tensor.backward` alone applies it: it skips inputs that need no
gradient, makes an input's first whole share its gradient buffer and adds
later shares to it (``+=``). A share that lands at the node's index
(``getitem``, ``embedding``) goes into a zero buffer as ``np.add.at`` would
add it, and bitwise so: a basic index (ints, slices) adds in place, a 1-D
integer row index goes in as one ``np.add.at`` over the flattened buffer,
and any other index through ``np.add.at`` itself. So shares through a
repeated index or a reused input all add up. A first share the VJP made
fresh (a writeable array of the input's shape and dtype that owns its data)
is adopted as the buffer; the node's own gradient, a view or a broadcast is
copied, so that no later ``+=`` writes through it.

The engine computes in the floating dtype of its data: a tensor keeps the
dtype of the array it is given (anything not floating becomes float64), and
every buffer an op, a recurrence or backward allocates takes the dtype of
its inputs. A Python scalar operand stays weak, as in numpy, so
``mul(x, 0.5)`` has x's dtype. A float32 model therefore trains and
predicts in float32 throughout; gradient checks against central finite
differences widen the parameters to float64 first.

Backward consumes the graph it walks: each node leaves the topological list
as it is run, and an interior node then drops its inputs and VJPs, and with
them the forward arrays the VJPs captured. A node nobody holds is freed,
gradient and all; one the caller holds keeps its ``data`` and ``grad``. A
consumed node's ``_parents`` is ``None`` (a leaf's is ``()``), and a
``backward()`` that reaches it raises ``RuntimeError`` rather than leave the
parameters' gradients silently stale.

The recording rule is stated once, in :func:`_recording`: a node is recorded
when grad mode is on (outside :func:`no_grad`) and one of its inputs requires
a gradient. Every op hands its value and its VJPs to :func:`_record`, which
calls :func:`_tracked` only when the rule holds and otherwise returns a plain
value; an unrecorded call builds its VJP closures and drops them at once.
Values only a VJP needs (a mask, an inverse permutation, a row index) are
computed inside that VJP. On a 2-vCPU Xeon, the closures and the rule cost an
unrecorded call 0.25 to 0.7 µs (a 4×8 by 8×8 ``affine`` under
:func:`no_grad`: 2.8 to 3.6 µs), and a two-input ``concat`` 1.7 µs.

The recurrences are whole-op nodes: :func:`gru_scan` runs one direction of
a GRU, and :func:`bilstm_scan` both directions of an LSTM in the same time
loop, in numpy, and each records a single node for all of its steps, so the
tape does not grow with sequence length. Their VJPs share one
backprop-through-time pass, run on the first VJP call for a given output
gradient; the parameters' gradients then come from one GEMM over the stacked
states, not one per step. :func:`gru_scan` runs on a packed batch: only each
sequence's real steps, time-major, longest sequence first, as
:func:`lexcite.nn.pack` lays them out. :func:`packed_softmax` and
:func:`packed_sum` pool such a batch per sequence.
"""

from __future__ import annotations

import math
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_index")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._index = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def backward(self, grad=None):
        """Accumulate the gradient of this node into every tensor it depends
        on, consuming the graph: each interior node's inputs and VJPs are
        dropped once its VJPs have run. A node the caller still holds keeps
        its `data` and `grad`; a later backward() that reaches a consumed
        node raises RuntimeError."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)

        topo = _topological(self)
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        while topo:  # the root first; a node leaves the list as it is run
            _run_vjps(topo.pop())


def _topological(root) -> list:
    """The nodes `root` depends on through inputs that need a gradient, each
    after all of its inputs, `root` last. Iterative: graphs can be deep."""
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise RuntimeError("backward() reached a node whose graph an earlier backward() "
                               "consumed; run the forward pass again to build a new graph")
        visited.add(id(node))
        stack.append((node, True))
        for x in node._parents[::2]:  # the inputs, without their VJPs
            if x.requires_grad and id(x) not in visited:
                stack.append((x, False))
    return topo


def _adoptable(share, g, like) -> bool:
    """Whether a first share can become the input's gradient buffer as it
    is: a fresh array of the input's shape and dtype that owns its data and
    is writeable. The node's own gradient `g`, views and broadcasts are not:
    later shares are added into the buffer in place."""
    return (share is not g and isinstance(share, np.ndarray) and share.flags.owndata
            and share.flags.writeable and share.shape == like.shape
            and share.dtype == like.dtype)


def _run_vjps(node):
    """Add each share of `node`'s gradient to its input's gradient, then
    consume the node: an interior node drops its inputs and VJPs, and with
    them the forward arrays they captured. A leaf keeps its ``()``."""
    g, parents, index = node.grad, node._parents, node._index
    if parents:
        node._parents = None
    pairs = iter(parents)
    for x, vjp in zip(pairs, pairs):
        if not x.requires_grad:
            continue
        share = vjp(g)
        if index is not None:
            if x.grad is None:
                x.grad = np.zeros(x.data.shape, dtype=x.data.dtype)
            _scatter_add(x.grad, index, share)
        elif x.grad is None:
            if _adoptable(share, g, x.data):
                x.grad = share
            else:
                x.grad = np.empty_like(x.data)
                x.grad[...] = share
        else:
            x.grad += share


def _is_basic(key) -> bool:
    """Whether `key` is a basic index (ints, slices, ``...``, ``None``, or a
    tuple of them), which selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))
               for k in parts)


def _scatter_add(buf, key, share):
    """``np.add.at(buf, key, share)``, the same sums in the same order. A
    basic index adds in place. A 1-D integer row index into a C-contiguous
    buffer goes in as one ``np.add.at`` over the flattened buffer: element
    (k, c) of the share lands at ``key[k] * width + c``, so a negative row
    still counts from the end and an out-of-range one still raises. Any
    other key goes through ``np.add.at`` itself, and so does a buffer whose
    flattening would be a copy, which would drop the sum."""
    if _is_basic(key):
        buf[key] += share
    elif (isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu"
          and buf.ndim > 1 and buf.flags.c_contiguous):
        width = math.prod(buf.shape[1:])
        flat = key.astype(np.intp, copy=False)[:, None] * width + np.arange(width)
        np.add.at(buf.reshape(-1), flat.reshape(-1), share.reshape(-1))
    else:
        np.add.at(buf, key, share)


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
    out._index = None
    return out


def _tracked(data, *inputs, index=None) -> Tensor:
    """The one constructor of recorded nodes. `inputs` alternate a tensor and
    its VJP: flat, not one pair per input, because the garbage collector's
    work grows with the tape's object count. `index` is where a single-input
    op's share lands in that input (``np.add.at``)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = True
    out._parents = inputs
    out._index = index
    return out


def _recording(tensors) -> bool:
    """The recording rule: grad mode is on and one of `tensors` requires a
    gradient."""
    if _grad_enabled:
        for t in tensors:
            if t.requires_grad:
                return True
    return False


def _record(data, *inputs, index=None) -> Tensor:
    """An op's result: a node recorded by :func:`_tracked` when the recording
    rule holds for its inputs, else a plain tensor. `inputs` alternate a
    tensor and its VJP, as for :func:`_tracked`."""
    if _recording(inputs[::2]):
        return _tracked(data, *inputs, index=index)
    return _raw(data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors. A Python scalar beside a
    tensor takes the tensor's dtype, as numpy's weak scalars do, so it never
    widens the result."""
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return a, _raw(np.asarray(b, dtype=a.data.dtype))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return _raw(np.asarray(a, dtype=b.data.dtype)), b
    return _as_tensor(a), _as_tensor(b)


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
    a, b = _operands(a, b)
    data = a.data + b.data
    return _record(data, a, lambda g: _unbroadcast(g, a.data.shape),
                   b, lambda g: _unbroadcast(g, b.data.shape))


def sub(a, b):
    a, b = _operands(a, b)
    data = a.data - b.data
    return _record(data, a, lambda g: _unbroadcast(g, a.data.shape),
                   b, lambda g: _unbroadcast(-g, b.data.shape))


def mul(a, b):
    a, b = _operands(a, b)
    data = a.data * b.data
    return _record(data, a, lambda g: _unbroadcast(g * b.data, a.data.shape),
                   b, lambda g: _unbroadcast(g * a.data, b.data.shape))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands; reshape first")
    data = a.data @ b.data
    return _record(data, a, lambda g: g @ b.data.T, b, lambda g: a.data.T @ g)


def affine(x, w, b):
    """``x @ w + b`` for a 2-D x and a 1-D bias b, with the bias added in
    place into the product, so no second array of its size is made."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("affine expects 2-D operands; reshape first")
    data = x.data @ w.data
    data += b.data
    return _record(data, x, lambda g: g @ w.data.T, w, lambda g: x.data.T @ g,
                   b, lambda g: g.sum(axis=0))


# -- elementwise unary --------------------------------------------------------


def log(a):
    a = _as_tensor(a)
    return _record(np.log(a.data), a, lambda g: g / a.data)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    return _record(out_data, a, lambda g: g * (1.0 - out_data * out_data))


# exp(-x) overflows to inf for x below about -88 in float32 (-709 in
# float64), and the sigmoid is then exactly 0: no warning is due. The ops
# that take sigmoids run under this.
_quiet_overflow = np.errstate(over="ignore")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@_quiet_overflow
def sigmoid(a):
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)
    return _record(out_data, a, lambda g: g * out_data * (1.0 - out_data))


def relu(a):
    a = _as_tensor(a)
    keep = a.data > 0
    data = np.where(keep, a.data, 0.0)
    return _record(data, a, lambda g: g * keep)


def leaky_relu(a, slope=0.01):
    a = _as_tensor(a)
    dtype = a.data.dtype.type
    factor = np.where(a.data > 0, dtype(1.0), dtype(slope))
    data = a.data * factor
    return _record(data, a, lambda g: g * factor)


def clip(a, lo, hi):
    """Clamp values; gradient passes only through unclamped entries."""
    a = _as_tensor(a)
    return _record(np.clip(a.data, lo, hi), a, lambda g: g * ((a.data > lo) & (a.data < hi)))


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if axis is None:
        return _record(data, a, lambda g: g)
    return _record(data, a, lambda g: np.broadcast_to(
        g if keepdims else np.expand_dims(g, axis), a.data.shape))


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


def softmax(a, axis=-1):
    """Max-shifted softmax along `axis`. A NaN score makes its row NaN, so a
    diverged parameter shows in the loss at once."""
    a = _as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    return _record(p, a, lambda g: (gp := g * p) - p * gp.sum(axis=axis, keepdims=True))


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape):
    a = _as_tensor(a)
    return _record(a.data.reshape(shape), a, lambda g: g.reshape(a.data.shape))


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    return _record(a.data.transpose(axes), a, lambda g: g.transpose(np.argsort(axes)))


def getitem(a, key):
    a = _as_tensor(a)
    return _record(a.data[key], a, lambda g: g, index=key)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    inputs, lo = [], 0
    for t in tensors:
        hi = lo + t.data.shape[axis]
        inputs += (t, lambda g, part=lead + (slice(lo, hi),): g[part])
        lo = hi
    return _record(data, *inputs)


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    inputs = []
    for i, t in enumerate(tensors):
        inputs += (t, lambda g, i=i: np.take(g, i, axis=axis))
    return _record(data, *inputs)


# -- gather / scatter ---------------------------------------------------------


def embedding(table, idx):
    """Row lookup: `table` is (V, E); `idx` any integer array -> (*idx, E)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    return _record(table.data[idx], table, lambda g: g.reshape(-1, table.data.shape[-1]),
                   index=idx.reshape(-1))


def scatter_rows(values, idx, n_rows):
    """Place `values[i]` at row `idx[i]` of a zero tensor with `n_rows` rows.

    Indices must be unique; rows not mentioned stay zero.
    """
    values = _as_tensor(values)
    idx = np.asarray(idx)
    data = np.zeros((n_rows,) + values.data.shape[1:], dtype=values.data.dtype)
    data[idx] = values.data
    return _record(data, values, lambda g: g[idx])


# -- fused recurrences --------------------------------------------------------


def _shared_shares(bptt):
    """Run `bptt(g)` once per output gradient `g`; each input's VJP then
    takes its own entry of the returned tuple."""
    memo = [None, None]

    def shares(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, bptt(g)
        return memo[1]
    return shares


def _step_rows(sizes):
    """Where each step's rows lie in a packed batch: (start, stop) pairs."""
    stops = np.cumsum(sizes)
    return list(zip((stops - sizes).tolist(), stops.tolist()))


def _sequence_of(sizes):
    """The sequence (its rank, longest first) of every row of a packed batch."""
    stops = np.cumsum(sizes)
    return np.arange(stops[-1]) - np.repeat(stops - sizes, sizes)


def _per_sequence(op, x, sizes):
    """Fold `op` (``np.add``, ``np.maximum``) over each sequence's steps of a
    packed batch, in time order: (sizes[0], ...), one row per sequence. A
    sequence's result does not depend on the other sequences."""
    out = x[: sizes[0]].copy()
    for lo, hi in _step_rows(sizes)[1:]:
        op(out[: hi - lo], x[lo:hi], out=out[: hi - lo])
    return out


def packed_sum(a, sizes):
    """Sum each sequence of a packed (P, d) batch over its steps: (sizes[0],
    d), one row per sequence in rank order."""
    a = _as_tensor(a)
    return _record(_per_sequence(np.add, a.data, sizes), a,
                   lambda g: g[_sequence_of(sizes)])


def packed_softmax(a, sizes):
    """Softmax of a packed (P,) batch of scores within each sequence."""
    a = _as_tensor(a)
    seq = _sequence_of(sizes)
    e = np.exp(a.data - _per_sequence(np.maximum, a.data, sizes)[seq])
    p = e / _per_sequence(np.add, e, sizes)[seq]
    return _record(p, a, lambda g: (gp := g * p) - p * _per_sequence(np.add, gp, sizes)[seq])


@_quiet_overflow
def gru_scan(pre, sizes, u_zr, u_n, reverse=False):
    """One direction of a GRU over a packed batch of sequences. Returns the
    (P, h) states, one per real step, as a single node.

    The batch is packed time-major, as by :func:`lexcite.nn.pack`: the
    sequences are ranked longest first, and step t holds the rows of the
    first ``sizes[t]`` of them, the ones longer than t, after the rows of
    step t - 1. `pre` (P, 3h) is the input projection of those rows, whose
    last axis holds the update, reset and candidate pre-activations. So each
    step computes only real rows, and no step carries a state through
    padding. `reverse` runs each sequence from its own last step to its
    first. The forward pass is per-step numpy in the order of the unfused
    layer; the backward pass is one BPTT loop whose result serves all three
    VJPs.
    """
    pre, u_zr, u_n = _as_tensor(pre), _as_tensor(u_zr), _as_tensor(u_n)
    rows, h3 = pre.data.shape
    h = h3 // 3
    uzr, un = u_zr.data, u_n.data
    record = _recording((pre, u_zr, u_n))
    dtype = np.result_type(pre.data, uzr, un)
    spans = _step_rows(sizes)
    order = spans[::-1] if reverse else spans
    data = np.empty((rows, h), dtype)
    if record:  # per step: gate activations, candidate and r * h
        zrs = np.empty((rows, 2 * h), dtype)
        cands = np.empty((rows, h), dtype)
        rhs = np.empty((rows, h), dtype)
    # a sequence's state stays at its rank; in reverse, the rows that start
    # at a step are still zero when they first join
    state = np.zeros((sizes[0], h), dtype)
    for lo, hi in order:
        last = state[: hi - lo]
        pre_t = pre.data[lo:hi]
        zr = _sigmoid(pre_t[:, : 2 * h] + last @ uzr)
        z = zr[:, :h]
        r = zr[:, h:]
        rh = r * last
        ncand = np.tanh(pre_t[:, 2 * h:] + rh @ un)
        new = (1.0 - z) * ncand + z * last
        if record:
            zrs[lo:hi], cands[lo:hi], rhs[lo:hi] = zr, ncand, rh
        state[: hi - lo] = new
        data[lo:hi] = new
    if not record:
        return _raw(data)

    def bptt(g):
        prev = np.zeros((rows, h), dtype)  # the state each step started from
        for (lo, hi), (plo, phi) in zip(order[1:], order):
            n = min(hi - lo, phi - plo)
            prev[lo : lo + n] = data[plo : plo + n]
        dpre = np.empty((rows, h3), dtype)
        carry = np.zeros((sizes[0], h), dtype)
        for lo, hi in reversed(order):
            dh = g[lo:hi] + carry[: hi - lo]
            zr, ncand, h_prev = zrs[lo:hi], cands[lo:hi], prev[lo:hi]
            z, r = zr[:, :h], zr[:, h:]
            d = dpre[lo:hi]
            d[:, 2 * h:] = dh * (1.0 - z) * (1.0 - ncand * ncand)
            drh = d[:, 2 * h:] @ un.T
            d[:, :h] = dh * (h_prev - ncand)
            d[:, h : 2 * h] = drh * h_prev
            d[:, : 2 * h] *= zr * (1.0 - zr)
            carry[: hi - lo] = dh * z + drh * r + d[:, : 2 * h] @ uzr.T
        d_uzr = prev.T @ dpre[:, : 2 * h]
        d_un = rhs.T @ dpre[:, 2 * h:]
        return dpre, d_uzr, d_un

    shares = _shared_shares(bptt)
    return _tracked(data, pre, lambda g: shares(g)[0], u_zr, lambda g: shares(g)[1],
                    u_n, lambda g: shares(g)[2])


@_quiet_overflow
def bilstm_scan(pre_fw, pre_bw, u_fw, u_bw):
    """Both directions of an LSTM in one time loop. `pre_fw` and `pre_bw`
    (N, T, 4h) are the directions' input projections, whose last axis holds
    the input, forget, cell and output gate pre-activations; `u_fw` and
    `u_bw` (h, 4h) are their recurrent matrices. Returns the (N, T, 2h)
    hidden states, the forward direction's then the backward one's, as a
    single node.

    Step j advances the forward direction at t = j and the backward one at
    t = T - 1 - j. Each direction's recurrent product is its own (N, h) @
    (h, 4h) GEMM, written into one (2, N, 4h) buffer, so it has the shape
    and the bits of a one-direction loop; the gate, cell and state
    arithmetic then runs once over both directions. Backward is one BPTT
    loop, over the same steps in reverse, whose result serves all four
    VJPs.
    """
    inputs = [_as_tensor(a) for a in (pre_fw, pre_bw, u_fw, u_bw)]
    pres, us = (inputs[0].data, inputs[1].data), (inputs[2].data, inputs[3].data)
    n, t_len, h4 = pres[0].shape
    h = h4 // 4
    record = _recording(inputs)
    dtype = np.result_type(*pres, *us)
    data = np.empty((n, t_len, 2 * h), dtype)
    # per step of both directions: the four gate activations and tanh of the
    # cell state, and the cell state after a zero start; without gradients,
    # one step's buffers, reused
    acts = np.empty((t_len if record else 1, 2, n, h4), dtype)
    tanh_cells = np.empty((t_len if record else 1, 2, n, h), dtype)
    if record:
        cells = np.zeros((t_len + 1, 2, n, h), dtype)
    gates = np.empty((2, n, h4), dtype)
    hs = np.zeros((2, n, h), dtype)
    cs = np.zeros((2, n, h), dtype)
    for j in range(t_len):
        back = t_len - 1 - j
        a, tc = (acts[j], tanh_cells[j]) if record else (acts[0], tanh_cells[0])
        np.matmul(hs[0], us[0], out=gates[0])
        np.matmul(hs[1], us[1], out=gates[1])
        gates[0] += pres[0][:, j]
        gates[1] += pres[1][:, back]
        # the sigmoid of every gate, then tanh over the cell gate's columns
        np.negative(gates, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(gates[..., 2 * h : 3 * h], out=a[..., 2 * h : 3 * h])
        cs *= a[..., h : 2 * h]
        cs += a[..., :h] * a[..., 2 * h : 3 * h]
        np.tanh(cs, out=tc)
        np.multiply(a[..., 3 * h:], tc, out=hs)
        data[:, j, :h] = hs[0]
        data[:, back, h:] = hs[1]
        if record:
            cells[j + 1] = cs
    if not record:
        return _raw(data)

    def bptt(grad):
        # the output gradient, and below it the pre-activation gradient, in
        # step order: entry j holds both directions' step j
        dh_out = np.empty((t_len, 2, n, h), dtype)
        dh_out[:, 0] = grad[:, :, :h].transpose(1, 0, 2)
        dh_out[:, 1] = grad[:, ::-1, h:].transpose(1, 0, 2)
        dpre = np.empty((t_len, 2, n, h4), dtype)
        dh_carry = np.zeros((2, n, h), dtype)
        dc_carry = np.zeros((2, n, h), dtype)
        for j in range(t_len - 1, -1, -1):
            a, tc, prev_c = acts[j], tanh_cells[j], cells[j]
            i, f, g, o = a[..., :h], a[..., h : 2 * h], a[..., 2 * h : 3 * h], a[..., 3 * h:]
            dh = dh_out[j]
            dh += dh_carry
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            d = dpre[j]
            d[..., :h] = dc * g * i * (1.0 - i)
            d[..., h : 2 * h] = dc * prev_c * f * (1.0 - f)
            d[..., 2 * h : 3 * h] = dc * i * (1.0 - g * g)
            d[..., 3 * h:] = dh * tc * o * (1.0 - o)
            dc_carry = dc * f
            np.matmul(d[0], us[0].T, out=dh_carry[0])
            np.matmul(d[1], us[1].T, out=dh_carry[1])
        # back to (N, T) order per direction: the state each step started
        # from, and the pre-activation gradients
        prev = np.zeros((2, n, t_len, h), dtype)
        prev[0, :, 1:] = data[:, :-1, :h]
        prev[1, :, :-1] = data[:, 1:, h:]
        dpres = [np.ascontiguousarray(dpre[:, 0].transpose(1, 0, 2)),
                 np.ascontiguousarray(dpre[::-1, 1].transpose(1, 0, 2))]
        rows = n * t_len
        dus = [p.reshape(rows, h).T @ d.reshape(rows, h4) for p, d in zip(prev, dpres)]
        return dpres + dus

    shares = _shared_shares(bptt)
    return _tracked(data, inputs[0], lambda g: shares(g)[0], inputs[1], lambda g: shares(g)[1],
                    inputs[2], lambda g: shares(g)[2], inputs[3], lambda g: shares(g)[3])
