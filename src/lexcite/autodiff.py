"""Reverse-mode automatic differentiation on numpy arrays.

A small tape engine. Every operation returns a :class:`Tensor`. An op states
only its forward value and, for each input, a vector-Jacobian product (VJP)
that maps the output's gradient to that input's share; :func:`_tracked` is
the one constructor of such recorded nodes. There is one accumulation rule,
and :meth:`Tensor.backward` alone applies it: it skips inputs that need no
gradient, makes an input's first whole share its gradient buffer and adds
later shares to it (``+=``); a share that lands at the node's index
(``getitem``, ``embedding``) goes into a zero buffer with ``np.add.at``. So
shares through a repeated index or a reused input all add up. A first share
the VJP made fresh (a writeable float64 array of the input's shape that owns
its data) is adopted as the buffer; the node's own gradient, a view or a
broadcast is copied, so that no later ``+=`` writes through it. All data is
float64; gradient checks against central finite differences are part of the
test suite, so the engine is deliberately free of any reduced-precision
shortcuts.

Backward consumes the graph it walks: each node leaves the topological list
as it is run, and an interior node then drops its inputs and VJPs, and with
them the forward arrays the VJPs captured. A node nobody holds is freed,
gradient and all; one the caller holds keeps its ``data`` and ``grad``. A
consumed node's ``_parents`` is ``None`` (a leaf's is ``()``), and a
``backward()`` that reaches it raises ``RuntimeError`` rather than leave the
parameters' gradients silently stale.

Ops test whether anything is recording before they build a VJP: when no
input requires a gradient, or inside :func:`no_grad`, they return a plain
value and create no closure, which matters because finite-difference checks
re-run forward passes thousands of times.

The recurrences are whole-op nodes: :func:`gru_scan` and :func:`lstm_scan`
run one direction's time loop in numpy and record a single node for all of
its steps, so the tape does not grow with sequence length. Their VJPs share
one backprop-through-time pass, run on the first VJP call for a given output
gradient; the parameters' gradients then come from one GEMM over the stacked
states, not one per step. :func:`gru_scan` runs on a packed batch: only each
sequence's real steps, time-major, longest sequence first, as
:func:`lexcite.nn.pack` lays them out. :func:`packed_softmax` and
:func:`packed_sum` pool such a batch per sequence.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_index")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
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
        self.grad = np.asarray(grad, dtype=np.float64)
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
    is: a fresh float64 array of the input's shape that owns its data and is
    writeable. The node's own gradient `g`, views and broadcasts are not:
    later shares are added into the buffer in place."""
    return (share is not g and isinstance(share, np.ndarray) and share.flags.owndata
            and share.flags.writeable and share.shape == like.shape
            and share.dtype == np.float64)


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
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, index, share)
        elif x.grad is None:
            if _adoptable(share, g, x.data):
                x.grad = share
            else:
                x.grad = np.empty_like(x.data)
                x.grad[...] = share
        else:
            x.grad += share


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
    return _tracked(data, a, lambda g: _unbroadcast(g, a.data.shape),
                    b, lambda g: _unbroadcast(g, b.data.shape))


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)
    return _tracked(data, a, lambda g: _unbroadcast(g, a.data.shape),
                    b, lambda g: _unbroadcast(-g, b.data.shape))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)
    return _tracked(data, a, lambda g: _unbroadcast(g * b.data, a.data.shape),
                    b, lambda g: _unbroadcast(g * a.data, b.data.shape))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands; reshape first")
    data = a.data @ b.data
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return _raw(data)
    return _tracked(data, a, lambda g: g @ b.data.T, b, lambda g: a.data.T @ g)


def affine(x, w, b):
    """``x @ w + b`` for a 2-D x and a 1-D bias b, with the bias added in
    place into the product, so no second array of its size is made."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("affine expects 2-D operands; reshape first")
    data = x.data @ w.data
    data += b.data
    if not (_grad_enabled and (x.requires_grad or w.requires_grad or b.requires_grad)):
        return _raw(data)
    return _tracked(data, x, lambda g: g @ w.data.T, w, lambda g: x.data.T @ g,
                    b, lambda g: g.sum(axis=0))


# -- elementwise unary --------------------------------------------------------


def log(a):
    a = _as_tensor(a)
    data = np.log(a.data)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    return _tracked(data, a, lambda g: g / a.data)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    if not (_grad_enabled and a.requires_grad):
        return _raw(out_data)
    return _tracked(out_data, a, lambda g: g * (1.0 - out_data * out_data))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a):
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)
    if not (_grad_enabled and a.requires_grad):
        return _raw(out_data)
    return _tracked(out_data, a, lambda g: g * out_data * (1.0 - out_data))


def relu(a):
    a = _as_tensor(a)
    keep = a.data > 0
    data = np.where(keep, a.data, 0.0)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    return _tracked(data, a, lambda g: g * keep)


def leaky_relu(a, slope=0.01):
    a = _as_tensor(a)
    factor = np.where(a.data > 0, 1.0, slope)
    data = a.data * factor
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    return _tracked(data, a, lambda g: g * factor)


def clip(a, lo, hi):
    """Clamp values; gradient passes only through unclamped entries."""
    a = _as_tensor(a)
    data = np.clip(a.data, lo, hi)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    inside = (a.data > lo) & (a.data < hi)
    return _tracked(data, a, lambda g: g * inside)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    if axis is None:
        return _tracked(data, a, lambda g: g)
    return _tracked(data, a, lambda g: np.broadcast_to(
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
    if not (_grad_enabled and a.requires_grad):
        return _raw(p)
    return _tracked(p, a, lambda g: (gp := g * p) - p * gp.sum(axis=axis, keepdims=True))


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape):
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    orig = a.data.shape
    return _tracked(data, a, lambda g: g.reshape(orig))


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    data = a.data.transpose(axes)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    inv = np.argsort(axes)
    return _tracked(data, a, lambda g: g.transpose(inv))


def getitem(a, key):
    a = _as_tensor(a)
    data = a.data[key]
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    return _tracked(data, a, lambda g: g, index=key)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return _raw(data)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % data.ndim)
    inputs = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        inputs += (t, lambda g, part=lead + (slice(lo, hi),): g[part])
    return _tracked(data, *inputs)


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return _raw(data)
    inputs = []
    for i, t in enumerate(tensors):
        inputs += (t, lambda g, i=i: np.take(g, i, axis=axis))
    return _tracked(data, *inputs)


# -- gather / scatter ---------------------------------------------------------


def embedding(table, idx):
    """Row lookup: `table` is (V, E); `idx` any integer array -> (*idx, E)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    data = table.data[idx]
    if not (_grad_enabled and table.requires_grad):
        return _raw(data)
    width = table.data.shape[-1]
    return _tracked(data, table, lambda g: g.reshape(-1, width), index=idx.reshape(-1))


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
    return _tracked(data, values, lambda g: g[idx])


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


def _started_from(states, reverse):
    """The state each step of a scan started from: the (N, T, h) states
    moved one step along the processing order, with zeros at the first."""
    prev = np.zeros_like(states)
    if reverse:
        prev[:, :-1] = states[:, 1:]
    else:
        prev[:, 1:] = states[:, :-1]
    return prev


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
    data = _per_sequence(np.add, a.data, sizes)
    if not (_grad_enabled and a.requires_grad):
        return _raw(data)
    seq = _sequence_of(sizes)
    return _tracked(data, a, lambda g: g[seq])


def packed_softmax(a, sizes):
    """Softmax of a packed (P,) batch of scores within each sequence."""
    a = _as_tensor(a)
    seq = _sequence_of(sizes)
    e = np.exp(a.data - _per_sequence(np.maximum, a.data, sizes)[seq])
    p = e / _per_sequence(np.add, e, sizes)[seq]
    if not (_grad_enabled and a.requires_grad):
        return _raw(p)
    return _tracked(p, a, lambda g: (gp := g * p) - p * _per_sequence(np.add, gp, sizes)[seq])


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
    record = _grad_enabled and (pre.requires_grad or u_zr.requires_grad or u_n.requires_grad)
    spans = _step_rows(sizes)
    order = spans[::-1] if reverse else spans
    data = np.empty((rows, h))
    if record:  # per step: gate activations, candidate and r * h
        zrs = np.empty((rows, 2 * h))
        cands = np.empty((rows, h))
        rhs = np.empty((rows, h))
    # a sequence's state stays at its rank; in reverse, the rows that start
    # at a step are still zero when they first join
    state = np.zeros((sizes[0], h))
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
        prev = np.zeros((rows, h))  # the state each step started from
        for (lo, hi), (plo, phi) in zip(order[1:], order):
            n = min(hi - lo, phi - plo)
            prev[lo : lo + n] = data[plo : plo + n]
        dpre = np.empty((rows, h3))
        carry = np.zeros((sizes[0], h))
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


def lstm_scan(pre, u, reverse=False):
    """One direction of an LSTM over the input projection `pre` (N, T, 4h),
    whose last axis holds the input, forget, cell and output gate
    pre-activations. Returns the (N, T, h) hidden states as a single node;
    like :func:`gru_scan`, forward is per-step numpy and backward is one
    BPTT loop shared by both VJPs.
    """
    pre, u = _as_tensor(pre), _as_tensor(u)
    n, t_len, h4 = pre.data.shape
    h = h4 // 4
    ud = u.data
    record = _grad_enabled and (pre.requires_grad or u.requires_grad)
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    data = np.empty((n, t_len, h))
    if record:  # per step: cell state, the four gate activations and tanh c
        cells = np.empty((n, t_len, h))
        acts = np.empty((n, t_len, h4))
        tanh_cells = np.empty((n, t_len, h))
    hs = np.zeros((n, h))
    cs = np.zeros((n, h))
    for t in order:
        gates = pre.data[:, t, :] + hs @ ud
        i = _sigmoid(gates[:, :h])
        f = _sigmoid(gates[:, h : 2 * h])
        g = np.tanh(gates[:, 2 * h : 3 * h])
        o = _sigmoid(gates[:, 3 * h:])
        cs = f * cs + i * g
        tc = np.tanh(cs)
        hs = o * tc
        data[:, t] = hs
        if record:
            cells[:, t], tanh_cells[:, t] = cs, tc
            acts[:, t] = np.concatenate((i, f, g, o), axis=1)
    if not record:
        return _raw(data)

    def bptt(grad):
        prev_h, prev_c = _started_from(data, reverse), _started_from(cells, reverse)
        dpre = np.empty((n, t_len, h4))
        dh_carry = np.zeros((n, h))
        dc_carry = np.zeros((n, h))
        for t in reversed(order):
            act, tc = acts[:, t], tanh_cells[:, t]
            i, f, g, o = act[:, :h], act[:, h : 2 * h], act[:, 2 * h : 3 * h], act[:, 3 * h:]
            dh = grad[:, t] + dh_carry
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            d = dpre[:, t]
            d[:, :h] = dc * g * i * (1.0 - i)
            d[:, h : 2 * h] = dc * prev_c[:, t] * f * (1.0 - f)
            d[:, 2 * h : 3 * h] = dc * i * (1.0 - g * g)
            d[:, 3 * h:] = dh * tc * o * (1.0 - o)
            dc_carry = dc * f
            dh_carry = d @ ud.T
        rows = n * t_len
        return dpre, prev_h.reshape(rows, h).T @ dpre.reshape(rows, h4)

    shares = _shared_shares(bptt)
    return _tracked(data, pre, lambda g: shares(g)[0], u, lambda g: shares(g)[1])
