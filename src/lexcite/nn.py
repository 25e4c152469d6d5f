"""Recurrent cells, attention helpers, initialization and the optimizer.

Everything here operates on :class:`~lexcite.autodiff.Tensor` values.
Lengths, step sizes and indices are plain numpy arrays (no gradient flows
through them). The gated recurrence and the attention run on packed batches:
the real steps of every sequence, time-major, longest sequence first.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


def uniform_init(rng: np.random.Generator, shape, scale: float = 0.1) -> Parameter:
    return Parameter(rng.uniform(-scale, scale, size=shape))


def glorot_init(rng: np.random.Generator, shape) -> Parameter:
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Parameter(rng.uniform(-bound, bound, size=shape))


def zeros_init(shape) -> Parameter:
    return Parameter(np.zeros(shape))


def pack(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack sequences of the given lengths (each at least 1) time-major,
    longest first, as PyTorch's ``pack_padded_sequence`` does.

    Returns ``(sizes, rows, steps)``: ``sizes[t]`` counts the sequences
    longer than t, and packed row k is step ``steps[k]`` of sequence
    ``rows[k]``, an index into `lengths`. The ranking is a stable sort, so
    the first ``sizes[0]`` entries of `rows` list the sequences in rank
    order and equal lengths keep their input order."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    live = np.arange(lengths[order[0]])[:, None] < lengths[order][None, :]
    steps, rank = np.nonzero(live)
    return live.sum(axis=1), order[rank], steps


class BiGRU:
    """Bidirectional gated recurrent layer over a packed batch of sequences
    (see :func:`pack`): (P, d_in) rows in, (P, 2 * hidden) out.

    Hidden size is per direction; the output concatenates both directions.
    Only real steps are computed, so a sequence's states do not depend on
    the other sequences' lengths. Each direction is one input projection
    over the P rows and one :func:`~lexcite.autodiff.gru_scan` node, so the
    tape holds a fixed number of nodes whatever the sequence length.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int, name: str):
        self.name = name
        self.params = {}
        for d in ("fw", "bw"):
            self.params[f"{name}.{d}.W"] = glorot_init(rng, (d_in, 3 * hidden))
            self.params[f"{name}.{d}.U_zr"] = glorot_init(rng, (hidden, 2 * hidden))
            self.params[f"{name}.{d}.U_n"] = glorot_init(rng, (hidden, hidden))
            self.params[f"{name}.{d}.b"] = zeros_init((3 * hidden,))

    def _direction(self, x: Tensor, sizes: np.ndarray, d: str) -> Tensor:
        p = self.params
        pre = ad.affine(x, p[f"{self.name}.{d}.W"], p[f"{self.name}.{d}.b"])
        return ad.gru_scan(pre, sizes, p[f"{self.name}.{d}.U_zr"], p[f"{self.name}.{d}.U_n"],
                           reverse=d == "bw")

    def __call__(self, x: Tensor, sizes: np.ndarray) -> Tensor:
        return ad.concat([self._direction(x, sizes, "fw"), self._direction(x, sizes, "bw")],
                         axis=1)


class BiLSTM:
    """Bidirectional LSTM over (N, T, d_in); output width ``2 * hidden``.

    Like :class:`BiGRU`, each direction is one input projection and one
    :func:`~lexcite.autodiff.lstm_scan` node.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int, name: str):
        self.name = name
        self.params = {}
        for d in ("fw", "bw"):
            self.params[f"{name}.{d}.W"] = glorot_init(rng, (d_in, 4 * hidden))
            self.params[f"{name}.{d}.U"] = glorot_init(rng, (hidden, 4 * hidden))
            self.params[f"{name}.{d}.b"] = zeros_init((4 * hidden,))

    def _direction(self, x: Tensor, d: str) -> Tensor:
        p = self.params
        pre = _project(x, p[f"{self.name}.{d}.W"], p[f"{self.name}.{d}.b"])
        return ad.lstm_scan(pre, p[f"{self.name}.{d}.U"], reverse=d == "bw")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.concat([self._direction(x, "fw"), self._direction(x, "bw")], axis=2)


def _project(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The input projection of every step at once: (N, T, d_in) -> (N, T, k)."""
    n, t_len, d_in = x.shape
    pre = ad.affine(ad.reshape(x, (n * t_len, d_in)), w, b)
    return ad.reshape(pre, (n, t_len, w.shape[1]))


def additive_attention(h: Tensor, sizes: np.ndarray, m: Tensor, b: Tensor, context: Tensor):
    """tanh-projected attention pooling used at each level of the model.

    h: a packed (P, d) batch (see :func:`pack`); m: (d, d_ctx); b: (d_ctx,);
    context: static (d_ctx,). Each sequence pools over its own steps.
    Returns (pooled (sizes[0], d) in rank order, weights (P,) packed).
    """
    rows = h.shape[0]
    u = ad.tanh(ad.affine(h, m, b))
    scores = ad.reshape(ad.matmul(u, ad.reshape(context, (m.shape[1], 1))), (rows,))
    weights = ad.packed_softmax(scores, sizes)
    pooled = ad.packed_sum(ad.mul(h, ad.reshape(weights, (rows, 1))), sizes)
    return pooled, weights


class Adam:
    """Adaptive-moment gradient descent over a name -> Parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * (p.grad * p.grad)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
