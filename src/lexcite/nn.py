"""Recurrent cells, attention helpers, initialization and the optimizer.

Everything here operates on :class:`~lexcite.autodiff.Tensor` values. Masks
and indices are plain numpy arrays (no gradient flows through them).
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


class BiGRU:
    """Bidirectional gated recurrent layer over (N, T, d_in) sequences.

    Hidden size is per direction; the output concatenates both directions,
    so it has width ``2 * hidden``. Padded steps (mask 0) carry the hidden
    state through unchanged, which makes outputs at real positions exactly
    independent of trailing padding. Each direction is one batched input
    projection and one :func:`~lexcite.autodiff.gru_scan` node, so the tape
    holds a fixed number of nodes whatever the sequence length.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int, name: str):
        self.name = name
        self.params = {}
        for d in ("fw", "bw"):
            self.params[f"{name}.{d}.W"] = glorot_init(rng, (d_in, 3 * hidden))
            self.params[f"{name}.{d}.U_zr"] = glorot_init(rng, (hidden, 2 * hidden))
            self.params[f"{name}.{d}.U_n"] = glorot_init(rng, (hidden, hidden))
            self.params[f"{name}.{d}.b"] = zeros_init((3 * hidden,))

    def _direction(self, x: Tensor, mask: np.ndarray, d: str) -> Tensor:
        p = self.params
        pre = _project(x, p[f"{self.name}.{d}.W"], p[f"{self.name}.{d}.b"])
        return ad.gru_scan(pre, mask, p[f"{self.name}.{d}.U_zr"], p[f"{self.name}.{d}.U_n"],
                           reverse=d == "bw")

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        return ad.concat([self._direction(x, mask, "fw"), self._direction(x, mask, "bw")], axis=2)


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
    pre = ad.add(ad.matmul(ad.reshape(x, (n * t_len, d_in)), w), b)
    return ad.reshape(pre, (n, t_len, w.shape[1]))


def additive_attention(h: Tensor, m: Tensor, b: Tensor, context: Tensor,
                       mask: np.ndarray | None = None):
    """tanh-projected attention pooling used at each level of the model.

    h: (N, T, d); m: (d, d_ctx); b: (d_ctx,); context: static (d_ctx,).
    Returns (pooled (N, d), weights (N, T)).
    """
    n, t_len, d = h.shape
    u = ad.tanh(ad.add(ad.matmul(ad.reshape(h, (n * t_len, d)), m), b))
    scores = ad.reshape(ad.matmul(u, ad.reshape(context, (m.shape[1], 1))), (n, t_len))
    weights = ad.masked_softmax(scores, mask=mask, axis=1)
    pooled = ad.tsum(ad.mul(h, ad.reshape(weights, (n, t_len, 1))), axis=1)
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
