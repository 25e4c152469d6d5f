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
    independent of trailing padding.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int, name: str):
        self.d_in = d_in
        self.hidden = hidden
        self.name = name
        self.params = {}
        for d in ("fw", "bw"):
            self.params[f"{name}.{d}.W"] = glorot_init(rng, (d_in, 3 * hidden))
            self.params[f"{name}.{d}.U_zr"] = glorot_init(rng, (hidden, 2 * hidden))
            self.params[f"{name}.{d}.U_n"] = glorot_init(rng, (hidden, hidden))
            self.params[f"{name}.{d}.b"] = zeros_init((3 * hidden,))

    def _direction(self, x: Tensor, mask: np.ndarray | None, d: str) -> list[Tensor]:
        n, t_len, _ = x.shape
        h = self.hidden
        w = self.params[f"{self.name}.{d}.W"]
        u_zr = self.params[f"{self.name}.{d}.U_zr"]
        u_n = self.params[f"{self.name}.{d}.U_n"]
        b = self.params[f"{self.name}.{d}.b"]

        # One big input projection for all steps.
        pre = ad.add(ad.matmul(ad.reshape(x, (n * t_len, self.d_in)), w), b)
        pre = ad.reshape(pre, (n, t_len, 3 * h))

        order = range(t_len) if d == "fw" else range(t_len - 1, -1, -1)
        state = Tensor(np.zeros((n, h)))
        outs: list[Tensor | None] = [None] * t_len
        for t in order:
            pre_t = pre[:, t, :]
            zr = ad.sigmoid(ad.add(pre_t[:, : 2 * h], ad.matmul(state, u_zr)))
            z = zr[:, :h]
            r = zr[:, h:]
            ncand = ad.tanh(ad.add(pre_t[:, 2 * h :], ad.matmul(ad.mul(r, state), u_n)))
            new = ad.add(ad.mul(ad.sub(1.0, z), ncand), ad.mul(z, state))
            if mask is not None:
                m = mask[:, t : t + 1].astype(np.float64)
                new = ad.add(ad.mul(new, m), ad.mul(state, 1.0 - m))
            state = new
            outs[t] = state
        return outs  # type: ignore[return-value]

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        fw = self._direction(x, mask, "fw")
        bw = self._direction(x, mask, "bw")
        return ad.concat([ad.stack(fw, axis=1), ad.stack(bw, axis=1)], axis=2)


class BiLSTM:
    """Bidirectional LSTM over (N, T, d_in); output width ``2 * hidden``."""

    def __init__(self, rng: np.random.Generator, d_in: int, hidden: int, name: str):
        self.d_in = d_in
        self.hidden = hidden
        self.name = name
        self.params = {}
        for d in ("fw", "bw"):
            self.params[f"{name}.{d}.W"] = glorot_init(rng, (d_in, 4 * hidden))
            self.params[f"{name}.{d}.U"] = glorot_init(rng, (hidden, 4 * hidden))
            self.params[f"{name}.{d}.b"] = zeros_init((4 * hidden,))

    def _direction(self, x: Tensor, d: str) -> list[Tensor]:
        n, t_len, _ = x.shape
        h = self.hidden
        w = self.params[f"{self.name}.{d}.W"]
        u = self.params[f"{self.name}.{d}.U"]
        b = self.params[f"{self.name}.{d}.b"]

        pre = ad.add(ad.matmul(ad.reshape(x, (n * t_len, self.d_in)), w), b)
        pre = ad.reshape(pre, (n, t_len, 4 * h))

        order = range(t_len) if d == "fw" else range(t_len - 1, -1, -1)
        hs = Tensor(np.zeros((n, h)))
        cs = Tensor(np.zeros((n, h)))
        outs: list[Tensor | None] = [None] * t_len
        for t in order:
            gates = ad.add(pre[:, t, :], ad.matmul(hs, u))
            i = ad.sigmoid(gates[:, :h])
            f = ad.sigmoid(gates[:, h : 2 * h])
            g = ad.tanh(gates[:, 2 * h : 3 * h])
            o = ad.sigmoid(gates[:, 3 * h :])
            cs = ad.add(ad.mul(f, cs), ad.mul(i, g))
            hs = ad.mul(o, ad.tanh(cs))
            outs[t] = hs
        return outs  # type: ignore[return-value]

    def __call__(self, x: Tensor) -> Tensor:
        fw = self._direction(x, "fw")
        bw = self._direction(x, "bw")
        return ad.concat([ad.stack(fw, axis=1), ad.stack(bw, axis=1)], axis=2)


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


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an RNG")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return ad.mul(x, keep)


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
