"""Hierarchical attention text encoder shared by facts and statutes.

A document arrives as a padded (sentences x words) index grid. Words are
embedded, run through a bidirectional gated recurrence and attention-pooled
into sentence vectors; sentence vectors go through a second recurrence and
attention to yield one document embedding. Padded positions carry hidden
state through unchanged and receive exactly zero attention mass, so trailing
padding cannot influence the output.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Tensor


class TextEncoder:
    def __init__(self, rng: np.random.Generator, vocab_size: int, embed_dim: int, out_dim: int,
                 dropout: float = 0.5, pretrained: np.ndarray | None = None,
                 pretrained_mask: np.ndarray | None = None):
        if out_dim % 2:
            raise ValueError("output dimension must be even (bidirectional halves)")
        self.embed_dim = embed_dim
        self.out_dim = out_dim
        self.dropout = dropout

        table = rng.uniform(-0.1, 0.1, size=(vocab_size, embed_dim))
        if pretrained is not None:
            mask = pretrained_mask if pretrained_mask is not None else np.ones(vocab_size, dtype=bool)
            table[mask] = pretrained[mask]
        table[0] = 0.0  # padding row
        self.embedding = Parameter(table)

        half = out_dim // 2
        self.word_rnn = nn.BiGRU(rng, embed_dim, half, "han.word_rnn")
        self.sent_rnn = nn.BiGRU(rng, out_dim, half, "han.sent_rnn")
        self.word_att_m = nn.glorot_init(rng, (out_dim, out_dim))
        self.word_att_b = nn.zeros_init((out_dim,))
        self.word_att_ctx = nn.uniform_init(rng, (out_dim,))
        self.sent_att_m = nn.glorot_init(rng, (out_dim, out_dim))
        self.sent_att_b = nn.zeros_init((out_dim,))
        self.sent_att_ctx = nn.uniform_init(rng, (out_dim,))

    def parameters(self) -> dict[str, Tensor]:
        params = {
            "han.embedding": self.embedding,
            "han.word_att.m": self.word_att_m,
            "han.word_att.b": self.word_att_b,
            "han.word_att.ctx": self.word_att_ctx,
            "han.sent_att.m": self.sent_att_m,
            "han.sent_att.b": self.sent_att_b,
            "han.sent_att.ctx": self.sent_att_ctx,
        }
        params.update(self.word_rnn.params)
        params.update(self.sent_rnn.params)
        return params

    def __call__(self, grids: np.ndarray, masks: np.ndarray, training: bool = False,
                 dropout_rng: np.random.Generator | None = None, return_weights: bool = False):
        """Encode (B, S, W) index grids into (B, out_dim) document vectors."""
        if grids.ndim != 3:
            raise ValueError("expected a batch of (sentences, words) grids")
        b, s_len, w_len = grids.shape
        sent_present = masks.any(axis=2)
        if not sent_present.any(axis=1).all():
            bad = np.flatnonzero(~sent_present.any(axis=1))
            raise ValueError(f"all-padding grids at batch positions {bad.tolist()}")

        flat_idx = grids.reshape(b * s_len, w_len)
        word_mask = masks.reshape(b * s_len, w_len)
        embedded = ad.embedding(self.embedding, flat_idx)
        word_states = self.word_rnn(embedded, word_mask.astype(np.float64))
        sent_vecs, word_weights = nn.additive_attention(
            word_states, self.word_att_m, self.word_att_b, self.word_att_ctx, mask=word_mask)

        sent_vecs = ad.reshape(sent_vecs, (b, s_len, self.out_dim))
        sent_vecs = nn.dropout(sent_vecs, self.dropout, dropout_rng, training)
        sent_states = self.sent_rnn(sent_vecs, sent_present.astype(np.float64))
        doc_vecs, sent_weights = nn.additive_attention(
            sent_states, self.sent_att_m, self.sent_att_b, self.sent_att_ctx, mask=sent_present)
        doc_vecs = nn.dropout(doc_vecs, self.dropout, dropout_rng, training)

        if return_weights:
            return doc_vecs, {
                "word": word_weights.data.reshape(b, s_len, w_len),
                "sentence": sent_weights.data,
            }
        return doc_vecs


def trim_to_extent(grids: np.ndarray, masks: np.ndarray):
    """Cut (B, S, W) grids after the last real sentence and word of any row.

    Trailing padding only carries state through, so this saves work without
    changing the encoding beyond rounding. All-padding input keeps one cell,
    so the encoder still rejects it."""
    s_len = int(np.max(np.flatnonzero(masks.any(axis=(0, 2))), initial=0)) + 1
    w_len = int(np.max(np.flatnonzero(masks.any(axis=(0, 1))), initial=0)) + 1
    return grids[:, :s_len, :w_len], masks[:, :s_len, :w_len]
