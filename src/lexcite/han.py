"""Hierarchical attention text encoder shared by facts and statutes.

A document arrives as a padded (sentences x words) index grid. Words are
embedded, run through a bidirectional gated recurrence and attention-pooled
into sentence vectors; sentence vectors go through a second recurrence and
attention to yield one document embedding. Padded positions carry hidden
state through unchanged and receive exactly zero attention mass, so trailing
padding cannot influence the output.

In training, inverted dropout scales the sentence vectors and the document
vector. The caller draws the multipliers per row at the sentence cap
(:meth:`TextEncoder.dropout_multipliers`) and hands each call its own rows;
the call cuts them to its own sentence extent. A row's dropout therefore does
not depend on how long the other documents of its call are.
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

    def dropout_multipliers(self, rng: np.random.Generator, n_rows: int, max_sents: int):
        """Inverted-dropout multipliers for `n_rows` documents, (n_rows,
        max_sents, out_dim) for the sentence vectors and (n_rows, out_dim) for
        the document vectors: 0 with probability `dropout`, else
        1 / (1 - dropout). Drawn at the sentence cap, so a row's draws never
        depend on the other rows' lengths."""
        p = self.dropout
        sent = (rng.random((n_rows, max_sents, self.out_dim)) >= p) / (1.0 - p)
        doc = (rng.random((n_rows, self.out_dim)) >= p) / (1.0 - p)
        return sent, doc

    def __call__(self, grids: np.ndarray, masks: np.ndarray,
                 keep: tuple[np.ndarray, np.ndarray] | None = None,
                 return_weights: bool = False):
        """Encode (B, S, W) index grids into (B, out_dim) document vectors.

        `keep` is a pair from :meth:`dropout_multipliers` for these B rows, in
        training; the sentence multipliers are cut to the grids' S sentences.
        Without it the encoder runs without dropout."""
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
        if keep is not None:
            sent_vecs = ad.mul(sent_vecs, keep[0][:, :s_len])
        sent_states = self.sent_rnn(sent_vecs, sent_present.astype(np.float64))
        doc_vecs, sent_weights = nn.additive_attention(
            sent_states, self.sent_att_m, self.sent_att_b, self.sent_att_ctx, mask=sent_present)
        if keep is not None:
            doc_vecs = ad.mul(doc_vecs, keep[1])

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
