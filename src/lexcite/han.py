"""Hierarchical attention text encoder shared by facts and statutes.

A document arrives as a padded (sentences x words) index grid, built by
:func:`lexcite.corpus.encode_corpus` at the extent of its call, whose mask
is a prefix in every row, so it amounts to word and sentence lengths. Words
are embedded, run through a bidirectional gated recurrence and
attention-pooled into sentence vectors; sentence vectors go through a second
recurrence and attention to yield one document embedding. Both levels run packed
(:func:`lexcite.nn.pack`): the word level on the real tokens of the real
sentences alone, the sentence level on each document's real sentences. No
padded cell is embedded, projected, run or attended, so padding cannot
influence the output, and a document's vector does not depend on how long the
other documents of its call are.

In training, inverted dropout scales the sentence vectors and the document
vector. The caller draws the multipliers per row at the sentence cap
(:meth:`TextEncoder.dropout_multipliers`) and hands each call its own rows;
each real sentence takes the multiplier of its own row and position. A row's
dropout therefore does not depend on the other documents of its call.
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

        `masks` marks the real words. Every row's words and sentences must be
        a prefix, so the masks amount to lengths; a mask with a gap is
        refused. Only real tokens are embedded, projected, run and attended:
        the word level packs the real sentences by word count and the
        sentence level packs the documents by sentence count
        (:func:`~lexcite.nn.pack`).

        `keep` is a pair from :meth:`dropout_multipliers` for these B rows, in
        training; each real sentence takes the multipliers of its own row and
        position. Without it the encoder runs without dropout.
        `return_weights` adds the word (B, S, W) and sentence (B, S)
        attention weights, zero at padding."""
        if grids.ndim != 3:
            raise ValueError("expected a batch of (sentences, words) grids")
        b, s_len, w_len = grids.shape
        n_words = _prefix_lengths(masks, "word")  # (B, S)
        n_sents = _prefix_lengths(n_words > 0, "sentence")  # (B,)
        if not n_sents.all():
            bad = np.flatnonzero(n_sents == 0)
            raise ValueError(f"all-padding grids at batch positions {bad.tolist()}")

        real = np.flatnonzero(n_words)  # b * S + s of every real sentence
        w_sizes, w_rows, w_steps = nn.pack(n_words.reshape(-1)[real])
        tokens = grids.reshape(b * s_len, w_len)[real[w_rows], w_steps]
        word_states = self.word_rnn(ad.embedding(self.embedding, tokens), w_sizes)
        sent_vecs, word_weights = nn.additive_attention(
            word_states, w_sizes, self.word_att_m, self.word_att_b, self.word_att_ctx)

        # the sentence vectors, from word-level rank order to the packed
        # sentence level
        s_sizes, s_rows, s_steps = nn.pack(n_sents)
        at = np.empty(b * s_len, dtype=np.intp)
        at[s_rows * s_len + s_steps] = np.arange(len(real))
        sent_vecs = ad.scatter_rows(sent_vecs, at[real[w_rows[: len(real)]]], len(real))
        if keep is not None:
            sent_vecs = ad.mul(sent_vecs, keep[0][s_rows, s_steps])
        sent_states = self.sent_rnn(sent_vecs, s_sizes)
        doc_vecs, sent_weights = nn.additive_attention(
            sent_states, s_sizes, self.sent_att_m, self.sent_att_b, self.sent_att_ctx)
        doc_vecs = ad.scatter_rows(doc_vecs, s_rows[:b], b)  # back to batch order
        if keep is not None:
            doc_vecs = ad.mul(doc_vecs, keep[1])

        if return_weights:
            word = np.zeros((b * s_len, w_len))
            word[real[w_rows], w_steps] = word_weights.data
            sentence = np.zeros((b, s_len))
            sentence[s_rows, s_steps] = sent_weights.data
            return doc_vecs, {"word": word.reshape(b, s_len, w_len), "sentence": sentence}
        return doc_vecs


def _prefix_lengths(masks: np.ndarray, unit: str) -> np.ndarray:
    """The lengths of prefix masks along their last axis; refuses a mask with
    padding before a real `unit`."""
    lengths = np.count_nonzero(masks, axis=-1)
    gaps = masks != (np.arange(masks.shape[-1]) < lengths[..., None])
    if gaps.any():
        bad = np.unique(np.nonzero(gaps)[0])
        raise ValueError(f"{unit} masks must be prefixes, with no padding before a real "
                         f"{unit}: batch positions {bad.tolist()}")
    return lengths

