"""Shared matching function between a fact embedding and the section set.

Section embeddings are contextualized in statute order by a bidirectional
LSTM, attention-pooled into one set vector, concatenated with the fact
embedding and mapped through a sigmoid classifier to per-section scores.
One parameter set serves all three score types (attribute, structural,
alignment); only the embeddings fed in differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor


@dataclass
class ScoreTriple:
    """Per-fact score vectors in (0, 1); structural is None at inference."""

    attribute: Tensor
    alignment: Tensor
    structural: Tensor | None = None


class MatchScorer:
    def __init__(self, rng: np.random.Generator, n_sections: int, d_prime: int, d_s: int):
        self.n_sections = n_sections
        self.d_prime = d_prime
        self.d_s = d_s

        self.seq = nn.BiLSTM(rng, d_prime, d_prime, "scorer.seq")
        self.seq_proj = nn.glorot_init(rng, (2 * d_prime, d_prime))
        self.seq_proj_b = nn.zeros_init((d_prime,))
        self.att_m = nn.glorot_init(rng, (d_prime, d_s))
        self.att_b = nn.zeros_init((d_s,))
        self.att_ctx = nn.glorot_init(rng, (d_prime, d_s))
        self.classifier_w = nn.glorot_init(rng, (2 * d_prime, n_sections))
        self.classifier_b = nn.zeros_init((n_sections,))

    def parameters(self) -> dict[str, Tensor]:
        params = {
            "scorer.seq_proj": self.seq_proj,
            "scorer.seq_proj_b": self.seq_proj_b,
            "scorer.att_m": self.att_m,
            "scorer.att_b": self.att_b,
            "scorer.att_ctx": self.att_ctx,
            "scorer.classifier_w": self.classifier_w,
            "scorer.classifier_b": self.classifier_b,
        }
        params.update(self.seq.params)
        return params

    # -- pipeline stages ---------------------------------------------------------

    def contextualize_sections(self, section_embeddings: Tensor) -> Tensor:
        """(n_sets, n_sections, d') -> same shape, sequence-contextualized.

        The input order must be the hierarchy file order; the recurrence
        exploits that statutes have a defined sequential order.
        """
        n_sets, n_sec, _ = section_embeddings.shape
        states = self.seq(section_embeddings)  # (n_sets, n_sec, 2d')
        flat = ad.reshape(states, (n_sets * n_sec, 2 * self.d_prime))
        proj = ad.affine(flat, self.seq_proj, self.seq_proj_b)
        return ad.reshape(proj, (n_sets, n_sec, self.d_prime))

    def pool_sections(self, contextualized: Tensor, context: Tensor):
        """Attention-pool contextualized sections (n_sec, d').

        `context` holds one pooling context per fact (batch, d_s), as made by
        `fact_context`. Returns (pooled (batch, d'), gamma (batch, n_sec)).
        """
        u = ad.tanh(ad.affine(contextualized, self.att_m, self.att_b))  # (n_sec, d_s)
        scores = ad.matmul(context, u.transpose())  # (batch, n_sec)
        gamma = ad.softmax(scores, axis=1)
        pooled = ad.matmul(gamma, contextualized)
        return pooled, gamma

    def score(self, h_f: Tensor, h_set: Tensor) -> Tensor:
        """sigmoid(W [h_f || h_set] + b) -> (batch, n_sections) in (0, 1)."""
        cat = ad.concat([h_f, h_set], axis=1)
        return ad.sigmoid(ad.affine(cat, self.classifier_w, self.classifier_b))

    def fact_context(self, h_f: Tensor) -> Tensor:
        """Pooling contexts (batch, d_s) derived from fact embeddings (batch, d')."""
        return ad.matmul(h_f, self.att_ctx)

    def score_sections(self, h_f: Tensor, contextualized: Tensor) -> tuple[Tensor, Tensor]:
        """Attribute and alignment scores of fact embeddings (batch, d')
        against the contextualized (attribute, structural) section pair
        (2, n_sec, d'). Both pool with the context derived from `h_f`.
        Training and inductive prediction share this step."""
        context = self.fact_context(h_f)
        pooled_attr, _ = self.pool_sections(contextualized[0], context)
        pooled_struct, _ = self.pool_sections(contextualized[1], context)
        return self.score(h_f, pooled_attr), self.score(h_f, pooled_struct)

    def score_triple(self, h_f_attr: Tensor, h_s_attr: Tensor, h_s_struct: Tensor,
                     h_f_struct: Tensor | None = None) -> ScoreTriple:
        """Attribute, alignment and (training only) structural scores.

        Each application of the scorer derives its pooling context from the
        fact embedding it scores with: the attribute and alignment scores
        share the attribute-derived context, the structural score uses the
        structural fact embedding (so its gradients stay on the graph side).
        """
        contextualized = self.contextualize_sections(ad.stack([h_s_attr, h_s_struct], axis=0))
        triple = ScoreTriple(*self.score_sections(h_f_attr, contextualized))
        if h_f_struct is not None:
            struct_context = self.fact_context(h_f_struct)
            pooled_for_struct, _ = self.pool_sections(contextualized[1], struct_context)
            triple.structural = self.score(h_f_struct, pooled_for_struct)
        return triple
