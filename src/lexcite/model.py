"""The complete fact-to-statute model: text encoder + structural encoder +
shared scorer.

Training forward passes score a batch of facts against the full section set
three ways (attribute, structural, alignment). Inference drops everything
fact-side-structural: a test fact is scored purely from its text plus the
sections' graph-derived embeddings, which is what makes prediction inductive.
Both encode the sections in one method, `encode_sections`, and score in one
step, `MatchScorer.score_triple`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .corpus import StatuteHierarchy, Vocabulary, encode_corpus
from .graph import HeteroGraph, default_schemas
from .han import TextEncoder
from .scorer import MatchScorer, ScoreTriple
from .structural import LookupEncoder, MetapathEncoder

if TYPE_CHECKING:
    from .training import TrainingConfig

# The dtype a new model's parameters take, and so the dtype it trains and
# predicts in (the engine follows its data). A model widened to float64, or
# loaded from a float64 checkpoint, computes in float64.
PARAM_DTYPE = np.float32


class Model:
    """Owns the run's inputs: the TrainingConfig it is built from (kept as
    `config`), the vocabulary, the citation graph and the statute hierarchy,
    whose section texts it encodes once at construction, at their extent.
    Its parameters are drawn as the components draw them and then cast to
    PARAM_DTYPE."""

    def __init__(self, rng: np.random.Generator, config: TrainingConfig, vocab: Vocabulary,
                 graph: HeteroGraph, hierarchy: StatuteHierarchy,
                 pretrained: np.ndarray | None = None,
                 pretrained_mask: np.ndarray | None = None):
        self.config = config
        self.vocab = vocab
        self.graph = graph
        self.hierarchy = hierarchy
        self.section_ids = hierarchy.section_ids
        self.section_grids, self.section_masks = encode_corpus(
            hierarchy.sections, vocab, config.max_sents, config.max_words)
        self.schemas = default_schemas()
        self.text_encoder = TextEncoder(rng, len(vocab), config.embed_dim, config.d_prime,
                                        dropout=config.dropout, pretrained=pretrained,
                                        pretrained_mask=pretrained_mask)
        if config.structural == "metapath":
            self.struct_encoder = MetapathEncoder(rng, graph, self.schemas, config.d_node,
                                                  config.d_prime, config.d_m)
        else:
            self.struct_encoder = LookupEncoder(rng, graph, config.d_prime)
        self.scorer = MatchScorer(rng, len(self.section_ids), config.d_prime, config.d_s)
        for p in self.parameters().values():
            p.data = p.data.astype(PARAM_DTYPE)

    def parameters(self) -> dict[str, Tensor]:
        params = {}
        params.update(self.text_encoder.parameters())
        params.update(self.struct_encoder.parameters())
        params.update(self.scorer.parameters())
        return params

    # -- forward ------------------------------------------------------------------

    def encode_sections(self, seed: int, keep=None) -> Tensor:
        """The contextualized (attribute, structural) section pair (2, n_sec, d'):
        one text-encoder call on the section grids, with dropout multipliers
        `keep`, and walks seeded by `seed`. Training and inference share it."""
        h_s_attr = self.text_encoder(self.section_grids, self.section_masks, keep=keep)
        h_s_struct = self.struct_encoder.encode(self.graph, self.section_ids,
                                                self.config.k_instances, seed,
                                                attr_embeddings=h_s_attr)
        return self.scorer.contextualize_sections(ad.stack([h_s_attr, h_s_struct], axis=0))

    def forward(self, fact_grids: np.ndarray, fact_masks: np.ndarray, sample_seed: int,
                fact_ids: list[str] | None = None,
                dropout_rng: np.random.Generator | None = None) -> ScoreTriple:
        """Score a batch of training facts against every section.

        `fact_ids` enables the fact-side structural branch; each must be a
        node of the graph (a training fact), else `UnknownNodeError`.

        The facts and the sections are encoded in two text-encoder calls, each
        on its grids as `encode_corpus` built them, at their own extent. With
        dropout, the multipliers of all rows, facts first and then sections,
        are drawn once per batch at the sentence cap, so a row's draws do not
        depend on its batch-mates.
        """
        n_facts = fact_grids.shape[0]
        fact_keep = section_keep = None
        if self.config.dropout > 0.0:
            if dropout_rng is None:
                raise ValueError("dropout needs an RNG")
            sent, doc = self.text_encoder.dropout_multipliers(
                dropout_rng, n_facts + len(self.section_ids), self.config.max_sents)
            fact_keep = sent[:n_facts], doc[:n_facts]
            section_keep = sent[n_facts:], doc[n_facts:]
        h_f_attr = self.text_encoder(fact_grids, fact_masks, keep=fact_keep)
        contextualized = self.encode_sections(sample_seed, keep=section_keep)
        h_f_struct = None if fact_ids is None else self.struct_encoder.encode(
            self.graph, fact_ids, self.config.k_instances, sample_seed, attr_embeddings=h_f_attr)
        return self.scorer.score_triple(h_f_attr, contextualized, h_f_struct)

    # -- inference ----------------------------------------------------------------

    def prepare_inference(self) -> Tensor:
        """The contextualized section pair under the config seed, reused per fact."""
        with no_grad():
            return self.encode_sections(self.config.seed)

    def score_one(self, state: Tensor, grid: np.ndarray, mask: np.ndarray):
        """Attribute and alignment scores for a single fact (inductive path:
        no fact-side graph access)."""
        with no_grad():
            triple = self.scorer.score_triple(self.text_encoder(grid[None], mask[None]), state)
            return triple.attribute.data[0], triple.alignment.data[0]

    # -- parameter state ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]):
        """Copy `state` into the parameters, in its own dtype: one floating
        dtype for all of them, which the model then computes in."""
        params = self.parameters()
        missing = set(params) ^ set(state)
        if missing:
            raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
        dtypes = {a.dtype for a in state.values()}
        if len(dtypes) > 1 or next(iter(dtypes)).kind != "f":
            raise ValueError(f"parameters must share one floating-point dtype, got "
                             f"{sorted(map(str, dtypes))}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = state[name].copy()

