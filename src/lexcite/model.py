"""The complete fact-to-statute model: text encoder + structural encoder +
shared scorer, with checkpointing.

Training forward passes score a batch of facts against the full section set
three ways (attribute, structural, alignment). Inference drops everything
fact-side-structural: a test fact is scored purely from its text plus the
sections' graph-derived embeddings, which is what makes prediction inductive.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .corpus import Vocabulary
from .graph import HeteroGraph, default_schemas
from .han import TextEncoder, trim_to_extent
from .scorer import MatchScorer, ScoreTriple
from .structural import LookupEncoder, MetapathEncoder

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class ModelSpec:
    """Architecture hyperparameters (training schedule lives elsewhere)."""

    embed_dim: int = 200
    d_prime: int = 200
    d_node: int = 200
    d_m: int = 200
    d_s: int = 200
    dropout: float = 0.5
    structural: str = "metapath"  # or "lookup"

    def __post_init__(self):
        if self.structural not in ("metapath", "lookup"):
            raise ValueError(f"unknown structural encoder {self.structural!r}")


class Model:
    def __init__(self, rng: np.random.Generator, spec: ModelSpec, vocab_size: int,
                 graph: HeteroGraph, section_ids: list[str],
                 pretrained: np.ndarray | None = None,
                 pretrained_mask: np.ndarray | None = None):
        self.spec = spec
        self.section_ids = list(section_ids)
        self.schemas = default_schemas()
        self.text_encoder = TextEncoder(rng, vocab_size, spec.embed_dim, spec.d_prime,
                                        dropout=spec.dropout, pretrained=pretrained,
                                        pretrained_mask=pretrained_mask)
        if spec.structural == "metapath":
            self.struct_encoder = MetapathEncoder(rng, graph, self.schemas, spec.d_node,
                                                  spec.d_prime, spec.d_m)
        else:
            self.struct_encoder = LookupEncoder(rng, graph, spec.d_prime)
        self.scorer = MatchScorer(rng, len(section_ids), spec.d_prime, spec.d_s)

    def parameters(self) -> dict[str, Tensor]:
        params = {}
        params.update(self.text_encoder.parameters())
        params.update(self.struct_encoder.parameters())
        params.update(self.scorer.parameters())
        return params

    # -- forward ------------------------------------------------------------------

    def forward(self, graph: HeteroGraph, fact_grids: np.ndarray, fact_masks: np.ndarray,
                section_grids: np.ndarray, section_masks: np.ndarray, k: int, sample_seed: int,
                fact_ids: list[str] | None = None, training: bool = False,
                dropout_rng: np.random.Generator | None = None) -> ScoreTriple:
        """Score a batch of facts against every section.

        `fact_ids` enables the fact-side structural branch and must only be
        given for facts that are nodes of `graph` (training facts).
        """
        n_facts = fact_grids.shape[0]
        grids, masks = trim_to_extent(np.concatenate([fact_grids, section_grids]),
                                      np.concatenate([fact_masks, section_masks]))
        all_attr = self.text_encoder(grids, masks, training, dropout_rng)
        h_f_attr = all_attr[:n_facts]
        h_s_attr = all_attr[n_facts:]
        h_s_struct = self.struct_encoder.encode(graph, self.section_ids, k, sample_seed,
                                                attr_embeddings=h_s_attr)
        h_f_struct = None
        if fact_ids is not None:
            if not training:
                raise ValueError("fact-side structural embeddings are training-only")
            h_f_struct = self.struct_encoder.encode(graph, fact_ids, k, sample_seed,
                                                    attr_embeddings=h_f_attr)
        return self.scorer.score_triple(h_f_attr, h_s_attr, h_s_struct, h_f_struct)

    # -- inference ----------------------------------------------------------------

    def prepare_inference(self, graph: HeteroGraph, section_grids: np.ndarray,
                          section_masks: np.ndarray, k: int, seed: int) -> Tensor:
        """Encode and contextualize the section sets once; reused per fact.

        Returns the contextualized (attribute, structural) pair (2, n_sec, d')."""
        with no_grad():
            h_s_attr = self.text_encoder(*trim_to_extent(section_grids, section_masks))
            h_s_struct = self.struct_encoder.encode(graph, self.section_ids, k, seed,
                                                    attr_embeddings=h_s_attr)
            return self.scorer.contextualize_sections(ad.stack([h_s_attr, h_s_struct], axis=0))

    def score_one(self, state: Tensor, grid: np.ndarray, mask: np.ndarray):
        """Attribute and alignment scores for a single fact (inductive path:
        no fact-side graph access)."""
        with no_grad():
            h_f = self.text_encoder(*trim_to_extent(grid[None], mask[None]))
            o_attr, o_align = self.scorer.score_sections(h_f, state)
            return o_attr.data[0], o_align.data[0]

    # -- checkpointing --------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]):
        params = self.parameters()
        missing = set(params) ^ set(state)
        if missing:
            raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = state[name].astype(np.float64).copy()


def save_checkpoint(path, model: Model, vocab: Vocabulary, train_config: dict,
                    extra: dict | None = None):
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_spec": asdict(model.spec),
        "section_ids": model.section_ids,
        "vocab_tokens": vocab.tokens[2:],
        "vocab_freqs": [vocab.freqs[t] for t in vocab.tokens[2:]],
        "train_config": train_config,
        "extra": extra or {},
    }
    arrays = {f"param.{k}": v for k, v in model.state_arrays().items()}
    np.savez_compressed(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                        **arrays)


def load_checkpoint(path, graph: HeteroGraph):
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode())
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta.get('format_version')!r}")
        arrays = {k[len("param."):]: blob[k] for k in blob.files if k.startswith("param.")}
    vocab = Vocabulary(meta["vocab_tokens"],
                       dict(zip(meta["vocab_tokens"], meta["vocab_freqs"])))
    spec_values = dict(meta["model_spec"])
    # Older checkpoints name the retired attention-context mode. Only its
    # attribute-derived setting matches today's parameter shapes; a
    # static-context checkpoint is refused.
    if not spec_values.pop("dynamic_context", True):
        raise ValueError("checkpoint was trained with dynamic_context=false (static attention "
                         "contexts), which is no longer supported")
    spec = ModelSpec(**spec_values)
    model = Model(np.random.default_rng(0), spec, len(vocab), graph, meta["section_ids"])
    model.load_state_arrays(arrays)
    return model, vocab, meta

