"""Weighted multi-label training loop, class weighting, thresholding,
inductive prediction and checkpointing.

Loss per score type is a weighted binary cross entropy over all sections,
normalized by batch size only; the three losses are mixed linearly. Positive
class weights come from training citation frequencies under either the
vanilla scheme (n_docs / freq) or the capped scheme (min(f_max / freq, eta)).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .corpus import FactDocument, StatuteHierarchy, Vocabulary, encode_corpus
from .graph import HeteroGraph
from .metrics import macro_prf
from .model import Model

SCORE_EPS = 1e-7
DEFAULT_THRESHOLD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
CHECKPOINT_FORMAT_VERSION = 1


class DivergenceError(RuntimeError):
    pass


@dataclass
class TrainingConfig:
    # loss mixing and prediction
    theta_a: float = 1.0
    theta_s: float = 2.0
    theta_l: float = 3.0
    lambda_a: float = 0.25
    lambda_l: float = 0.75
    tau: float = 0.65
    eta: float = 10.0
    weighting: str = "tws"  # or "vws"
    # optimization
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    k_instances: int = 8
    # architecture
    embed_dim: int = 200
    d_prime: int = 200
    d_node: int = 200
    d_m: int = 200
    d_s: int = 200
    dropout: float = 0.5
    max_sents: int = 128
    max_words: int = 64
    min_freq: int = 1
    structural: str = "metapath"

    def __post_init__(self):
        if min(self.theta_a, self.theta_s, self.theta_l) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lambda_a < 0 or self.lambda_l < 0 or self.lambda_a + self.lambda_l <= 0:
            raise ValueError("score mix weights must be non-negative and not both zero")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.eta < 1.0:
            raise ValueError("eta must be >= 1")
        if not 1e-6 <= self.lr <= 1e-2:
            raise ValueError("learning rate must lie in [1e-6, 1e-2]")
        if self.weighting not in ("tws", "vws"):
            raise ValueError(f"unknown weighting scheme {self.weighting!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        for name in ("batch_size", "k_instances", "embed_dim", "d_prime", "d_node", "d_m",
                     "d_s", "max_sents", "max_words"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_prime % 2:
            raise ValueError("d_prime must be even (the text encoder's two directions)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.structural not in ("metapath", "lookup"):
            raise ValueError(f"unknown structural encoder {self.structural!r}")

    def with_ablation(self, ablation: str) -> "TrainingConfig":
        """full: unchanged; E: lookup-table structural encoder; S: no
        structural loss; V: vanilla class weighting."""
        if ablation == "full":
            return self
        if ablation == "E":
            return replace(self, structural="lookup")
        if ablation == "S":
            return replace(self, theta_s=0.0)
        if ablation == "V":
            return replace(self, weighting="vws")
        raise ValueError(f"unknown ablation {ablation!r}")

    @classmethod
    def desk_scale(cls, **overrides) -> "TrainingConfig":
        desk = dict(embed_dim=32, d_prime=32, d_node=32, d_m=32, d_s=32,
                    max_sents=8, max_words=16, epochs=20, lr=3e-3)
        desk.update(overrides)
        return cls(**desk)


# -- class weighting -----------------------------------------------------------


def citation_frequencies(docs: list[FactDocument], section_ids: list[str]) -> np.ndarray:
    index = {sid: i for i, sid in enumerate(section_ids)}
    freqs = np.zeros(len(section_ids), dtype=np.int64)
    for doc in docs:
        for lab in doc.labels:
            freqs[index[lab]] += 1
    return freqs


def class_weights_vws(freqs: np.ndarray, n_docs: int) -> np.ndarray:
    """w_s = n_docs / f_s; uncited sections fall back to the full n_docs."""
    freqs = np.asarray(freqs, dtype=np.float64)
    return np.where(freqs > 0, n_docs / np.maximum(freqs, 1.0), float(n_docs))


def class_weights_tws(freqs: np.ndarray, eta: float) -> np.ndarray:
    """w_s = min(f_max / f_s, eta); uncited sections get the cap eta."""
    freqs = np.asarray(freqs, dtype=np.float64)
    fmax = freqs.max()
    return np.where(freqs > 0, np.minimum(fmax / np.maximum(freqs, 1.0), eta), eta)


def class_weights(freqs: np.ndarray, n_docs: int, config: TrainingConfig) -> np.ndarray:
    if config.weighting == "vws":
        return class_weights_vws(freqs, n_docs)
    return class_weights_tws(freqs, config.eta)


# -- losses ----------------------------------------------------------------------


def weighted_bce(scores: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """-(1/B) sum_f sum_s [w_s y log o + (1 - y) log(1 - o)], scores clamped
    away from {0, 1}. Normalized by batch size only, not by section count."""
    batch = scores.shape[0]
    clamped = ad.clip(scores, SCORE_EPS, 1.0 - SCORE_EPS)
    pos_coef = weights[None, :] * targets
    neg_coef = 1.0 - targets
    term = ad.add(ad.mul(ad.log(clamped), pos_coef),
                  ad.mul(ad.log(ad.sub(1.0, clamped)), neg_coef))
    return ad.mul(ad.tsum(term), -1.0 / batch)


def combined_loss(loss_a: Tensor, loss_s: Tensor | None, loss_l: Tensor,
                  config: TrainingConfig) -> Tensor:
    total = ad.add(ad.mul(loss_a, config.theta_a), ad.mul(loss_l, config.theta_l))
    if loss_s is not None and config.theta_s != 0.0:
        total = ad.add(total, ad.mul(loss_s, config.theta_s))
    return total


# -- prediction --------------------------------------------------------------------


def _label_set(scores: np.ndarray, tau: float, section_ids: list[str]) -> set[str]:
    return {section_ids[i] for i in np.flatnonzero(scores >= tau)}


def predict_corpus(model: Model, docs: list[FactDocument], tau: float | None = None):
    """Per fact: its thresholded label set and its combined score vector
    lambda_a * attribute + lambda_l * alignment, as (label sets, (n, n_sec)).

    The sections are encoded once per call; then each fact is scored from its
    text only, independently of the others. That is what makes predictions
    bit-identical whichever other documents share the corpus file.
    """
    config = model.config
    tau = config.tau if tau is None else tau
    state = model.prepare_inference()
    preds, all_scores = [], []
    for doc in docs:
        grids, masks = encode_corpus([doc], model.vocab, config.max_sents, config.max_words)
        o_attr, o_align = model.score_one(state, grids[0], masks[0])
        scores = config.lambda_a * o_attr + config.lambda_l * o_align
        preds.append(_label_set(scores, tau, model.section_ids))
        all_scores.append(scores)
    return preds, np.array(all_scores)


def tune_threshold(model: Model, val_docs: list[FactDocument],
                   grid=DEFAULT_THRESHOLD_GRID) -> float:
    """Pick the grid threshold maximizing validation macro-F1 (ties: smaller)."""
    if not grid:
        raise ValueError("empty threshold grid")
    _, scores = predict_corpus(model, val_docs)
    golds = [d.labels for d in val_docs]
    universe = model.section_ids
    best_tau, best_f1 = None, -1.0
    for tau in sorted(grid):
        _, _, f1 = macro_prf([_label_set(row, tau, universe) for row in scores], golds, universe)
        if f1 > best_f1 + 1e-12:
            best_tau, best_f1 = tau, f1
    return float(best_tau)


# perfbench/spans.py wraps `Predictor.__init__` and fails to install without
# it; the inference state now lives on Model, so the name stays as its alias.
Predictor = Model


# -- training loop --------------------------------------------------------------------


@dataclass
class TrainResult:
    best_epoch: int
    best_val_f1: float
    log: list[dict] = field(default_factory=list)


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 1_000_003 + epoch * 7919 + 17) & 0x7FFFFFFF


def train_model(model: Model, train_docs: list[FactDocument], val_docs: list[FactDocument],
                log_hook=None) -> TrainResult:
    """Adam training over mini-batches with per-epoch validation, under the
    model's own config. Each batch's facts are encoded when the batch is
    taken, at the batch's extent.

    The model is left holding the parameters of the best validation epoch;
    of tied epochs the last, most trained one wins.
    Raises DivergenceError on non-finite loss.
    """
    config, section_ids = model.config, model.section_ids
    targets = np.stack([model.hierarchy.label_vector(d.labels) for d in train_docs])
    freqs = citation_frequencies(train_docs, section_ids)
    weights = class_weights(freqs, len(train_docs), config)

    optimizer = nn.Adam(model.parameters(), lr=config.lr)
    result = TrainResult(best_epoch=-1, best_val_f1=-1.0)
    best_state: dict[str, np.ndarray] | None = None
    n = len(train_docs)

    for epoch in range(config.epochs):
        order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, epoch]))
        dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2, epoch]))
        order = order_rng.permutation(n)
        sample_seed = _epoch_seed(config.seed, epoch)
        use_structural = config.theta_s > 0.0

        sums = {"attribute": 0.0, "structural": 0.0, "alignment": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            docs = [train_docs[i] for i in batch]
            grids, masks = encode_corpus(docs, model.vocab, config.max_sents, config.max_words)
            fact_ids = [doc.id for doc in docs] if use_structural else None
            triple = model.forward(grids, masks, sample_seed, fact_ids=fact_ids,
                                   training=True, dropout_rng=dropout_rng)
            y = targets[batch]
            loss_a = weighted_bce(triple.attribute, y, weights)
            loss_l = weighted_bce(triple.alignment, y, weights)
            loss_s = None
            if triple.structural is not None:
                loss_s = weighted_bce(triple.structural, y, weights)
            loss = combined_loss(loss_a, loss_s, loss_l, config)
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} batch {n_batches}: "
                    f"attribute={loss_a.data} structural="
                    f"{None if loss_s is None else loss_s.data} alignment={loss_l.data}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            sums["attribute"] += float(loss_a.data)
            sums["alignment"] += float(loss_l.data)
            sums["structural"] += float(loss_s.data) if loss_s is not None else 0.0
            sums["total"] += float(loss.data)
            n_batches += 1

        val_preds, _ = predict_corpus(model, val_docs)
        _, _, val_f1 = macro_prf(val_preds, [d.labels for d in val_docs], section_ids)
        record = {
            "epoch": epoch,
            "loss_attribute": sums["attribute"] / n_batches,
            "loss_structural": sums["structural"] / n_batches,
            "loss_alignment": sums["alignment"] / n_batches,
            "loss": sums["total"] / n_batches,
            "val_macro_f1": val_f1,
        }
        result.log.append(record)
        if log_hook is not None:
            log_hook(record)
        if val_f1 >= result.best_val_f1 - 1e-12:
            result.best_val_f1 = val_f1
            result.best_epoch = epoch
            best_state = model.state_arrays()

    if best_state is not None:
        model.load_state_arrays(best_state)
    return result


# -- checkpointing ------------------------------------------------------------------


def save_checkpoint(path, model: Model, extra: dict | None = None):
    """Parameters, vocabulary, section order and training config, stored once,
    uncompressed: float parameters barely compress, and compression made
    saving and loading several times slower."""
    tokens = model.vocab.tokens[2:]
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "section_ids": model.section_ids,
        "vocab_tokens": tokens,
        "vocab_freqs": [model.vocab.freqs[t] for t in tokens],
        "train_config": asdict(model.config),
        "extra": extra or {},
    }
    arrays = {f"param.{k}": v for k, v in model.state_arrays().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path, graph: HeteroGraph, hierarchy: StatuteHierarchy):
    """The stored model over `graph` and `hierarchy`, and the stored metadata."""
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode())
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta.get('format_version')!r}")
        arrays = {k[len("param."):]: blob[k] for k in blob.files if k.startswith("param.")}
    vocab = Vocabulary(meta["vocab_tokens"],
                       dict(zip(meta["vocab_tokens"], meta["vocab_freqs"])))
    # Older checkpoints also store a second copy of the architecture and name
    # retired options; both are dropped. Of the retired attention-context
    # modes only the attribute-derived one matches today's parameter shapes.
    values = meta["train_config"]
    if not values.get("dynamic_context", True):
        raise ValueError("checkpoint was trained with dynamic_context=false (static attention "
                         "contexts), which is no longer supported")
    known = {f.name for f in fields(TrainingConfig)}
    config = TrainingConfig(**{k: v for k, v in values.items() if k in known})
    if hierarchy.section_ids != meta["section_ids"]:
        raise ValueError("hierarchy file does not match the checkpoint's section order")
    model = Model(np.random.default_rng(0), config, vocab, graph, hierarchy)
    model.load_state_arrays(arrays)
    return model, meta
