"""Statute identification from fact descriptions via a heterogeneous legal
citation network: corpus handling, stratified splitting, graph construction,
metapath-based structural encoding, hierarchical attention text encoding,
three-way scoring, weighted multi-label training and inductive prediction.
"""

from .corpus import (FactDocument, Statute, StatuteHierarchy, Vocabulary, build_vocab,
                     encode_corpus, load_facts, load_hierarchy)
from .graph import (HeteroGraph, MetapathInstance, MetapathSchema, build_citation_graph,
                    default_schemas)
from .metrics import EvalReport, evaluate_predictions, macro_prf, mean_jaccard
from .model import Model
from .scorer import MatchScorer, ScoreTriple
from .split import SplitSpec, iterative_stratified_split
from .synth import synth_corpus, write_synth
from .training import (TrainingConfig, class_weights_tws, class_weights_vws, combined_loss,
                       load_checkpoint, predict_corpus, save_checkpoint, train_model,
                       tune_threshold, weighted_bce)

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "FactDocument", "HeteroGraph", "MatchScorer", "MetapathInstance",
    "MetapathSchema", "Model", "ScoreTriple", "SplitSpec",
    "Statute", "StatuteHierarchy", "TrainingConfig", "Vocabulary", "build_citation_graph",
    "build_vocab", "class_weights_tws", "class_weights_vws", "combined_loss",
    "default_schemas", "encode_corpus", "evaluate_predictions", "iterative_stratified_split",
    "load_checkpoint", "load_facts", "load_hierarchy", "macro_prf", "mean_jaccard",
    "predict_corpus", "save_checkpoint", "synth_corpus", "train_model", "tune_threshold",
    "weighted_bce", "write_synth",
]
