#!/usr/bin/env python3
"""End to end: train on a synthetic corpus, tune the decision threshold,
evaluate with the full breakdown report, and predict for one unseen fact.

Takes a minute or two on a laptop CPU.

Run:  python demos/04_train_and_evaluate.py
"""

import tempfile
from pathlib import Path

import numpy as np

from lexcite.corpus import build_vocab, load_facts, load_hierarchy
from lexcite.graph import build_citation_graph
from lexcite.metrics import evaluate_predictions
from lexcite.model import Model
from lexcite.split import SplitSpec, iterative_stratified_split
from lexcite.synth import write_synth
from lexcite.training import (TrainingConfig, citation_frequencies, class_weights, predict_corpus,
                              train_model, tune_threshold)

workdir = Path(tempfile.mkdtemp(prefix="lexcite_demo_"))
facts_path, hier_path = write_synth(workdir, n_docs=300, n_sections=8, seed=0)
hierarchy = load_hierarchy(hier_path)
docs = load_facts(facts_path, hierarchy)
train, val, test = iterative_stratified_split(docs, SplitSpec(seed=0))
graph = build_citation_graph(train, hierarchy)
vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
print(f"{len(train)} train / {len(val)} val / {len(test)} test docs, "
      f"vocab {len(vocab)}, graph {graph.stats()['nodes']}")

config = TrainingConfig.desk_scale(seed=0, epochs=12)
freqs = citation_frequencies(train, hierarchy.section_ids)
weights = class_weights(freqs, len(train), config)
print("citation counts:", freqs.tolist())
print("capped class weights:", [round(w, 1) for w in weights], "\n")

model = Model(np.random.default_rng(config.seed), config, vocab, graph, hierarchy)
result = train_model(model, train, val,
                     log_hook=lambda r: print(f"  epoch {r['epoch']:2d}  "
                                              f"loss {r['loss']:7.3f}  "
                                              f"val macro-F1 {r['val_macro_f1']:6.2f}"))
print(f"best epoch {result.best_epoch} (val macro-F1 {result.best_val_f1:.2f})\n")

tau = tune_threshold(model, val)
print(f"threshold tuned on validation: {tau}")

preds, scores = predict_corpus(model, test, tau=tau)
report = evaluate_predictions(preds, [d.labels for d in test], hierarchy.section_ids,
                              courts=[d.court for d in test])
print("\n" + report.summary())

fact = test[0]
print(f"\nunseen fact {fact.id!r}: gold {sorted(fact.labels)}, predicted {sorted(preds[0])}")
print("scores: " + "  ".join(f"{sid}:{v:.2f}"
                             for sid, v in zip(hierarchy.section_ids, scores[0])))
