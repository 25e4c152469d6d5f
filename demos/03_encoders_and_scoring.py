#!/usr/bin/env python3
"""Inside the model: hierarchical attention over text, metapath aggregation
over the graph, and the shared three-way scorer.

Run:  python demos/03_encoders_and_scoring.py
"""

import tempfile
from pathlib import Path

import numpy as np

from lexcite.autodiff import no_grad
from lexcite.corpus import build_vocab, encode_corpus, load_facts, load_hierarchy
from lexcite.graph import build_citation_graph
from lexcite.model import Model
from lexcite.synth import write_synth
from lexcite.training import TrainingConfig

workdir = Path(tempfile.mkdtemp(prefix="lexcite_demo_"))
facts_path, hier_path = write_synth(workdir, n_docs=30, n_sections=5, seed=1)
hierarchy = load_hierarchy(hier_path)
docs = load_facts(facts_path, hierarchy)
graph = build_citation_graph(docs, hierarchy)
vocab = build_vocab([d.tokens() for d in docs] + [s.tokens() for s in hierarchy.sections])

config = TrainingConfig(embed_dim=16, d_prime=16, d_node=16, d_m=16, d_s=16, dropout=0.0)
model = Model(np.random.default_rng(0), config, vocab, graph, hierarchy)
print(f"model has {sum(p.data.size for p in model.parameters().values())} parameters\n")

# --- hierarchical attention text encoder ------------------------------------------
grids, masks = encode_corpus(docs[:3], vocab, max_sents=6, max_words=10)
with no_grad():
    doc_vecs, att = model.text_encoder(grids, masks, return_weights=True)
print(f"attribute embeddings: {doc_vecs.shape}")
doc = docs[0]
weights = att["sentence"][0][: len(doc.sentences)]
print("sentence attention for the first fact (sums to 1):")
for w, sent in sorted(zip(weights, doc.sentences), reverse=True)[:3]:
    print(f"  {w:.3f}  {' '.join(sent[:8])} ...")

# --- structural encoder over metapaths ---------------------------------------------
sections = hierarchy.section_ids
sec_grids, sec_masks = encode_corpus(hierarchy.sections, vocab, 6, 10)
with no_grad():
    sec_attr = model.text_encoder(sec_grids, sec_masks)
    sec_struct, att = model.struct_encoder.encode(graph, sections, k=4, seed=0,
                                                  attr_embeddings=sec_attr,
                                                  return_weights=True)
print(f"\nstructural embeddings: {sec_struct.shape}")
print("schema mixing weights (beta) per section:")
schema_ids = [s.id for s in model.struct_encoder.sides["S"]]
for i, sid in enumerate(sections[:3]):
    mix = ", ".join(f"{sch.split('-')[1]}-path {w:.2f}"
                    for sch, w in zip(schema_ids, att["beta"][i]))
    print(f"  section {sid}: {mix}")

# --- the shared scorer produces three score types ------------------------------------
with no_grad():
    fact_attr = model.text_encoder(grids, masks)
    triple = model.scorer.score_triple(fact_attr, sec_attr, sec_struct, h_f_struct=None)
print(f"\nattribute score matrix: {triple.attribute.shape} — text vs text")
print(f"alignment score matrix: {triple.alignment.shape} — text vs graph")
print(f"structural score at inference: {triple.structural} (facts are unseen nodes)")
combined = 0.25 * triple.attribute.data + 0.75 * triple.alignment.data  # lambda_a, lambda_l
print(f"\ncombined scores for fact {docs[0].id!r} (untrained, so near 0.5):")
print("  " + "  ".join(f"{sid}:{v:.2f}" for sid, v in zip(sections, combined[0])))
