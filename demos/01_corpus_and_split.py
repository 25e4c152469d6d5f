#!/usr/bin/env python3
"""Corpus handling: synthetic data, loading, tokenization, encoding, and the
iterative stratified split.

Run:  python demos/01_corpus_and_split.py
"""

import tempfile
from pathlib import Path

from lexcite.corpus import (build_vocab, encode_corpus, load_facts_with_report,
                            load_hierarchy, tokenize)
from lexcite.split import SplitSpec, iterative_stratified_split, split_report
from lexcite.synth import write_synth

workdir = Path(tempfile.mkdtemp(prefix="lexcite_demo_"))
print(f"working in {workdir}\n")

# --- a synthetic corpus: 200 facts over 8 statute sections ---------------------
facts_path, hier_path = write_synth(workdir, n_docs=200, n_sections=8, seed=7)
hierarchy = load_hierarchy(hier_path)
print(f"hierarchy: act {hierarchy.act_id!r}, {len(hierarchy.chapters)} chapters, "
      f"{len(hierarchy.topics)} topics, {len(hierarchy.sections)} sections")
print(f"section order (file order): {hierarchy.section_ids}\n")

docs, load_info = load_facts_with_report(facts_path, hierarchy)
print(f"loaded {load_info.n_loaded} facts "
      f"({load_info.n_excluded} excluded, {load_info.n_dropped_labels} unknown labels dropped)")
sample = docs[0]
print(f"first fact {sample.id!r} from court {sample.court!r} cites {sorted(sample.labels)}")
print(f"first sentence tokens: {sample.sentences[0][:10]}\n")

# tokenization keeps bracketed entity masks whole
print("tokenizer on masked text:", tokenize("On [DATE 1], [PERSON 2] assaulted the victim."))

# --- vocabulary and index-grid encoding -----------------------------------------
vocab = build_vocab([d.tokens() for d in docs] + [s.tokens() for s in hierarchy.sections],
                    min_freq=1)
print(f"\nvocabulary: {len(vocab)} entries (index 0 = padding, 1 = unknown)")

# caps of 4 sentences x 8 words truncate; the grid is the kept text's extent
grids, masks = encode_corpus([sample], vocab, max_sents=4, max_words=8)
grid, mask = grids[0], masks[0]
print(f"encoded grid shape {grid.shape}, {int(mask.sum())} real tokens")
print("round-trip of the masked region:",
      [vocab.decode(int(i)) for i in grid[0][mask[0]]][:6], "...\n")

# --- 64:16:20 iterative stratified split ----------------------------------------
spec = SplitSpec(ratios=(0.64, 0.16, 0.20), seed=0)
train, val, test = iterative_stratified_split(docs, spec)
report = split_report((train, val, test), labels=hierarchy.section_ids)
print(f"fold sizes: {report['fold_sizes']} of {report['n_docs']}")
print("per-label fold proportions (target 0.64 / 0.16 / 0.20):")
for lab in hierarchy.section_ids:
    props = report["labels"][lab]["proportions"]
    counts = report["labels"][lab]["counts"]
    print(f"  section {lab}: {props[0]:.3f} / {props[1]:.3f} / {props[2]:.3f}  "
          f"(counts {counts})")
