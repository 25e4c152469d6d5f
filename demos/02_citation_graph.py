#!/usr/bin/env python3
"""The heterogeneous citation network and its metapath machinery.

Run:  python demos/02_citation_graph.py
"""

import tempfile
from pathlib import Path

from lexcite.corpus import load_facts, load_hierarchy
from lexcite.graph import build_citation_graph, default_schemas
from lexcite.synth import write_synth

workdir = Path(tempfile.mkdtemp(prefix="lexcite_demo_"))
facts_path, hier_path = write_synth(workdir, n_docs=40, n_sections=6, seed=3)
hierarchy = load_hierarchy(hier_path)
docs = load_facts(facts_path, hierarchy)

graph = build_citation_graph(docs, hierarchy)
print("node counts per type:", graph.stats()["nodes"])
print("edge counts per relation:", graph.stats()["edges"])
print("(ct = fact cites section, ctb = its reverse; inc/po run down/up the hierarchy)\n")

# --- the eight declared metapath schemas -----------------------------------------
schemas = default_schemas()
print("section-side schemas:")
for s in schemas[:4]:
    print(f"  {s.id}")
print("fact-side schemas:")
for s in schemas[4:]:
    print(f"  {s.id}")

# --- co-citation instances vs sampling -------------------------------------------
target = hierarchy.section_ids[0]
cocite = schemas[0]  # S-ctb-F-ct-S: sections co-cited with the target
# every instance, listed by walking the two relations (stored target-last)
instances = {(other, fact, target)
             for fact in graph.neighbors(target, "ctb")
             for other in graph.neighbors(fact, "ct")}
print(f"\nsection {target}: {len(instances)} co-citation instances exist, e.g.")
for nodes in sorted(instances)[:4]:
    print("  " + " -> ".join(nodes))

sampled = graph.sample_instances(target, cocite, k=8, seed=0)
print(f"\nsampled 8 with replacement (seeded, so reruns repeat exactly):")
for inst in sampled[:4]:
    print("  " + " -> ".join(inst.nodes))
print("every sampled instance is one of them:",
      all(i.nodes in instances for i in sampled))

sibling = schemas[1]  # S-po-T-inc-S: sections under the same topic
print(f"\nsiblings of section {target} through its topic (sampled):")
for inst in graph.sample_instances(target, sibling, k=5, seed=0):
    print("  " + " -> ".join(inst.nodes))

# --- inductive hygiene -------------------------------------------------------------
graph.recorder = []
graph.sample_instances(target, cocite, k=2, seed=1)
print(f"\naccess recorder saw: {sorted(set(graph.recorder))}")
try:
    graph.sample_instances("some_test_fact", schemas[4], k=1, seed=0)
except KeyError as e:
    print(f"querying a node outside the graph is a hard error: {e}")
