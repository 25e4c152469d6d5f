"""Paper-length training probe: wall time, peak RSS and epoch loss of one
training epoch at the paper's dimensions on lengthened facts.

    ulimit -v 5000000
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 experiments/memory_probe.py --batch 32 --batches 2

Run from the repository root. The inputs are a 600-fact, 100-section
`lexcite synth` corpus (seed 1) whose facts are lengthened with the filler mix
of the benchmark's paper-infer workload (`perfbench/run.py`). The facts are
split with seed 1 and the graph is built on the training split. The model
has the `TrainingConfig()` defaults (200-d, 128 x 64 caps) with one epoch and
the given batch size; it trains on the first `batch x batches` training facts
and validates on the first 4 validation facts. `ulimit -v` caps the address
space, which counts more than RSS: a run that fails under it needs more than
that much address space, not that much RSS.

Prints one JSON line: the wall time of `train_model`, the process's peak RSS
before and after it, and the epoch loss. This is a measuring tool, not a
test; nothing runs it in the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (the benchmark's input maker and filler mix)

from lexcite.corpus import build_vocab, load_facts, load_hierarchy  # noqa: E402
from lexcite.graph import build_citation_graph  # noqa: E402
from lexcite.model import Model  # noqa: E402
from lexcite.split import SplitSpec, iterative_stratified_split  # noqa: E402
from lexcite.training import TrainingConfig, train_model  # noqa: E402

SEED = 1
N_DOCS, N_SECTIONS = 600, 100
VAL_FACTS = 4


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_inputs(work: Path) -> tuple[Path, Path]:
    """The lengthened corpus, made by the benchmark's own input code."""
    probe = dataclasses.replace(bench.WORKLOADS["paper-infer"], n_docs=N_DOCS,
                                n_sections=N_SECTIONS)
    b = bench.Bench("paper-infer", SEED, work, time.monotonic() + 600.0)
    b.w = probe
    b.make_inputs()
    return b.facts, b.hier


def probe(batch: int, batches: int, work: Path) -> dict:
    facts_path, hier_path = make_inputs(work)
    hierarchy = load_hierarchy(hier_path)
    docs = load_facts(facts_path, hierarchy)
    train, val, _ = iterative_stratified_split(docs, SplitSpec(seed=SEED))
    n = batch * batches
    if len(train) < n:
        raise SystemExit(f"only {len(train)} training facts, {n} asked for")
    graph = build_citation_graph(train, hierarchy)
    vocab = build_vocab([d.tokens() for d in train] + [s.tokens() for s in hierarchy.sections])
    config = TrainingConfig(epochs=1, batch_size=batch, seed=SEED)
    model = Model(np.random.default_rng(SEED), config, vocab, graph, hierarchy)
    before = _peak_rss_mb()
    start = time.perf_counter()
    result = train_model(model, train[:n], val[:VAL_FACTS])
    wall = time.perf_counter() - start
    return {"batch": batch, "batches": batches, "facts": n, "train_s": round(wall, 2),
            "peak_rss_mb_before_train": round(before, 1), "peak_rss_mb": round(_peak_rss_mb(), 1),
            "epoch_loss": result.log[0]["loss"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--batch", type=int, default=32, help="facts per batch (default 32)")
    ap.add_argument("--batches", type=int, default=1, help="batches in the epoch (default 1)")
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="memory_probe-"))
    try:
        print(json.dumps(probe(args.batch, args.batches, work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
